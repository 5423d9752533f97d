#include "core/pipeline/restore.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/pipeline/executor.h"
#include "storage/retrying_store.h"
#include "util/sync.h"
#include "util/wallclock.h"

namespace cnr::core::pipeline {

using util::ElapsedUs;

namespace {

struct FetchJob {
  std::size_t pos = 0;    // chain position (index into the manifest vector)
  std::size_t chunk = 0;  // index into that manifest's chunk list
  std::chrono::steady_clock::time_point enqueued;
};

struct DecodeJob {
  std::size_t pos = 0;
  std::size_t chunk = 0;
  std::vector<std::uint8_t> blob;
  std::chrono::steady_clock::time_point enqueued;
};

struct ApplyJob {
  std::size_t pos = 0;
  DecodedChunk chunk;
  std::chrono::steady_clock::time_point enqueued;
};

// The stage runtime to run a plane on: the caller's shared executor, or a
// private one provisioned for this run. A private run auto-tunes only when
// both fan-out knobs are auto (0) — explicit counts keep the exact static
// behavior they always meant (docs/TUNING.md's precedence rule).
StageExecutor* EnsureExecutor(StageExecutor* configured,
                              std::optional<StageExecutor>& local,
                              std::size_t fetch_threads, std::size_t decode_threads) {
  if (configured != nullptr) return configured;
  ExecutorConfig ec;
  ec.auto_tune = fetch_threads == 0 && decode_threads == 0;
  local.emplace(ec);
  return &*local;
}

// The read planes' shared fan-out arithmetic — restore and scrub must size
// identically or their defaults drift apart again (the 2-vs-4 fetch_threads
// bug this refactor retired). `window` is the in-flight chunk admission
// bound: at least the fan-out's appetite, at most the configured capacity.
struct PlaneFanOut {
  std::size_t fetch_auto = 0;
  std::size_t decode_auto = 0;
  std::size_t fetch_eff = 0;   // explicit knob, or the auto size
  std::size_t decode_eff = 0;
  std::size_t window = 0;
};

PlaneFanOut ComputeFanOut(std::size_t total_chunks, std::size_t fetch_threads,
                          std::size_t decode_threads, std::size_t queue_capacity) {
  PlaneFanOut f;
  f.fetch_auto = AutoFanOut(total_chunks, /*per=*/4, /*lo=*/2, /*hi=*/8);
  f.decode_auto = AutoFanOut(total_chunks, /*per=*/8, /*lo=*/1, /*hi=*/4);
  f.fetch_eff = fetch_threads ? fetch_threads : f.fetch_auto;
  f.decode_eff = decode_threads ? decode_threads : f.decode_auto;
  f.window = std::max(queue_capacity, (f.fetch_eff + f.decode_eff) * 2);
  return f;
}

}  // namespace

std::vector<storage::Manifest> ResolveChainManifests(storage::ObjectStore& store,
                                                     const std::string& job,
                                                     std::uint64_t id) {
  std::vector<storage::Manifest> chain;
  std::uint64_t cur = id;
  while (true) {
    auto blob = store.Get(storage::Manifest::ManifestKey(job, cur));
    if (!blob) {
      throw std::runtime_error("recovery: no manifest for checkpoint " + std::to_string(cur));
    }
    auto manifest = storage::Manifest::Decode(*blob);
    const bool full = manifest.kind == storage::CheckpointKind::kFull;
    if (!full && manifest.parent_id == cur) {
      throw std::runtime_error("recovery: self-referencing chain");
    }
    const auto parent = manifest.parent_id;
    chain.push_back(std::move(manifest));
    if (full) break;
    cur = parent;
    if (chain.size() > 100000) throw std::runtime_error("recovery: chain too long");
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

RestoreOutcome RunRestorePipeline(storage::ObjectStore& store, const std::string& job,
                                  std::uint64_t checkpoint_id, ChunkApplier& applier,
                                  const RestoreConfig& config) {
  const auto entry_time = std::chrono::steady_clock::now();
  RestoreConfig cfg = config;
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  cfg.max_inflight_checkpoints = std::max<std::size_t>(cfg.max_inflight_checkpoints, 1);
  cfg.get_attempts = std::max(cfg.get_attempts, 1);

  storage::RetryPolicy retry_policy;
  retry_policy.max_attempts = cfg.get_attempts;
  storage::RetryingStore retrying(store, retry_policy);

  RestoreOutcome out;
  std::atomic<std::uint64_t> bytes_read{0};

  // Resolve stage: the chain (and every manifest on it) must be known before
  // any chunk can be named, so this runs serially on the caller thread.
  // Manifest bytes are not part of bytes_read (facade parity).
  const auto t_resolve = std::chrono::steady_clock::now();
  std::vector<storage::Manifest> manifests =
      ResolveChainManifests(retrying, job, checkpoint_id);
  out.timings.resolve_us = ElapsedUs(t_resolve);
  out.chain.reserve(manifests.size());
  std::size_t total_chunks = 0;
  for (const auto& m : manifests) {
    out.chain.push_back(m.checkpoint_id);
    total_chunks += m.chunks.size();
  }
  const std::size_t n_pos = manifests.size();

  std::optional<StageExecutor> local_exec;
  StageExecutor* exec =
      EnsureExecutor(cfg.executor, local_exec, cfg.fetch_threads, cfg.decode_threads);
  const PlaneFanOut fanout =
      ComputeFanOut(total_chunks, cfg.fetch_threads, cfg.decode_threads, cfg.queue_capacity);

  // Hand-off lanes are unbounded (a drain never blocks on a sibling stage —
  // executor.h's deadlock-freedom rule); payload memory is bounded by the
  // feeder's look-ahead admission window below.
  StageLane<FetchJob> fetch_lane;
  StageLane<DecodeJob> decode_lane;
  StageLane<ApplyJob> apply_lane;

  std::atomic<std::uint64_t> fetch_us{0}, decode_us{0}, apply_us{0};
  std::atomic<std::uint64_t> fetch_queue_us{0}, decode_queue_us{0}, apply_queue_us{0};
  std::atomic<std::uint64_t> rows_applied{0};

  // First failure wins; Failed() turns the remaining stage work into drains.
  util::FirstError error;

  // Apply-stage state. The apply stage is serial (max_workers == 1) and
  // successive drains are fenced by the executor, so no lock is needed —
  // the same contract the dedicated apply thread used to provide. Chunks
  // that arrive ahead of their chain position wait in the reorder buffer;
  // `applied_pos` is what the feeder's admission gate watches.
  struct ApplyState {
    std::vector<std::size_t> remaining;  // chunks left per chain position
    std::size_t next_pos = 0;
    std::map<std::size_t, std::vector<ApplyJob>> held;  // reorder buffer
  } apply_state;
  apply_state.remaining.resize(n_pos);
  for (std::size_t p = 0; p < n_pos; ++p) {
    apply_state.remaining[p] = manifests[p].chunks.size();
  }
  std::atomic<std::size_t> applied_pos{0};
  // Chunk-level in-flight window (queue_capacity): issued fetches whose
  // payload has not yet applied. This is the read path's peak-memory bound
  // — the role the bounded inter-stage queues used to play.
  std::atomic<std::size_t> issued_chunks{0}, settled_chunks{0};

  const auto apply_one = [&](ApplyJob& job_item) {
    apply_queue_us.fetch_add(ElapsedUs(job_item.enqueued), std::memory_order_relaxed);
    if (!error.Failed()) {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        applier.ApplyChunk(job_item.chunk);
        apply_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);
        rows_applied.fetch_add(job_item.chunk.num_rows, std::memory_order_relaxed);
      } catch (...) {
        error.Capture();
      }
    }
    --apply_state.remaining[job_item.pos];
    settled_chunks.fetch_add(1, std::memory_order_release);
  };

  const auto drain_ready = [&] {
    while (apply_state.next_pos < n_pos && apply_state.remaining[apply_state.next_pos] == 0) {
      ++apply_state.next_pos;
      applied_pos.store(apply_state.next_pos, std::memory_order_release);
      if (apply_state.next_pos >= n_pos) break;
      const auto it = apply_state.held.find(apply_state.next_pos);
      if (it == apply_state.held.end()) continue;
      auto ready = std::move(it->second);
      apply_state.held.erase(it);
      for (auto& job_item : ready) apply_one(job_item);
    }
  };
  drain_ready();  // advance past any zero-chunk prefix (empty incrementals)

  struct StageIds {
    StageExecutor::StageId fetch = 0, decode = 0, apply = 0;
  } ids;

  ids.apply = exec->OpenStage(PinnedStage("restore-apply"), [&]() -> bool {
    auto job_item = apply_lane.TryPop();
    if (!job_item) return false;
    if (job_item->pos != apply_state.next_pos) {
      apply_state.held[job_item->pos].push_back(std::move(*job_item));
      return true;
    }
    apply_one(*job_item);
    drain_ready();
    return true;
  });

  ids.decode = exec->OpenStage(
      SizedStage("restore-decode", cfg.decode_threads, fanout.decode_auto), [&]() -> bool {
        auto job_item = decode_lane.TryPop();
        if (!job_item) return false;
        decode_queue_us.fetch_add(ElapsedUs(job_item->enqueued), std::memory_order_relaxed);
        if (error.Failed()) return true;  // consume + drop
        try {
          const auto& manifest = manifests[job_item->pos];
          const auto t0 = std::chrono::steady_clock::now();
          auto chunk = DecodeChunkBlob(job_item->blob, manifest.quant,
                                       manifest.chunks[job_item->chunk].key);
          decode_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);
          apply_lane.Push(ApplyJob{job_item->pos, std::move(chunk),
                                   std::chrono::steady_clock::now()});
          exec->Submit(ids.apply);
        } catch (...) {
          error.Capture();
        }
        return true;
      });

  ids.fetch = exec->OpenStage(
      SizedStage("restore-fetch", cfg.fetch_threads, fanout.fetch_auto), [&]() -> bool {
        auto job_item = fetch_lane.TryPop();
        if (!job_item) return false;
        fetch_queue_us.fetch_add(ElapsedUs(job_item->enqueued), std::memory_order_relaxed);
        if (error.Failed()) return true;  // consume + drop
        try {
          const auto& info = manifests[job_item->pos].chunks[job_item->chunk];
          const auto t0 = std::chrono::steady_clock::now();
          auto blob = retrying.Get(info.key);
          fetch_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);
          if (!blob) throw std::runtime_error("recovery: missing chunk object " + info.key);
          bytes_read.fetch_add(blob->size(), std::memory_order_relaxed);
          decode_lane.Push(DecodeJob{job_item->pos, job_item->chunk, std::move(*blob),
                                     std::chrono::steady_clock::now()});
          exec->Submit(ids.decode);
        } catch (...) {
          error.Capture();
        }
        return true;
      });

  // Feeder: enqueue every chunk fetch in chain order, under two admission
  // gates — the position look-ahead (position p is admitted only once
  // position p - max_inflight_checkpoints has fully applied, bounding the
  // reorder buffer) and the chunk window (at most queue_capacity issued-
  // but-unapplied chunk payloads, bounding peak memory; deadlock-free
  // because issuance is chain-ordered, so the window always contains the
  // chunks the apply stage needs next). Both gates wait *by helping*: the
  // caller drains its own stages, so the restore progresses even when
  // every pool worker is busy on another plane.
  const std::size_t chunk_window = fanout.window;
  for (std::size_t p = 0; p < n_pos && !error.Failed(); ++p) {
    exec->HelpUntil(
        [&] {
          return p < applied_pos.load(std::memory_order_acquire) +
                         cfg.max_inflight_checkpoints ||
                 error.Failed();
        },
        {ids.fetch, ids.decode, ids.apply});
    if (error.Failed()) break;
    for (std::size_t c = 0; c < manifests[p].chunks.size(); ++c) {
      exec->HelpUntil(
          [&] {
            return issued_chunks.load(std::memory_order_acquire) -
                           settled_chunks.load(std::memory_order_acquire) <
                       chunk_window ||
                   error.Failed();
          },
          {ids.fetch, ids.decode, ids.apply});
      if (error.Failed()) break;
      fetch_lane.Push(FetchJob{p, c, std::chrono::steady_clock::now()});
      issued_chunks.fetch_add(1, std::memory_order_relaxed);
      exec->Submit(ids.fetch);
    }
  }

  // The dense blob only depends on the newest manifest, so its fetch overlaps
  // with the tail of the chunk stages. Shard sub-checkpoints of a coordinated
  // cut have no dense state (empty dense_key) — nothing to fetch or apply.
  std::vector<std::uint8_t> dense_blob;
  const bool has_dense = !manifests.back().dense_key.empty();
  if (has_dense && !error.Failed()) {
    try {
      const auto t0 = std::chrono::steady_clock::now();
      auto blob = retrying.Get(manifests.back().dense_key);
      fetch_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);
      if (!blob) throw std::runtime_error("recovery: missing dense blob");
      bytes_read.fetch_add(blob->size(), std::memory_order_relaxed);
      dense_blob = std::move(*blob);
    } catch (...) {
      error.Capture();
    }
  }

  // Completion: every chain position applied, or the first failure. Then
  // capture the runtime view (what the controller decided) and close the
  // stages — CloseStages helps drain whatever a failure left queued.
  exec->HelpUntil(
      [&] {
        return applied_pos.load(std::memory_order_acquire) == n_pos ||
               error.Failed();
      },
      {ids.fetch, ids.decode, ids.apply});
  out.stages = exec->snapshot({ids.fetch, ids.decode, ids.apply});
  exec->CloseStages({ids.fetch, ids.decode, ids.apply});

  error.MaybeRethrow();

  if (has_dense) {
    // Dense state applies last, after every chunk — same order the facade and
    // the write path's commit established.
    const auto t0 = std::chrono::steady_clock::now();
    applier.ApplyDense(dense_blob);
    apply_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);
  }

  out.rows_applied = rows_applied.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read.load(std::memory_order_relaxed);
  out.timings.fetch_us = fetch_us.load(std::memory_order_relaxed);
  out.timings.decode_us = decode_us.load(std::memory_order_relaxed);
  out.timings.apply_us = apply_us.load(std::memory_order_relaxed);
  out.timings.fetch_queue_us = fetch_queue_us.load(std::memory_order_relaxed);
  out.timings.decode_queue_us = decode_queue_us.load(std::memory_order_relaxed);
  out.timings.apply_queue_us = apply_queue_us.load(std::memory_order_relaxed);
  out.timings.restore_wall_us = ElapsedUs(entry_time);
  out.newest = std::move(manifests.back());
  return out;
}

namespace {

// Verdict of one scrubbed object, mergeable into a ScrubReport from any
// thread. The serial and parallel scrubbers share these check kernels so
// their reports are byte-identical over the same store.
struct ChunkVerdict {
  std::uint64_t decoded_rows = 0;  // 0 when the chunk is missing/undecodable
  std::uint64_t bytes = 0;         // stored size when the object is present
  std::vector<ScrubIssue> issues;
};

// Fetches `key` for scrubbing. A throwing store (exhausted retries) becomes
// a "fetch failed" issue rather than aborting the scrub — one unreachable
// replica must not hide the defects in the rest of the chain. Returns false
// iff the fetch threw (the blob is meaningless then).
bool TryScrubGet(storage::ObjectStore& store, const std::string& key,
                 std::optional<std::vector<std::uint8_t>>& blob,
                 std::vector<ScrubIssue>& issues) {
  try {
    blob = store.Get(key);
    return true;
  } catch (const std::exception& e) {
    issues.push_back({key, std::string("fetch failed: ") + e.what()});
    return false;
  }
}

// Cross-checks one fetched chunk blob against its manifest entry: presence,
// stored size, CRC-32C + layout (the decode kernel — exactly what a real
// restore would trip over), and decoded row count.
ChunkVerdict ScrubOneChunk(const std::optional<std::vector<std::uint8_t>>& blob,
                           const quant::QuantConfig& quant, const storage::ChunkInfo& info) {
  ChunkVerdict v;
  if (!blob) {
    v.issues.push_back({info.key, "chunk object missing"});
    return v;
  }
  v.bytes = blob->size();
  if (blob->size() != info.bytes) {
    v.issues.push_back({info.key, "stored size " + std::to_string(blob->size()) +
                                      " != manifest size " + std::to_string(info.bytes)});
  }
  try {
    const DecodedChunk chunk = DecodeChunkBlob(*blob, quant, info.key);
    v.decoded_rows = chunk.num_rows;
    if (chunk.num_rows != info.num_rows) {
      v.issues.push_back({info.key, "decoded " + std::to_string(chunk.num_rows) +
                                        " rows, manifest says " +
                                        std::to_string(info.num_rows)});
    }
  } catch (const std::exception& e) {
    v.issues.push_back({info.key, e.what()});
  }
  return v;
}

// Presence + size cross-check of one checkpoint's dense blob.
ChunkVerdict ScrubDenseBlob(const std::optional<std::vector<std::uint8_t>>& blob,
                            const storage::Manifest& m) {
  ChunkVerdict v;
  if (!blob) {
    v.issues.push_back({m.dense_key, "dense blob missing"});
    return v;
  }
  v.bytes = blob->size();
  if (blob->size() != m.dense_bytes) {
    v.issues.push_back({m.dense_key, "dense blob is " + std::to_string(blob->size()) +
                                         " bytes, manifest says " +
                                         std::to_string(m.dense_bytes)});
  }
  return v;
}

// Issues are appended in whatever order workers finish; canonical (key,
// message) order makes serial and parallel reports compare equal with ==.
void CanonicalizeIssues(ScrubReport& report) {
  std::sort(report.issues.begin(), report.issues.end(),
            [](const ScrubIssue& a, const ScrubIssue& b) {
              return a.key != b.key ? a.key < b.key : a.what < b.what;
            });
}

}  // namespace

ScrubReport ScrubChain(storage::ObjectStore& store, const std::string& job, std::uint64_t id) {
  ScrubReport report;
  std::vector<storage::Manifest> manifests;
  try {
    manifests = ResolveChainManifests(store, job, id);
  } catch (const std::exception& e) {
    report.issues.push_back({"", std::string("chain unresolvable: ") + e.what()});
    return report;
  }

  for (const auto& m : manifests) {
    report.chain.push_back(m.checkpoint_id);
    for (const auto& c : m.chunks) {
      ++report.chunks_checked;
      std::optional<std::vector<std::uint8_t>> blob;
      if (!TryScrubGet(store, c.key, blob, report.issues)) continue;
      const ChunkVerdict v = ScrubOneChunk(blob, m.quant, c);
      report.rows_checked += v.decoded_rows;
      report.bytes_checked += v.bytes;
      report.issues.insert(report.issues.end(), v.issues.begin(), v.issues.end());
    }
    if (!m.dense_key.empty()) {
      std::optional<std::vector<std::uint8_t>> dense;
      if (TryScrubGet(store, m.dense_key, dense, report.issues)) {
        const ChunkVerdict v = ScrubDenseBlob(dense, m);
        report.bytes_checked += v.bytes;
        report.issues.insert(report.issues.end(), v.issues.begin(), v.issues.end());
      }
    }
  }
  CanonicalizeIssues(report);
  return report;
}

ScrubReport ScrubChainParallel(storage::ObjectStore& store, const std::string& job,
                               std::uint64_t id, const ScrubConfig& config) {
  ScrubConfig cfg = config;
  cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
  cfg.get_attempts = std::max(cfg.get_attempts, 1);

  storage::RetryPolicy retry_policy;
  retry_policy.max_attempts = cfg.get_attempts;
  storage::RetryingStore retrying(store, retry_policy);

  ScrubReport report;
  std::vector<storage::Manifest> manifests;
  try {
    manifests = ResolveChainManifests(retrying, job, id);
  } catch (const std::exception& e) {
    report.issues.push_back({"", std::string("chain unresolvable: ") + e.what()});
    return report;
  }
  const std::size_t n_pos = manifests.size();
  report.chain.reserve(n_pos);
  std::size_t total_chunks = 0;
  for (const auto& m : manifests) {
    report.chain.push_back(m.checkpoint_id);
    total_chunks += m.chunks.size();
  }

  // The restore pipeline's fetch/decode stage shape on the shared stage
  // runtime, minus the apply stage: a scrub has no ordering constraint (it
  // applies nothing), so there is no reorder buffer — only the in-flight
  // window below bounding fetched-but-unverified payload memory.
  std::optional<StageExecutor> local_exec;
  StageExecutor* exec =
      EnsureExecutor(cfg.executor, local_exec, cfg.fetch_threads, cfg.decode_threads);
  const PlaneFanOut fanout =
      ComputeFanOut(total_chunks, cfg.fetch_threads, cfg.decode_threads, cfg.queue_capacity);

  constexpr std::size_t kDenseChunk = static_cast<std::size_t>(-1);
  struct ScrubFetchJob {
    std::size_t pos = 0;
    std::size_t chunk = 0;  // kDenseChunk => the checkpoint's dense blob
  };
  struct ScrubDecodeJob {
    std::size_t pos = 0;
    std::size_t chunk = 0;
    std::vector<std::uint8_t> blob;
  };
  StageLane<ScrubFetchJob> fetch_lane;
  StageLane<ScrubDecodeJob> decode_lane;

  // Workers merge verdicts under one mutex. `settled` drives the feeder's
  // in-flight window: one count per issued fetch job, landed once its
  // verdict (or dense size check) merged.
  util::Mutex report_mu;
  std::atomic<std::size_t> issued{0}, settled{0};
  const auto merge_chunk = [&](const ChunkVerdict& v) {
    {
      util::MutexLock lock(report_mu);
      ++report.chunks_checked;
      report.rows_checked += v.decoded_rows;
      report.bytes_checked += v.bytes;
      report.issues.insert(report.issues.end(), v.issues.begin(), v.issues.end());
    }
    settled.fetch_add(1, std::memory_order_release);
  };

  struct StageIds {
    StageExecutor::StageId fetch = 0, decode = 0;
  } ids;

  ids.decode = exec->OpenStage(
      SizedStage("scrub-decode", cfg.decode_threads, fanout.decode_auto), [&]() -> bool {
        auto item = decode_lane.TryPop();
        if (!item) return false;
        const storage::Manifest& m = manifests[item->pos];
        const storage::ChunkInfo& info = m.chunks[item->chunk];
        const std::optional<std::vector<std::uint8_t>> blob = std::move(item->blob);
        merge_chunk(ScrubOneChunk(blob, m.quant, info));
        return true;
      });

  ids.fetch = exec->OpenStage(
      SizedStage("scrub-fetch", cfg.fetch_threads, fanout.fetch_auto), [&]() -> bool {
        auto item = fetch_lane.TryPop();
        if (!item) return false;
        const storage::Manifest& m = manifests[item->pos];
        std::optional<std::vector<std::uint8_t>> blob;
        std::vector<ScrubIssue> fetch_issues;
        if (item->chunk == kDenseChunk) {
          // Dense blobs are size-checked only — no decode stage needed.
          ChunkVerdict v;
          if (TryScrubGet(retrying, m.dense_key, blob, fetch_issues)) {
            v = ScrubDenseBlob(blob, m);
          }
          {
            util::MutexLock lock(report_mu);
            report.bytes_checked += v.bytes;
            report.issues.insert(report.issues.end(), fetch_issues.begin(),
                                 fetch_issues.end());
            report.issues.insert(report.issues.end(), v.issues.begin(), v.issues.end());
          }
          settled.fetch_add(1, std::memory_order_release);
          return true;
        }
        const storage::ChunkInfo& info = m.chunks[item->chunk];
        if (!TryScrubGet(retrying, info.key, blob, fetch_issues)) {
          {
            util::MutexLock lock(report_mu);
            ++report.chunks_checked;
            report.issues.insert(report.issues.end(), fetch_issues.begin(),
                                 fetch_issues.end());
          }
          settled.fetch_add(1, std::memory_order_release);
          return true;
        }
        if (!blob) {
          merge_chunk(ScrubOneChunk(blob, m.quant, info));
          return true;
        }
        decode_lane.Push(ScrubDecodeJob{item->pos, item->chunk, std::move(*blob)});
        exec->Submit(ids.decode);
        return true;
      });

  // Feeder with an in-flight window: at most `window` fetched-but-unsettled
  // chunks at once — the read-side memory bound, enforced by helping (the
  // caller drains its own stages while it waits, so a scrub scheduled ON the
  // executor can run its inner stages on that same executor).
  const std::size_t window = fanout.window;
  const auto push_gated = [&](ScrubFetchJob job_item) {
    exec->HelpUntil(
        [&] {
          return issued.load(std::memory_order_acquire) -
                     settled.load(std::memory_order_acquire) <
                 window;
        },
        {ids.fetch, ids.decode});
    fetch_lane.Push(job_item);
    issued.fetch_add(1, std::memory_order_relaxed);
    exec->Submit(ids.fetch);
  };
  for (std::size_t p = 0; p < n_pos; ++p) {
    for (std::size_t c = 0; c < manifests[p].chunks.size(); ++c) {
      push_gated(ScrubFetchJob{p, c});
    }
    if (!manifests[p].dense_key.empty()) push_gated(ScrubFetchJob{p, kDenseChunk});
  }
  exec->CloseStages({ids.fetch, ids.decode});
  CanonicalizeIssues(report);
  return report;
}

}  // namespace cnr::core::pipeline
