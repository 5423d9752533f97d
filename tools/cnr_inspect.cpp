// cnr_inspect — inspect and maintain a Check-N-Run checkpoint store on disk.
//
// Usage:
//   cnr_inspect <store-dir>                       list jobs and checkpoints
//   cnr_inspect <store-dir> jobs                  multi-job overview: per-job
//       chains and store occupancy (live / stale / orphaned bytes — the same
//       survey kernel the service's startup reconciliation seeds stats from)
//   cnr_inspect <store-dir> gc [--dry-run] [--keep N] [--orphans]
//       garbage-collect the whole store with the service's GC kernel: delete
//       every checkpoint not on one of the `N` newest lineages per job
//       (default 1) and, with --orphans, every unreferenced object. --dry-run
//       reports what would be freed without deleting anything. Only run the
//       deleting forms on a store with no active writer.
//   cnr_inspect <store-dir> <job>                 describe a job's checkpoints
//   cnr_inspect <store-dir> <job> shards          coordinated-cut view of a
//       sharded job: each cut's shard -> sub-checkpoint map, the newest
//       (restorable) cut, and sub-checkpoints newer than it (in flight or
//       torn-cut leftovers — a torn cut never appears as a cut, its COORD
//       object was never written)
//   cnr_inspect <store-dir> <job> <ckpt-id>       dump one manifest in detail
//   cnr_inspect <store-dir> <job> restore [id]    restore drill: run the
//       staged restore pipeline (fetch → decode, no model) over the chain of
//       checkpoint `id` (default: newest) and print per-stage timings
//   cnr_inspect <store-dir> <job> scrub [id]
//       integrity scrub: cross-check every chunk's CRC, decoded row counts,
//       and stored sizes against the manifests, plus the dense blob, without
//       applying rows — bit-rot detection before a real failure needs the
//       chain. Runs the parallel scrub kernel (the service's background
//       self-scrub uses the same one). Exits 1 if the chain is damaged.
//       (`restore [id] --scrub` is the older spelling of the same check.)
//   cnr_inspect <near-dir> tiers <far-dir>        tiered write-back view
//       (storage::TieredStore): per-tier occupancy, dirty drain backlog
//       (near-tier objects whose replication to the far tier has not
//       finished), far-tier holes/extra objects, and the read-path hit
//       counters persisted by the last clean shutdown. The occupancy
//       numbers are the same survey the live service's stats() tracks, so
//       stats() == survey == this output is the tier parity invariant.
//   cnr_inspect <store-dir> <job> dlog [base-id]  per-iteration delta logs
//       (core/delta_log.h): with no id, one line per base checkpoint that has
//       a delta stream; with one, every segment of that base's log — seq,
//       cover/raw, iteration range, rows, bytes, and a CRC/placement verdict
//       — plus the replay picture: where recovery would start (the newest
//       valid cover), the last sealed iteration it can reach, and the torn
//       or out-of-place tail objects truncation would drop. Exits 1 if the
//       log is damaged.
//
// Works on any directory written through storage::FileStore (see
// examples/durable_checkpoints.cpp). Read-only except `gc` without
// --dry-run. (A job literally named "jobs", "gc", or "tiers" is shadowed by
// the subcommand; use the per-checkpoint forms for it.)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/delta_log.h"
#include "core/maintenance.h"
#include "core/pipeline/restore.h"
#include "core/recovery.h"
#include "quant/kernels.h"
#include "storage/file_store.h"
#include "storage/manifest.h"
#include "storage/tiered_store.h"
#include "util/crc32.h"

using namespace cnr;

namespace {

const char* KindName(storage::CheckpointKind kind) {
  switch (kind) {
    case storage::CheckpointKind::kFull: return "full";
    case storage::CheckpointKind::kIncremental: return "incremental";
    case storage::CheckpointKind::kCoordinated: return "coordinated";
  }
  return "unknown";
}

double Ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

// bytes / stage-cpu-time in MB/s; 0 when the stage recorded no time.
double MBps(std::uint64_t bytes, std::uint64_t us) {
  return us > 0 ? static_cast<double>(bytes) / static_cast<double>(us) : 0.0;
}

bool HasTimings(const storage::StageTimings& t) {
  return t.snapshot_us | t.plan_us | t.encode_us | t.store_us | t.commit_us |
         t.encode_queue_us | t.store_queue_us;
}

// Per-stage write-path breakdown recorded by the checkpoint pipeline
// (manifest format v2; older manifests have no timings).
void PrintTimings(const storage::StageTimings& t, const char* indent) {
  if (!HasTimings(t)) {
    std::printf("%sstage timings:   (not recorded; pre-v2 manifest)\n", indent);
    return;
  }
  std::printf("%sstage timings:   snapshot %.2f ms | plan %.2f ms | encode %.2f ms"
              " | store %.2f ms | commit %.2f ms\n",
              indent, Ms(t.snapshot_us), Ms(t.plan_us), Ms(t.encode_us), Ms(t.store_us),
              Ms(t.commit_us));
  std::printf("%squeue waits:     encode %.2f ms | store %.2f ms\n", indent,
              Ms(t.encode_queue_us), Ms(t.store_queue_us));
}

// Applier for the restore drill: exercises the full fetch/decode path of the
// staged restore pipeline without needing a model to apply into (this tool
// does not know the model's shape configuration).
struct DrillApplier : core::pipeline::ChunkApplier {
  std::uint64_t dense_bytes = 0;
  void ApplyChunk(const core::pipeline::DecodedChunk&) override {}
  void ApplyDense(std::span<const std::uint8_t> dense_blob) override {
    dense_bytes = dense_blob.size();
  }
};

// Per-stage read-path breakdown of a live restore (core/pipeline/restore.h).
void PrintRestoreTimings(const core::pipeline::RestoreTimings& t, const char* indent) {
  std::printf("%sstage walls:     resolve %.2f ms | fetch %.2f ms | decode %.2f ms"
              " | apply %.2f ms\n",
              indent, Ms(t.resolve_us), Ms(t.fetch_us), Ms(t.decode_us), Ms(t.apply_us));
  std::printf("%squeue waits:     fetch %.2f ms | decode %.2f ms | apply %.2f ms\n", indent,
              Ms(t.fetch_queue_us), Ms(t.decode_queue_us), Ms(t.apply_queue_us));
  const double sum = Ms(t.StageSumUs());
  const double wall = Ms(t.restore_wall_us);
  std::printf("%srestore wall:    %.2f ms (stage sum %.2f ms, overlap %.2fx)\n", indent, wall,
              sum, wall > 0.0 ? sum / wall : 0.0);
}

// What the stage runtime's feedback controller decided: per-stage worker
// allotment and occupancy at the end of a run (core/pipeline/executor.h,
// docs/TUNING.md).
void PrintStageRuntime(const core::pipeline::ExecutorSnapshot& snap, const char* indent) {
  if (snap.stages.empty()) return;
  std::printf("%sstage runtime:   %zu pool worker(s), auto-tune %s, %llu rebalance(s)\n",
              indent, snap.workers, snap.auto_tune ? "on" : "off",
              static_cast<unsigned long long>(snap.rebalances));
  for (const auto& s : snap.stages) {
    std::printf("%s  %-15s %zu worker(s) allotted | %llu unit(s) drained | busy %.2f ms\n",
                indent, s.name.c_str(), s.allotted,
                static_cast<unsigned long long>(s.drained), Ms(s.busy_us));
  }
}

// scrub: integrity pass over the chain, no rows applied. Runs the parallel
// kernel (fetch/decode workers) — the same one the service's background
// self-scrub schedules. Returns the process exit code so damage is
// scriptable.
int ScrubDrill(storage::ObjectStore& store, const std::string& job, std::uint64_t id) {
  const auto report = core::pipeline::ScrubChainParallel(store, job, id);
  std::printf("scrub: checkpoint %llu of job %s\n", static_cast<unsigned long long>(id),
              job.c_str());
  std::printf("  chain:          ");
  for (const auto cid : report.chain) {
    std::printf(" %llu", static_cast<unsigned long long>(cid));
  }
  std::printf("  (%zu checkpoint(s))\n", report.chain.size());
  std::printf("  chunks checked:  %zu (%llu rows, %llu bytes)\n", report.chunks_checked,
              static_cast<unsigned long long>(report.rows_checked),
              static_cast<unsigned long long>(report.bytes_checked));
  if (report.clean()) {
    std::printf("  result:          clean — every CRC, row count, and size matches\n");
    return 0;
  }
  std::printf("  result:          %zu issue(s)\n", report.issues.size());
  for (const auto& issue : report.issues) {
    std::printf("    %s: %s\n", issue.key.empty() ? "(chain)" : issue.key.c_str(),
                issue.what.c_str());
  }
  return 1;
}

void RestoreDrill(storage::ObjectStore& store, const std::string& job,
                  std::uint64_t id) {
  DrillApplier applier;
  const auto out = core::pipeline::RunRestorePipeline(store, job, id, applier);
  std::printf("restore drill: checkpoint %llu of job %s\n",
              static_cast<unsigned long long>(id), job.c_str());
  std::printf("  chain:          ");
  for (const auto cid : out.chain) std::printf(" %llu", static_cast<unsigned long long>(cid));
  std::printf("  (%zu checkpoint(s))\n", out.chain.size());
  std::printf("  rows decoded:    %llu\n", static_cast<unsigned long long>(out.rows_applied));
  std::printf("  bytes read:      %llu (dense %llu)\n",
              static_cast<unsigned long long>(out.bytes_read),
              static_cast<unsigned long long>(applier.dense_bytes));
  PrintRestoreTimings(out.timings, "  ");
  if (out.timings.decode_us > 0) {
    std::printf("  decode speed:    %.1f MB/s (bytes read / decode cpu)\n",
                MBps(out.bytes_read, out.timings.decode_us));
  }
  PrintStageRuntime(out.stages, "  ");
}

std::set<std::uint64_t> ListCheckpoints(storage::ObjectStore& store, const std::string& job) {
  const std::string prefix = storage::Manifest::JobPrefix(job) + "ckpt/";
  std::set<std::uint64_t> ids;
  for (const auto& key : store.List(prefix)) {
    const auto id = storage::Manifest::ParseId(key, prefix);
    if (id && key == storage::Manifest::ManifestKey(job, *id)) ids.insert(*id);
  }
  return ids;
}

void DescribeJob(storage::ObjectStore& store, const std::string& job) {
  const auto ids = ListCheckpoints(store, job);
  if (ids.empty()) {
    std::printf("job %s: no checkpoints\n", job.c_str());
    return;
  }
  std::printf("job %s: %zu checkpoint(s)\n", job.c_str(), ids.size());
  std::printf("%8s %-12s %8s %10s %12s %10s %8s %10s %10s\n", "id", "kind", "parent",
              "batches", "bytes", "chunks", "quant", "stall(ms)", "write(ms)");
  for (const auto id : ids) {
    const auto m = core::LoadManifest(store, job, id);
    // Write-path cpu/link time: the background stages, summed (the trainer
    // only ever pays the snapshot stall).
    const double write_ms =
        Ms(m.timings.plan_us + m.timings.encode_us + m.timings.store_us + m.timings.commit_us);
    std::printf("%8llu %-12s %8llu %10llu %12llu %10zu %5db/%s %10.2f %10.2f\n",
                static_cast<unsigned long long>(m.checkpoint_id), KindName(m.kind),
                static_cast<unsigned long long>(m.parent_id),
                static_cast<unsigned long long>(m.batches_trained),
                static_cast<unsigned long long>(m.TotalBytes()), m.chunks.size(),
                m.quant.method == quant::Method::kNone ? 32 : m.quant.bits,
                quant::MethodName(m.quant.method).c_str(), Ms(m.timings.snapshot_us),
                write_ms);
  }
  const auto latest = *core::LatestCheckpointId(store, job);
  const auto chain = core::ResolveChain(store, job, latest);
  std::printf("recovery chain for latest (%llu):", static_cast<unsigned long long>(latest));
  for (const auto id : chain) std::printf(" %llu", static_cast<unsigned long long>(id));
  std::printf("\n");
}

// Multi-job overview: the offline twin of CheckpointService::stats(), built
// on the same survey kernel (core::SurveyJob) the service's startup
// reconciliation seeds its accounting from — so a reconciled service's
// per-job `store_bytes` and this table agree byte for byte (the
// occupancy-parity invariant, docs/MANIFEST_FORMAT.md).
void JobsOverview(storage::ObjectStore& store) {
  const auto jobs = core::ListStoreJobs(store);
  if (jobs.empty()) {
    std::printf("no jobs\n");
    return;
  }
  std::vector<core::JobSurvey> surveys;
  std::uint64_t total_bytes = 0;
  for (const auto& job : jobs) {
    surveys.push_back(core::SurveyJob(store, job));
    total_bytes += surveys.back().total_bytes();
  }
  std::printf("%zu job(s), %llu bytes occupied\n", surveys.size(),
              static_cast<unsigned long long>(total_bytes));
  std::printf("%-16s %8s %8s %8s %14s %14s %14s %7s\n", "job", "ckpts", "latest", "chain",
              "bytes", "stale", "orphaned", "share");
  for (const auto& s : surveys) {
    std::printf("%-16s %8zu %8llu %8zu %14llu %14llu %14llu %6.1f%%\n", s.job.c_str(),
                s.ids.size(),
                static_cast<unsigned long long>(s.ids.empty() ? 0 : s.ids.back()),
                s.live_chain.size(), static_cast<unsigned long long>(s.total_bytes()),
                static_cast<unsigned long long>(s.stale_bytes),
                static_cast<unsigned long long>(s.orphan_bytes),
                total_bytes > 0 ? 100.0 * static_cast<double>(s.total_bytes()) /
                                      static_cast<double>(total_bytes)
                                : 0.0);
  }
  for (const auto& s : surveys) {
    if (s.live_chain.empty()) continue;
    std::printf("recovery chain %s:", s.job.c_str());
    for (const auto id : s.live_chain) {
      std::printf(" %llu", static_cast<unsigned long long>(id));
    }
    if (!s.stale.empty()) {
      std::printf("   (stale:");
      for (const auto id : s.stale) std::printf(" %llu", static_cast<unsigned long long>(id));
      std::printf(")");
    }
    std::printf("\n");
  }
}

// gc: store-wide garbage collection through the service's per-job kernel
// (core::GcStore over core::GcJob). Dry-run prints the same report without
// deleting. Exits 1 if GC refused any job (its newest lineage does not reach
// a full checkpoint, so nothing of that job was deleted).
int GcCommand(storage::ObjectStore& store, const core::GcOptions& options) {
  const auto report = core::GcStore(store, options);
  std::printf("gc%s: keep %zu lineage(s) per job%s\n", report.dry_run ? " (dry run)" : "",
              std::max<std::size_t>(options.keep_lineages, 1),
              options.remove_orphans ? ", removing orphans" : "");
  if (report.jobs.empty()) {
    std::printf("  nothing to collect — every checkpoint is on a kept lineage\n");
    return 0;
  }
  int status = 0;
  for (const auto& jr : report.jobs) {
    if (!jr.refused.empty()) {
      std::printf("  REFUSED %s\n", jr.refused.c_str());
      status = 1;
      continue;
    }
    std::printf("  job %s: %zu stale checkpoint(s)%s, %llu bytes", jr.job.c_str(),
                jr.evicted.size(), report.dry_run ? " would be evicted" : " evicted",
                static_cast<unsigned long long>(jr.bytes_freed));
    if (jr.orphans_removed > 0) {
      std::printf("; %zu orphan(s), %llu bytes", jr.orphans_removed,
                  static_cast<unsigned long long>(jr.orphan_bytes));
    }
    std::printf("\n");
    if (!jr.evicted.empty()) {
      std::printf("    checkpoints:");
      for (const auto id : jr.evicted) {
        std::printf(" %llu", static_cast<unsigned long long>(id));
      }
      std::printf("\n");
    }
  }
  std::printf("  total: %llu bytes %s\n",
              static_cast<unsigned long long>(report.bytes_freed),
              report.dry_run ? "reclaimable" : "reclaimed");
  return status;
}

// shards: coordinated-cut view of a sharded job (core/sharded_checkpoint.h).
// Shows each cut's shard -> sub-checkpoint map, which cut recovery would
// restore from, and the sub-checkpoints newer than the newest cut (the next
// cut in flight, or a torn cut's leftovers — a torn cut is never listed as a
// cut because its COORD object was never written).
int ShardsCommand(storage::ObjectStore& store, const std::string& job) {
  const auto survey = core::SurveyJob(store, job, /*measure_orphans=*/false);
  if (survey.cuts.empty()) {
    std::printf("job %s: no coordinated cuts%s\n", job.c_str(),
                survey.ids.empty() ? "" : " (unsharded job? try the plain forms)");
    return survey.ids.empty() ? 0 : 1;
  }
  std::printf("job %s: %zu coordinated cut(s), %zu sub-checkpoint(s)\n", job.c_str(),
              survey.cuts.size(), survey.ids.size());
  std::uint64_t newest_max_id = 0;
  for (std::size_t i = 0; i < survey.cuts.size(); ++i) {
    const auto& cut = survey.cuts[i];
    const bool newest = i + 1 == survey.cuts.size();
    std::printf("  cut %llu%s: %zu shard(s), dense %llu bytes\n",
                static_cast<unsigned long long>(cut.epoch), newest ? " (newest)" : "",
                cut.shard_map.size(), static_cast<unsigned long long>(cut.dense_bytes));
    for (const auto& e : cut.shard_map) {
      std::uint64_t bytes = 0;
      const auto it = survey.bytes_by_checkpoint.find(e.checkpoint_id);
      if (it != survey.bytes_by_checkpoint.end()) bytes = it->second;
      std::printf("    shard %2u -> checkpoint %llu (%llu bytes)\n", e.shard_id,
                  static_cast<unsigned long long>(e.checkpoint_id),
                  static_cast<unsigned long long>(bytes));
      if (newest) newest_max_id = std::max(newest_max_id, e.checkpoint_id);
    }
  }
  std::vector<std::uint64_t> pending;
  for (const auto id : survey.ids) {
    if (id > newest_max_id) pending.push_back(id);
  }
  if (!pending.empty()) {
    std::printf("  newer than newest cut (in flight or torn-cut leftovers):");
    for (const auto id : pending) std::printf(" %llu", static_cast<unsigned long long>(id));
    std::printf("\n");
  }
  if (!survey.stale.empty()) {
    std::printf("  stale (older cuts' exclusive chains / debris):");
    for (const auto id : survey.stale) {
      std::printf(" %llu", static_cast<unsigned long long>(id));
    }
    std::printf("\n");
  }
  std::printf("  bytes: %llu live | %llu stale\n",
              static_cast<unsigned long long>(survey.live_bytes),
              static_cast<unsigned long long>(survey.stale_bytes));
  return 0;
}

// dlog: per-iteration delta-log view of a job (core/delta_log.h). Every
// segment is fetched and CRC/placement-verified with the same parse the
// scrub plane runs; the replay summary mirrors ReplayDeltaLog's choice —
// newest valid cover as the floor, then the contiguous run of valid raw
// segments above it — without needing a model to apply into.
int DlogCommand(storage::ObjectStore& store, const std::string& job,
                std::uint64_t base, bool have_base) {
  if (!have_base) {
    const auto bases = core::ListDeltaLogBases(store, job);
    if (bases.empty()) {
      std::printf("job %s: no delta logs\n", job.c_str());
      return 0;
    }
    std::printf("job %s: %zu delta log(s)\n", job.c_str(), bases.size());
    std::printf("%12s %10s %8s %12s %14s %8s\n", "base-ckpt", "segments", "covers",
                "last-iter", "bytes", "status");
    int rc = 0;
    for (const auto b : bases) {
      const auto infos = core::InspectDeltaLog(store, job, b);
      std::size_t covers = 0, damaged = 0;
      std::uint64_t bytes = 0, last_iter = 0;
      for (const auto& info : infos) {
        bytes += info.bytes;
        if (info.compacted) ++covers;
        if (!info.valid) ++damaged;
        if (info.valid) last_iter = std::max(last_iter, info.header.last_iteration);
      }
      if (damaged > 0) rc = 1;
      std::printf("%12llu %10zu %8zu %12llu %14llu %8s\n",
                  static_cast<unsigned long long>(b), infos.size(), covers,
                  static_cast<unsigned long long>(last_iter),
                  static_cast<unsigned long long>(bytes), damaged == 0 ? "ok" : "DAMAGED");
    }
    return rc;
  }

  const auto infos = core::InspectDeltaLog(store, job, base);
  if (infos.empty()) {
    std::printf("job %s: checkpoint %llu has no delta log\n", job.c_str(),
                static_cast<unsigned long long>(base));
    return 0;
  }
  std::printf("delta log of checkpoint %llu, job %s: %zu object(s)\n",
              static_cast<unsigned long long>(base), job.c_str(), infos.size());
  std::printf("%8s %-6s %12s %12s %10s %12s  %s\n", "seq", "kind", "first-iter",
              "last-iter", "rows", "bytes", "verdict");
  for (const auto& info : infos) {
    std::printf("%8llu %-6s %12llu %12llu %10llu %12llu  %s\n",
                static_cast<unsigned long long>(info.seq),
                info.compacted ? "cover" : "raw",
                static_cast<unsigned long long>(info.header.first_iteration),
                static_cast<unsigned long long>(info.header.last_iteration),
                static_cast<unsigned long long>(info.rows),
                static_cast<unsigned long long>(info.bytes),
                info.valid ? "sealed" : info.issue.c_str());
  }

  // Replay picture: what ReplayDeltaLog would recover. The newest valid
  // cover is the floor; above it only a contiguous run of valid raw
  // segments counts — the first gap or torn object ends the sealed tail,
  // and everything past it is what `--truncate`-style recovery drops.
  std::uint64_t cover_seq = 0, last_iter = 0;
  bool have_cover = false;
  for (const auto& info : infos) {
    if (info.compacted && info.valid && (!have_cover || info.seq > cover_seq)) {
      cover_seq = info.seq;
      last_iter = info.header.last_iteration;
      have_cover = true;
    }
  }
  std::map<std::uint64_t, const core::DeltaSegmentInfo*> raws;
  for (const auto& info : infos) {
    if (!info.compacted && info.seq > cover_seq) raws[info.seq] = &info;
  }
  std::size_t replayable = have_cover ? 1 : 0;
  std::uint64_t next = cover_seq + 1;
  std::vector<const core::DeltaSegmentInfo*> dropped;
  for (const auto& [seq, info] : raws) {
    if (seq == next && info->valid && dropped.empty()) {
      last_iter = info->header.last_iteration;
      ++replayable;
      ++next;
    } else {
      dropped.push_back(info);
    }
  }
  std::printf("replay: %zu object(s)%s, recovers through iteration %llu\n", replayable,
              have_cover ? " (from cover)" : "", static_cast<unsigned long long>(last_iter));
  for (const auto* info : dropped) {
    std::printf("  beyond the sealed tail (truncation would drop): %s%s%s\n",
                info->key.c_str(), info->valid ? "" : " — ",
                info->valid ? "" : info->issue.c_str());
  }
  return std::all_of(infos.begin(), infos.end(),
                     [](const core::DeltaSegmentInfo& i) { return i.valid; })
             ? 0
             : 1;
}

void DescribeCheckpoint(storage::ObjectStore& store, const std::string& job,
                        std::uint64_t id) {
  const auto m = core::LoadManifest(store, job, id);
  std::printf("checkpoint %llu of job %s\n", static_cast<unsigned long long>(id),
              job.c_str());
  std::printf("  kind:            %s\n", KindName(m.kind));
  if (m.kind == storage::CheckpointKind::kIncremental) {
    std::printf("  parent:          %llu\n", static_cast<unsigned long long>(m.parent_id));
  }
  std::printf("  trainer:         %llu batches / %llu samples\n",
              static_cast<unsigned long long>(m.batches_trained),
              static_cast<unsigned long long>(m.samples_trained));
  std::printf("  quantization:    %s, %d bits (bins=%d ratio=%.2f)\n",
              quant::MethodName(m.quant.method).c_str(), m.quant.bits, m.quant.num_bins,
              m.quant.ratio);
  std::printf("  dense blob:      %llu bytes (%s)\n",
              static_cast<unsigned long long>(m.dense_bytes), m.dense_key.c_str());
  std::printf("  reader state:    %zu bytes\n", m.reader_state.size());
  PrintTimings(m.timings, "  ");
  // Codec throughput: encoded chunk bytes over the stage cpu that produced
  // and shipped them (the production-visible view of the vectorized codec
  // hot path; see bench/codec_hot_path.cpp).
  std::uint64_t chunk_bytes = 0;
  for (const auto& c : m.chunks) chunk_bytes += c.bytes;
  if (m.timings.encode_us > 0 || m.timings.store_us > 0) {
    std::printf("  codec speed:     encode %.1f MB/s | store %.1f MB/s"
                " (chunk bytes / stage cpu; kernels=%s, crc=%s)\n",
                MBps(chunk_bytes, m.timings.encode_us), MBps(chunk_bytes, m.timings.store_us),
                quant::ActiveCodecKernels().name, util::Crc32cImplName());
  }

  // Per (table, shard) chunk breakdown.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<std::uint64_t, std::uint64_t>>
      per_shard;  // (table,shard) -> (rows, bytes)
  for (const auto& c : m.chunks) {
    auto& [rows, bytes] = per_shard[{c.table_id, c.shard_id}];
    rows += c.num_rows;
    bytes += c.bytes;
  }
  std::printf("  chunks:          %zu across %zu shard(s)\n", m.chunks.size(),
              per_shard.size());
  for (const auto& [key, val] : per_shard) {
    std::printf("    table %u shard %u: %llu rows, %llu bytes\n", key.first, key.second,
                static_cast<unsigned long long>(val.first),
                static_cast<unsigned long long>(val.second));
  }
  std::printf("  total bytes:     %llu\n", static_cast<unsigned long long>(m.TotalBytes()));
}

// `tiers`: offline view of a tiered write-back pair (storage/tiered_store.h).
// The near dir is the store dir argument; the far dir is the operand. Prints
// the same per-tier occupancy arithmetic the live service's stats() tracks.
int TiersCommand(storage::FileStore& near_tier, const std::string& far_dir) {
  storage::FileStore far_tier(far_dir);
  const storage::TierSurvey near_survey = storage::SurveyTier(near_tier);
  const storage::TierSurvey far_survey = storage::SurveyTier(far_tier);

  std::printf("near tier (%s)\n", near_tier.root().string().c_str());
  std::printf("  objects:       %llu\n",
              static_cast<unsigned long long>(near_survey.objects));
  std::printf("  bytes:         %llu\n",
              static_cast<unsigned long long>(near_survey.bytes));
  std::printf("  dirty backlog: %llu object(s), %llu bytes%s\n",
              static_cast<unsigned long long>(near_survey.dirty_objects),
              static_cast<unsigned long long>(near_survey.dirty_bytes),
              near_survey.dirty_objects ? "  <- not yet replicated" : "");
  std::printf("far tier (%s)\n", far_dir.c_str());
  std::printf("  objects:       %llu\n",
              static_cast<unsigned long long>(far_survey.objects));
  std::printf("  bytes:         %llu\n",
              static_cast<unsigned long long>(far_survey.bytes));

  // Cross-tier delta: every near object is either dirty (drain pending) or
  // must have a far copy — anything else is a far-tier hole, the one state
  // the write-back protocol promises never to produce.
  std::set<std::string> far_keys;
  for (auto& key : far_tier.List("")) far_keys.insert(std::move(key));
  std::uint64_t clean_without_far = 0;
  std::set<std::string> dirty;
  const std::string dirty_prefix = storage::TieredStore::kDirtyPrefix;
  for (const auto& marker : near_tier.List(dirty_prefix)) {
    dirty.insert(marker.substr(dirty_prefix.size()));
  }
  for (const auto& key : near_tier.List("")) {
    if (key.starts_with(storage::TieredStore::kMetaPrefix)) continue;
    if (!dirty.contains(key) && !far_keys.contains(key)) ++clean_without_far;
  }
  if (clean_without_far != 0) {
    std::printf("  WARNING: %llu clean near object(s) missing from the far "
                "tier (far-tier hole — should be impossible)\n",
                static_cast<unsigned long long>(clean_without_far));
  }

  // Read-path counters survive only across a clean shutdown (the live
  // numbers are in ServiceStats::tier).
  const auto blob = near_tier.Get(storage::TieredStore::kStatsKey);
  std::optional<storage::TierStats> counters;
  if (blob) counters = storage::DecodeShutdownCounters(*blob);
  if (counters) {
    std::printf("read path (as of last clean shutdown)\n");
    std::printf("  near hits:     %llu (%llu bytes)\n",
                static_cast<unsigned long long>(counters->near_hits),
                static_cast<unsigned long long>(counters->near_bytes_read));
    std::printf("  far hits:      %llu (%llu bytes)\n",
                static_cast<unsigned long long>(counters->far_hits),
                static_cast<unsigned long long>(counters->far_bytes_read));
    std::printf("  misses:        %llu\n",
                static_cast<unsigned long long>(counters->misses));
    std::printf("  near hit ratio: %.3f\n", counters->NearHitRatio());
    std::printf("  drained:       %llu object(s), %llu bytes; %llu failure(s)\n",
                static_cast<unsigned long long>(counters->drained_objects),
                static_cast<unsigned long long>(counters->drained_bytes),
                static_cast<unsigned long long>(counters->drain_failures));
    std::printf("  evicted:       %llu object(s), %llu bytes\n",
                static_cast<unsigned long long>(counters->evicted_objects),
                static_cast<unsigned long long>(counters->evicted_bytes));
  } else {
    std::printf("read path: no shutdown counters (crashed or live writer; "
                "live numbers are in ServiceStats::tier)\n");
  }
  return clean_without_far == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s <store-dir> [jobs"
                 " | gc [--dry-run] [--keep N] [--orphans]"
                 " | tiers <far-dir>"
                 " | <job> [checkpoint-id | shards | dlog [base-id]"
                 " | scrub [checkpoint-id]"
                 " | restore [checkpoint-id] [--scrub]]]\n",
                 argv[0]);
    return 2;
  };
  if (argc < 2) return usage();
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    storage::FileStore store(argv[1]);
    if (args.empty()) {
      const auto jobs = core::ListStoreJobs(store);
      if (jobs.empty()) {
        std::printf("no jobs under %s\n", argv[1]);
        return 0;
      }
      for (const auto& job : jobs) DescribeJob(store, job);
      return 0;
    }
    if (args[0] == "jobs") {
      if (args.size() != 1) return usage();
      JobsOverview(store);
      return 0;
    }
    if (args[0] == "gc") {
      core::GcOptions options;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--dry-run") {
          options.dry_run = true;
        } else if (args[i] == "--orphans") {
          options.remove_orphans = true;
        } else if (args[i] == "--keep" && i + 1 < args.size()) {
          options.keep_lineages = std::strtoull(args[++i].c_str(), nullptr, 10);
        } else {
          return usage();
        }
      }
      return GcCommand(store, options);
    }
    if (args[0] == "tiers") {
      if (args.size() != 2) return usage();
      return TiersCommand(store, args[1]);
    }

    const std::string& job = args[0];
    if (args.size() == 1) {
      DescribeJob(store, job);
      return 0;
    }
    if (args[1] == "shards") {
      if (args.size() != 2) return usage();
      return ShardsCommand(store, job);
    }
    if (args[1] == "dlog") {
      if (args.size() > 3) return usage();
      const bool have_base = args.size() == 3;
      const std::uint64_t base =
          have_base ? std::strtoull(args[2].c_str(), nullptr, 10) : 0;
      return DlogCommand(store, job, base, have_base);
    }
    if (args[1] == "scrub" || args[1] == "restore") {
      const bool restore_form = args[1] == "restore";
      bool scrub = !restore_form;
      std::uint64_t id = 0;
      bool have_id = false;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (restore_form && args[i] == "--scrub") {
          scrub = true;
        } else if (!have_id) {
          id = std::strtoull(args[i].c_str(), nullptr, 10);
          have_id = true;
        } else {
          return usage();
        }
      }
      if (!have_id) {
        const auto latest = core::LatestCheckpointId(store, job);
        if (!latest) {
          std::printf("job %s: no checkpoints\n", job.c_str());
          return 0;
        }
        id = *latest;
      }
      if (scrub) return ScrubDrill(store, job, id);
      RestoreDrill(store, job, id);
      return 0;
    }
    if (args.size() == 2) {
      DescribeCheckpoint(store, job, std::strtoull(args[1].c_str(), nullptr, 10));
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
