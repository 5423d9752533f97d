#include "core/delta_log.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/pipeline/chunk_codec.h"
#include "quant/kernels.h"
#include "util/crc32.h"

namespace cnr::core {
namespace {

using storage::DeltaSegmentHeader;
using storage::Manifest;

// ---------------------------------------------------------------- wire ------
//
// Segment object layout (after the DeltaSegmentHeader):
//   repeated num_iterations times (ascending iteration):
//     u64   iteration
//     QuantConfig (its own Serialize)
//     u32   num_groups
//     repeated num_groups times:
//       u32 table, u32 shard, u64 dim, u32 num_rows
//       varint-delta local row ids (first = id, rest = gap to predecessor;
//                                   strictly ascending)
//       f32[num_rows] adagrad accumulators
//       num_rows * EncodedRowBytes(cfg, dim) bytes of EncodeRow payloads
//   u32   dense_len, then dense_len bytes of SerializeDense state as of the
//         segment's newest iteration (dense mutates every batch and has no
//         dirty set; replay applies the newest replayed segment's copy)
//   u32 CRC-32C over every preceding byte (header included)
//
// EncodedRowBytes being exact for every method is what lets compaction slice
// and re-emit individual rows without decoding them.

void EncodeIterationBlock(util::Writer& w, const detail::DeltaIteration& it,
                          util::Rng& rng, quant::CodecScratch& scratch) {
  w.Put<std::uint64_t>(it.iteration);
  it.quant.Serialize(w);
  w.Put<std::uint32_t>(static_cast<std::uint32_t>(it.groups.size()));
  for (const auto& g : it.groups) {
    w.Put<std::uint32_t>(g.table);
    w.Put<std::uint32_t>(g.shard);
    w.Put<std::uint64_t>(g.dim);
    w.Put<std::uint32_t>(static_cast<std::uint32_t>(g.rows.size()));
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      w.PutVarint(i == 0 ? g.rows[0] : g.rows[i] - prev);
      prev = g.rows[i];
    }
    w.PutBytes(g.adagrad.data(), g.adagrad.size() * sizeof(float));
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      quant::EncodeRow(w, {g.weights.data() + i * g.dim, g.dim}, it.quant, rng,
                       scratch);
    }
  }
}

detail::EncodedDeltaSegment EncodeSegment(const DeltaLogConfig& cfg,
                                          const detail::DeltaSegmentJob& job) {
  detail::EncodedDeltaSegment out;
  out.seq = job.seq;
  out.iterations = job.iterations.size();

  DeltaSegmentHeader h;
  h.base_checkpoint_id = cfg.base_checkpoint_id;
  h.seq = job.seq;
  h.compacted = false;
  h.num_iterations = static_cast<std::uint32_t>(job.iterations.size());
  bool has_rows = false;
  for (const auto& it : job.iterations) {
    out.rows += it.num_rows;
    if (it.num_rows == 0) continue;
    if (!has_rows) {
      h.min_row = it.min_row;
      h.max_row = it.max_row;
      has_rows = true;
    } else {
      h.min_row = std::min(h.min_row, it.min_row);
      h.max_row = std::max(h.max_row, it.max_row);
    }
  }
  if (!job.iterations.empty()) {
    h.first_iteration = job.iterations.front().iteration;
    h.last_iteration = job.iterations.back().iteration;
  }

  util::Writer w;
  h.Serialize(w);
  // Same derivation as the checkpoint chunk stream: deterministic per
  // (seed, base, seq), so re-encoding a segment (never done in production,
  // but tests rely on it) reproduces identical bytes even for k-means.
  util::Rng rng =
      pipeline::ChunkRng(cfg.rng_seed, cfg.base_checkpoint_id,
                         static_cast<std::size_t>(job.seq));
  quant::CodecScratch& scratch = quant::TlsCodecScratch();
  for (const auto& it : job.iterations) EncodeIterationBlock(w, it, rng, scratch);
  if (job.iterations.empty()) {
    w.Put<std::uint32_t>(0);
  } else {
    const auto& dense = job.iterations.back().dense;
    w.Put<std::uint32_t>(static_cast<std::uint32_t>(dense.size()));
    w.PutBytes(dense.data(), dense.size());
  }
  w.Put<std::uint32_t>(util::Crc32c(w.bytes()));
  out.bytes = w.TakeBytes();
  return out;
}

// Parsed view of one segment; spans alias the source buffer.
struct ParsedGroup {
  std::uint32_t table = 0;
  std::uint32_t shard = 0;
  std::uint64_t dim = 0;
  std::vector<std::uint32_t> rows;
  std::vector<float> adagrad;
  std::size_t row_bytes_each = 0;
  std::span<const std::uint8_t> row_bytes;  // rows.size() * row_bytes_each
};

struct ParsedBlock {
  std::uint64_t iteration = 0;
  quant::QuantConfig quant;
  std::vector<ParsedGroup> groups;
};

struct ParsedSegment {
  DeltaSegmentHeader header;
  std::vector<ParsedBlock> blocks;
  std::span<const std::uint8_t> dense;  // newest iteration's SerializeDense
  std::uint64_t rows = 0;
};

// Full validation of a segment object: trailing CRC first (so any parse
// error after it passes means a *writer* bug, but both are reported as the
// same thing — a torn/invalid object), then header and every block.
ParsedSegment ParseSegment(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) {
    throw util::SerializeError("delta segment: short object");
  }
  const std::size_t payload = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
  if (util::Crc32c(bytes.subspan(0, payload)) != stored) {
    throw util::SerializeError("delta segment: crc mismatch (torn write)");
  }

  util::Reader r(bytes.subspan(0, payload));
  ParsedSegment seg;
  seg.header = DeltaSegmentHeader::Deserialize(r);
  seg.blocks.reserve(seg.header.num_iterations);
  std::uint64_t prev_iteration = 0;
  for (std::uint32_t b = 0; b < seg.header.num_iterations; ++b) {
    ParsedBlock block;
    block.iteration = r.Get<std::uint64_t>();
    if (block.iteration <= prev_iteration) {
      throw util::SerializeError("delta segment: iteration order violated");
    }
    prev_iteration = block.iteration;
    block.quant = quant::QuantConfig::Deserialize(r);
    const auto num_groups = r.Get<std::uint32_t>();
    block.groups.reserve(num_groups);
    for (std::uint32_t gi = 0; gi < num_groups; ++gi) {
      ParsedGroup g;
      g.table = r.Get<std::uint32_t>();
      g.shard = r.Get<std::uint32_t>();
      g.dim = r.Get<std::uint64_t>();
      if (g.dim == 0) throw util::SerializeError("delta segment: zero dim");
      const auto num_rows = r.Get<std::uint32_t>();
      g.rows.reserve(num_rows);
      std::uint64_t prev = 0;
      for (std::uint32_t i = 0; i < num_rows; ++i) {
        const std::uint64_t delta = r.GetVarint();
        const std::uint64_t row = i == 0 ? delta : prev + delta;
        if (i != 0 && delta == 0) {
          throw util::SerializeError("delta segment: row order violated");
        }
        if (row > UINT32_MAX) throw util::SerializeError("delta segment: row id corrupt");
        g.rows.push_back(static_cast<std::uint32_t>(row));
        prev = row;
      }
      g.adagrad.resize(num_rows);
      r.GetBytes(g.adagrad.data(), std::size_t{num_rows} * sizeof(float));
      g.row_bytes_each = quant::EncodedRowBytes(block.quant, g.dim);
      g.row_bytes = r.GetSpan(std::size_t{num_rows} * g.row_bytes_each);
      seg.rows += num_rows;
      block.groups.push_back(std::move(g));
    }
    seg.blocks.push_back(std::move(block));
  }
  const auto dense_len = r.Get<std::uint32_t>();
  seg.dense = r.GetSpan(dense_len);
  if (!r.AtEnd()) throw util::SerializeError("delta segment: trailing bytes");
  return seg;
}

// Header fields must agree with where the object was found — a valid segment
// copied to the wrong key (or a seq/base mixup) must not replay.
void ValidatePlacement(const DeltaSegmentHeader& h, std::uint64_t base,
                       std::uint64_t seq, bool compacted) {
  if (h.base_checkpoint_id != base || h.seq != seq || h.compacted != compacted) {
    throw util::SerializeError("delta segment: header does not match its key");
  }
}

// Applies one iteration block to the model, validating shape first.
std::uint64_t ApplyBlock(dlrm::DlrmModel& model, const ParsedBlock& block,
                         quant::CodecScratch& scratch, std::vector<float>& buf) {
  std::uint64_t applied = 0;
  for (const auto& g : block.groups) {
    if (g.table >= model.num_tables()) {
      throw util::SerializeError("delta segment: table out of range");
    }
    tensor::ShardedEmbedding& table = model.table(g.table);
    if (g.shard >= table.num_shards()) {
      throw util::SerializeError("delta segment: shard out of range");
    }
    if (g.dim != table.dim()) {
      throw util::SerializeError("delta segment: dimension mismatch");
    }
    tensor::EmbeddingTable& shard = table.Shard(g.shard);
    buf.resize(g.dim);
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      if (g.rows[i] >= shard.num_rows()) {
        throw util::SerializeError("delta segment: row out of range");
      }
      util::Reader rr(g.row_bytes.subspan(i * g.row_bytes_each, g.row_bytes_each));
      quant::DecodeRow(rr, block.quant, {buf.data(), g.dim}, scratch);
      shard.RestoreRow(g.rows[i], {buf.data(), g.dim}, g.adagrad[i]);
      ++applied;
    }
  }
  return applied;
}

// "<prefix>(seg|compact)/NNNNNNNNNNNN" -> seq; nullopt for foreign keys.
std::optional<std::uint64_t> SeqFromKey(const std::string& key) {
  const auto slash = key.rfind('/');
  if (slash == std::string::npos || slash + 1 >= key.size()) return std::nullopt;
  std::uint64_t seq = 0;
  for (std::size_t i = slash + 1; i < key.size(); ++i) {
    const char c = key[i];
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

// Splits a dlog/<base>/ listing into seq-ordered cover and raw-segment maps.
void PartitionKeys(const std::vector<std::string>& keys, const std::string& prefix,
                   std::map<std::uint64_t, std::string>& covers,
                   std::map<std::uint64_t, std::string>& raws) {
  const std::string seg_prefix = prefix + "seg/";
  const std::string compact_prefix = prefix + "compact/";
  for (const auto& key : keys) {
    const auto seq = SeqFromKey(key);
    if (!seq) continue;
    if (key.compare(0, seg_prefix.size(), seg_prefix) == 0) {
      raws[*seq] = key;
    } else if (key.compare(0, compact_prefix.size(), compact_prefix) == 0) {
      covers[*seq] = key;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- DeltaLog --

DeltaLog::DeltaLog(std::shared_ptr<storage::ObjectStore> store,
                   pipeline::StageExecutor& executor, DeltaLogConfig config)
    : store_(std::move(store)), exec_(executor), cfg_(std::move(config)) {
  if (!store_) throw std::invalid_argument("DeltaLog: null store");
  if (cfg_.group_commit_iterations == 0) cfg_.group_commit_iterations = 1;
  if (cfg_.max_inflight_segments == 0) cfg_.max_inflight_segments = 1;
  encode_stage_ = exec_.OpenStage(pipeline::TunableStage("dlog-encode", 1),
                                  [this] { return DrainEncode(); });
  store_stage_ = exec_.OpenStage(pipeline::PinnedStage("dlog-store", 1),
                                 [this] { return DrainStore(); });
  compact_stage_ = exec_.OpenStage(pipeline::PinnedStage("dlog-compact", 1),
                                   [this] { return DrainCompact(); });
  compact_next_due_ = cfg_.compaction_interval;
  if (cfg_.compaction_clock && cfg_.compaction_interval > 0) {
    clock_sub_ = cfg_.compaction_clock->Subscribe([this] { ScheduleCompaction(); });
  }
}

DeltaLog::~DeltaLog() {
  if (clock_sub_) cfg_.compaction_clock->Unsubscribe(*clock_sub_);
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  try {
    Flush();
  } catch (...) {
    // A latched store failure surfaces through Append/Flush during normal
    // operation; at teardown the remaining segments are simply dropped.
  }
  exec_.CloseStages({encode_stage_, store_stage_, compact_stage_});
}

void DeltaLog::Append(const dlrm::DlrmModel& model, const DirtySets& dirty,
                      std::uint64_t iteration) {
  Append(model, dirty, iteration, cfg_.quant);
}

void DeltaLog::Append(const dlrm::DlrmModel& model, const DirtySets& dirty,
                      std::uint64_t iteration, const quant::QuantConfig& quant) {
  err_.MaybeRethrow();

  detail::DeltaIteration it;
  it.iteration = iteration;
  it.quant = quant;
  std::uint64_t table_offset = 0;
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    const tensor::ShardedEmbedding& table = model.table(t);
    if (t < dirty.size()) {
      for (std::size_t s = 0; s < table.num_shards() && s < dirty[t].size(); ++s) {
        std::vector<std::uint32_t> rows = dirty[t][s].ToIndices();
        if (rows.empty()) continue;
        const tensor::EmbeddingTable& shard = table.Shard(s);
        detail::DeltaGroup g;
        g.table = static_cast<std::uint32_t>(t);
        g.shard = static_cast<std::uint32_t>(s);
        g.dim = table.dim();
        g.adagrad.reserve(rows.size());
        g.weights.reserve(rows.size() * table.dim());
        for (const std::uint32_t r : rows) {
          const auto row = shard.Row(r);
          g.weights.insert(g.weights.end(), row.begin(), row.end());
          g.adagrad.push_back(shard.AdagradState(r));
          const std::uint64_t global = table_offset + table.LogicalRow(s, r);
          if (it.num_rows == 0) {
            it.min_row = it.max_row = global;
          } else {
            it.min_row = std::min(it.min_row, global);
            it.max_row = std::max(it.max_row, global);
          }
          ++it.num_rows;
        }
        g.rows = std::move(rows);
        it.groups.push_back(std::move(g));
      }
    }
    table_offset += table.num_rows();
  }
  {
    util::Writer dw;
    model.SerializeDense(dw);
    it.dense = dw.TakeBytes();
  }

  bool seal = false;
  {
    util::MutexLock lock(mu_);
    if (iteration <= last_iteration_) {
      throw std::invalid_argument(
          "DeltaLog::Append: iterations must be strictly increasing");
    }
    last_iteration_ = iteration;
    ++stats_.iterations_appended;
    stats_.rows_encoded += it.num_rows;
    pending_.push_back(std::move(it));
    ++pending_iterations_;
    seal = pending_iterations_ >= cfg_.group_commit_iterations;
  }
  if (!seal) return;

  // Admission: help the stages drain until a segment slot frees. This is
  // what bounds the non-durable window (the RPO) — a new segment is sealed
  // only once the previous ones are durable (or the log has failed).
  AwaitSlot();
  {
    util::MutexLock lock(mu_);
    if (!err_.Failed() && pending_iterations_ > 0 &&
        inflight_segments_ < cfg_.max_inflight_segments) {
      SealLocked();
    }
  }
  err_.MaybeRethrow();
}

void DeltaLog::Flush() {
  for (;;) {
    {
      util::MutexLock lock(mu_);
      if (err_.Failed()) break;
      if (pending_iterations_ == 0 && inflight_segments_ == 0) break;
      if (pending_iterations_ > 0 &&
          inflight_segments_ < cfg_.max_inflight_segments) {
        SealLocked();
      }
    }
    exec_.HelpUntil(
        [this] {
          return inflight_atomic_.load(std::memory_order_acquire) == 0 ||
                 err_.Failed();
        },
        {encode_stage_, store_stage_});
  }
  err_.MaybeRethrow();
}

void DeltaLog::SealLocked() {
  detail::DeltaSegmentJob job;
  job.seq = next_seq_++;
  job.iterations = std::move(pending_);
  pending_.clear();
  pending_iterations_ = 0;
  ++inflight_segments_;
  inflight_atomic_.store(inflight_segments_, std::memory_order_release);
  // All sealed-but-not-durable iterations would be lost to a crash right
  // now; the high-water mark is the log's measured RPO bound.
  const std::uint64_t unsynced = stats_.iterations_appended - stats_.iterations_durable;
  stats_.max_unsynced_iterations = std::max(stats_.max_unsynced_iterations, unsynced);
  encode_lane_.Push(std::move(job));
  exec_.Submit(encode_stage_);
}

void DeltaLog::AwaitSlot() {
  const std::size_t max_inflight = cfg_.max_inflight_segments;
  exec_.HelpUntil(
      [this, max_inflight] {
        return inflight_atomic_.load(std::memory_order_acquire) < max_inflight ||
               err_.Failed();
      },
      {encode_stage_, store_stage_});
}

bool DeltaLog::DrainEncode() {
  auto job = encode_lane_.TryPop();
  if (!job) return false;
  detail::EncodedDeltaSegment out;
  try {
    out = EncodeSegment(cfg_, *job);
  } catch (...) {
    err_.Capture();
    out.seq = job->seq;
    out.iterations = job->iterations.size();
    out.failed = true;
    out.bytes.clear();
  }
  // Failed segments still flow downstream: the store stage's in-order
  // sequencer must see every seq to keep the hole-free invariant decidable.
  store_lane_.Push(std::move(out));
  exec_.Submit(store_stage_);
  return true;
}

bool DeltaLog::DrainStore() {
  auto seg = store_lane_.TryPop();
  if (!seg) return false;
  held_.emplace(seg->seq, std::move(*seg));
  // Strict seq order: segment N is stored only after 1..N-1 landed. After
  // any failure the log is sealed at its last durable segment — later
  // segments are dropped, never stored over the hole.
  while (true) {
    auto it = held_.find(next_put_seq_);
    if (it == held_.end()) break;
    detail::EncodedDeltaSegment cur = std::move(it->second);
    held_.erase(it);
    ++next_put_seq_;

    bool stored = false;
    std::uint64_t stored_bytes = 0;
    if (!store_failed_ && !cur.failed) {
      const std::string key = Manifest::DeltaSegmentKey(
          cfg_.job, cfg_.base_checkpoint_id, cur.seq);
      stored_bytes = cur.bytes.size();
      try {
        store_->Put(key, std::move(cur.bytes));
        stored = true;
      } catch (...) {
        err_.Capture();
      }
    }
    if (!stored) store_failed_ = true;

    {
      util::MutexLock lock(mu_);
      if (stored) {
        ++stats_.segments_sealed;
        stats_.segment_bytes += stored_bytes;
        stats_.iterations_durable += cur.iterations;
      } else {
        ++stats_.segments_dropped;
      }
      --inflight_segments_;
      inflight_atomic_.store(inflight_segments_, std::memory_order_release);
    }
  }
  return true;
}

void DeltaLog::ScheduleCompaction() {
  const util::SimTime now = cfg_.compaction_clock->now();
  {
    util::MutexLock lock(mu_);
    if (stop_ || compact_queued_ || now < compact_next_due_) return;
    compact_queued_ = true;
    compact_next_due_ = now + cfg_.compaction_interval;
  }
  compact_lane_.Push(0);
  exec_.Submit(compact_stage_);
}

bool DeltaLog::DrainCompact() {
  auto token = compact_lane_.TryPop();
  if (!token) return false;
  bool stopping = false;
  {
    util::MutexLock lock(mu_);
    stopping = stop_;
  }
  if (!stopping) {
    try {
      CompactOnce(cfg_.compaction_min_segments);
    } catch (...) {
      util::MutexLock lock(mu_);
      ++stats_.compaction_failures;
    }
  }
  util::MutexLock lock(mu_);
  compact_queued_ = false;
  return true;
}

void DeltaLog::CompactNow() { CompactOnce(1); }

std::size_t DeltaLog::CompactOnce(std::size_t min_raw_segments) {
  util::MutexLock run_lock(compact_run_mu_);
  const std::string prefix =
      Manifest::DeltaLogPrefix(cfg_.job, cfg_.base_checkpoint_id);
  std::map<std::uint64_t, std::string> covers, raws;
  PartitionKeys(store_->List(prefix), prefix, covers, raws);

  // Newest valid cover is the fold's floor; invalid covers are skipped (the
  // replay path owns truncation policy, compaction just ignores them).
  struct Owned {
    std::string key;
    std::vector<std::uint8_t> bytes;
    ParsedSegment parsed;
  };
  std::optional<Owned> cover;
  for (auto it = covers.rbegin(); it != covers.rend() && !cover; ++it) {
    auto data = store_->Get(it->second);
    if (!data) continue;
    try {
      Owned o;
      o.key = it->second;
      o.bytes = std::move(*data);
      o.parsed = ParseSegment(o.bytes);
      ValidatePlacement(o.parsed.header, cfg_.base_checkpoint_id, it->first, true);
      cover = std::move(o);
    } catch (const util::SerializeError&) {
      // skip; older cover (or none) backs the fold
    }
  }
  const std::uint64_t cover_seq = cover ? cover->parsed.header.seq : 0;

  // Contiguous run of valid raw segments above the cover. A gap or a torn
  // segment ends the foldable run — everything past it is the (possibly
  // still-being-written) tail, which stays untouched.
  std::vector<Owned> run;
  std::uint64_t expected = cover_seq + 1;
  for (const auto& [seq, key] : raws) {
    if (seq <= cover_seq) continue;
    if (seq != expected) break;
    auto data = store_->Get(key);
    if (!data) break;
    Owned o;
    o.key = key;
    o.bytes = std::move(*data);
    try {
      o.parsed = ParseSegment(o.bytes);
      ValidatePlacement(o.parsed.header, cfg_.base_checkpoint_id, seq, false);
    } catch (const util::SerializeError&) {
      break;
    }
    run.push_back(std::move(o));
    ++expected;
  }
  if (run.size() < std::max<std::size_t>(1, min_raw_segments)) return 0;

  // Last-writer-wins survivor scan, newest block first. Encoded row bytes of
  // survivors are copied verbatim — re-encoding a lossy codec's output would
  // drift, and the whole point is bit-identical replay after compaction.
  std::vector<const ParsedSegment*> fold;
  if (cover) fold.push_back(&cover->parsed);
  for (const auto& o : run) fold.push_back(&o.parsed);

  struct RowRef {
    const ParsedBlock* block;
    const ParsedGroup* group;
    std::size_t index;  // within the group
  };
  std::unordered_set<std::uint64_t> seen;
  // keep[segment][block][group] -> surviving row indices (ascending)
  std::map<const ParsedGroup*, std::vector<std::uint32_t>> survivors;
  std::uint64_t rows_total = 0, rows_kept = 0;
  for (auto seg_it = fold.rbegin(); seg_it != fold.rend(); ++seg_it) {
    for (auto blk_it = (*seg_it)->blocks.rbegin(); blk_it != (*seg_it)->blocks.rend();
         ++blk_it) {
      for (const auto& g : blk_it->groups) {
        for (std::size_t i = 0; i < g.rows.size(); ++i) {
          ++rows_total;
          const std::uint64_t key = (std::uint64_t{g.table} << 48) |
                                    (std::uint64_t{g.shard} << 32) | g.rows[i];
          if (seen.insert(key).second) {
            survivors[&g].push_back(static_cast<std::uint32_t>(i));
            ++rows_kept;
          }
        }
      }
    }
  }
  for (auto& [g, idx] : survivors) std::sort(idx.begin(), idx.end());

  // Emit the new cover: original iteration blocks in order, surviving rows
  // only; empty groups and blocks drop out. The header still claims the full
  // folded iteration range — that is the coverage contract replay relies on.
  const std::uint64_t new_seq = run.back().parsed.header.seq;
  DeltaSegmentHeader h;
  h.base_checkpoint_id = cfg_.base_checkpoint_id;
  h.seq = new_seq;
  h.compacted = true;
  h.first_iteration = fold.front()->header.first_iteration;
  h.last_iteration = fold.back()->header.last_iteration;
  bool has_rows = false;

  struct OutGroup {
    const ParsedGroup* src;
    const std::vector<std::uint32_t>* idx;
  };
  struct OutBlock {
    const ParsedBlock* src;
    std::vector<OutGroup> groups;
  };
  std::vector<OutBlock> out_blocks;
  for (const ParsedSegment* seg : fold) {
    for (const auto& block : seg->blocks) {
      OutBlock ob{&block, {}};
      for (const auto& g : block.groups) {
        auto it = survivors.find(&g);
        if (it == survivors.end() || it->second.empty()) continue;
        ob.groups.push_back({&g, &it->second});
      }
      if (!ob.groups.empty()) out_blocks.push_back(std::move(ob));
    }
    if (seg->header.num_iterations > 0 && seg->rows > 0) {
      if (!has_rows) {
        h.min_row = seg->header.min_row;
        h.max_row = seg->header.max_row;
        has_rows = true;
      } else {
        // Union of the folded ranges: a conservative bound (survivor rows
        // are a subset), still a valid header contract.
        h.min_row = std::min(h.min_row, seg->header.min_row);
        h.max_row = std::max(h.max_row, seg->header.max_row);
      }
    }
  }
  h.num_iterations = static_cast<std::uint32_t>(out_blocks.size());

  util::Writer w;
  h.Serialize(w);
  for (const auto& ob : out_blocks) {
    w.Put<std::uint64_t>(ob.src->iteration);
    ob.src->quant.Serialize(w);
    w.Put<std::uint32_t>(static_cast<std::uint32_t>(ob.groups.size()));
    for (const auto& og : ob.groups) {
      const ParsedGroup& g = *og.src;
      w.Put<std::uint32_t>(g.table);
      w.Put<std::uint32_t>(g.shard);
      w.Put<std::uint64_t>(g.dim);
      w.Put<std::uint32_t>(static_cast<std::uint32_t>(og.idx->size()));
      std::uint32_t prev = 0;
      for (std::size_t i = 0; i < og.idx->size(); ++i) {
        const std::uint32_t row = g.rows[(*og.idx)[i]];
        w.PutVarint(i == 0 ? row : row - prev);
        prev = row;
      }
      for (const std::uint32_t idx : *og.idx) w.Put<float>(g.adagrad[idx]);
      for (const std::uint32_t idx : *og.idx) {
        const auto src = g.row_bytes.subspan(idx * g.row_bytes_each, g.row_bytes_each);
        w.PutBytes(src.data(), src.size());
      }
    }
  }
  // The newest folded segment's dense state carries over verbatim, exactly
  // like surviving row bytes — the cover replays bit-identically.
  const std::span<const std::uint8_t> newest_dense = fold.back()->dense;
  w.Put<std::uint32_t>(static_cast<std::uint32_t>(newest_dense.size()));
  w.PutBytes(newest_dense.data(), newest_dense.size());
  w.Put<std::uint32_t>(util::Crc32c(w.bytes()));

  // One Put publishes the cover atomically; then the folded objects go. A
  // crash in between leaves raw segments <= the cover's seq, which replay
  // and the next compaction both ignore.
  store_->Put(Manifest::DeltaCompactKey(cfg_.job, cfg_.base_checkpoint_id, new_seq),
              w.TakeBytes());
  for (const auto& o : run) store_->Delete(o.key);
  if (cover) store_->Delete(cover->key);
  for (const auto& [seq, key] : raws) {
    if (seq <= cover_seq) store_->Delete(key);  // remnants of an older fold
  }

  {
    util::MutexLock lock(mu_);
    ++stats_.compactions;
    stats_.segments_folded += run.size();
    stats_.rows_dropped += rows_total - rows_kept;
  }
  return run.size();
}

DeltaLogStats DeltaLog::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------- replay ----

DeltaReplayResult ReplayDeltaLog(storage::ObjectStore& store, const std::string& job,
                                 std::uint64_t base_checkpoint_id,
                                 dlrm::DlrmModel& model, bool truncate_torn) {
  DeltaReplayResult res;
  res.base_checkpoint_id = base_checkpoint_id;
  const std::string prefix = Manifest::DeltaLogPrefix(job, base_checkpoint_id);
  std::map<std::uint64_t, std::string> covers, raws;
  PartitionKeys(store.List(prefix), prefix, covers, raws);

  quant::CodecScratch& scratch = quant::TlsCodecScratch();
  std::vector<float> buf;
  std::vector<std::uint8_t> dense;  // newest replayed segment's dense state
  std::uint64_t cover_seq = 0;

  // Newest valid cover first; invalid covers are torn tail objects of an
  // interrupted compaction and fall through to the next older one.
  for (auto it = covers.rbegin(); it != covers.rend(); ++it) {
    auto data = store.Get(it->second);
    if (!data) continue;
    try {
      const ParsedSegment seg = ParseSegment(*data);
      ValidatePlacement(seg.header, base_checkpoint_id, it->first, true);
      for (const auto& block : seg.blocks) {
        res.rows_applied += ApplyBlock(model, block, scratch, buf);
      }
      res.bytes_read += data->size();
      res.iterations_replayed += seg.header.num_iterations;
      res.last_iteration = seg.header.last_iteration;
      dense.assign(seg.dense.begin(), seg.dense.end());
      res.used_compacted = true;
      ++res.segments_replayed;
      cover_seq = seg.header.seq;
      break;
    } catch (const util::SerializeError&) {
      res.torn_keys.push_back(it->second);
    }
  }

  // Raw tail above the cover, strictly contiguous. The first gap, missing
  // object, or torn segment ends the replay; everything listed past it is
  // unreachable (deltas in between are lost) and counts as torn tail.
  bool broken = false;
  std::uint64_t expected = cover_seq + 1;
  for (const auto& [seq, key] : raws) {
    if (seq <= cover_seq) continue;  // folded remnants, superseded by the cover
    if (broken || seq != expected) {
      broken = true;
      res.torn_keys.push_back(key);
      continue;
    }
    auto data = store.Get(key);
    if (!data) {
      broken = true;  // concurrently deleted; nothing to truncate
      continue;
    }
    try {
      const ParsedSegment seg = ParseSegment(*data);
      ValidatePlacement(seg.header, base_checkpoint_id, seq, false);
      if (seg.header.num_iterations > 0 &&
          seg.header.first_iteration <= res.last_iteration) {
        throw util::SerializeError("delta segment: replay order violated");
      }
      for (const auto& block : seg.blocks) {
        res.rows_applied += ApplyBlock(model, block, scratch, buf);
      }
      res.bytes_read += data->size();
      res.iterations_replayed += seg.header.num_iterations;
      if (seg.header.num_iterations > 0) res.last_iteration = seg.header.last_iteration;
      dense.assign(seg.dense.begin(), seg.dense.end());
      ++res.segments_replayed;
      ++expected;
    } catch (const util::SerializeError&) {
      broken = true;
      res.torn_keys.push_back(key);
    }
  }

  // Dense state rides the segments (newest wins): the model's MLPs advance
  // to the replayed tail's iteration, not the base checkpoint's.
  if (!dense.empty()) {
    util::Reader dr(dense);
    model.RestoreDense(dr);
  }

  if (truncate_torn && !res.torn_keys.empty()) {
    for (const auto& key : res.torn_keys) store.Delete(key);
    res.truncated = true;
  }
  return res;
}

DeltaRestoreResult RestoreWithDeltaLog(storage::ObjectStore& store,
                                       const std::string& job, dlrm::DlrmModel& model,
                                       std::optional<std::uint64_t> base_id,
                                       bool truncate_torn) {
  DeltaRestoreResult out;
  out.base = RestoreModel(store, job, model, base_id);
  out.replay =
      ReplayDeltaLog(store, job, out.base.checkpoint_id, model, truncate_torn);
  return out;
}

// ---------------------------------------------------------------- inspect ---

std::vector<std::uint64_t> ListDeltaLogBases(storage::ObjectStore& store,
                                             const std::string& job) {
  const std::string root = Manifest::DeltaLogRoot(job);
  std::vector<std::uint64_t> bases;
  for (const auto& key : store.List(root)) {
    const auto base = Manifest::ParseId(key, root);
    if (base && key.starts_with(Manifest::DeltaLogPrefix(job, *base))) bases.push_back(*base);
  }
  std::sort(bases.begin(), bases.end());
  bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
  return bases;
}

std::vector<DeltaSegmentInfo> InspectDeltaLog(storage::ObjectStore& store,
                                              const std::string& job,
                                              std::uint64_t base_checkpoint_id) {
  const std::string prefix = Manifest::DeltaLogPrefix(job, base_checkpoint_id);
  std::map<std::uint64_t, std::string> covers, raws;
  PartitionKeys(store.List(prefix), prefix, covers, raws);

  std::vector<DeltaSegmentInfo> out;
  const auto inspect = [&](std::uint64_t seq, const std::string& key, bool compacted) {
    DeltaSegmentInfo info;
    info.key = key;
    info.seq = seq;
    info.compacted = compacted;
    auto data = store.Get(key);
    if (!data) {
      info.issue = "missing";
      out.push_back(std::move(info));
      return;
    }
    info.bytes = data->size();
    try {
      const ParsedSegment seg = ParseSegment(*data);
      ValidatePlacement(seg.header, base_checkpoint_id, seq, compacted);
      info.header = seg.header;
      info.rows = seg.rows;
      info.valid = true;
    } catch (const util::SerializeError& e) {
      info.issue = e.what();
    }
    out.push_back(std::move(info));
  };
  for (const auto& [seq, key] : covers) inspect(seq, key, true);
  for (const auto& [seq, key] : raws) inspect(seq, key, false);
  return out;
}

void ScrubDeltaLog(storage::ObjectStore& store, const std::string& job,
                   std::uint64_t base_checkpoint_id, pipeline::ScrubReport& report) {
  const std::string prefix = Manifest::DeltaLogPrefix(job, base_checkpoint_id);
  std::map<std::uint64_t, std::string> covers, raws;
  PartitionKeys(store.List(prefix), prefix, covers, raws);

  // Fetches and verifies one object; true = clean.
  const auto check = [&](std::uint64_t seq, const std::string& key,
                         bool compacted) -> bool {
    ++report.delta_segments_checked;
    std::optional<std::vector<std::uint8_t>> blob;
    try {
      blob = store.Get(key);
    } catch (const std::exception& e) {
      report.issues.push_back({key, std::string("fetch failed: ") + e.what()});
      return false;
    }
    if (!blob) {
      report.issues.push_back({key, "delta segment missing"});
      return false;
    }
    report.bytes_checked += blob->size();
    try {
      const ParsedSegment seg = ParseSegment(*blob);
      ValidatePlacement(seg.header, base_checkpoint_id, seq, compacted);
      report.rows_checked += seg.rows;
      return true;
    } catch (const util::SerializeError& e) {
      report.issues.push_back({key, e.what()});
      return false;
    }
  };

  std::uint64_t cover_seq = 0;
  for (const auto& [seq, key] : covers) {
    if (check(seq, key, true)) cover_seq = std::max(cover_seq, seq);
  }
  // Raw segments at or below a valid cover are folded remnants of an
  // interrupted compaction — verified for rot like everything else, but
  // exempt from the continuity rule (replay ignores them).
  bool hole_reported = false;
  std::uint64_t expected = cover_seq + 1;
  for (const auto& [seq, key] : raws) {
    check(seq, key, false);
    if (seq <= cover_seq) continue;
    if (seq != expected && !hole_reported) {
      report.issues.push_back(
          {"", "delta log of checkpoint " + std::to_string(base_checkpoint_id) +
                   ": hole at seq " + std::to_string(expected) +
                   " strands later segments"});
      hole_reported = true;
    }
    expected = seq + 1;
  }

  std::sort(report.issues.begin(), report.issues.end(),
            [](const pipeline::ScrubIssue& a, const pipeline::ScrubIssue& b) {
              return a.key != b.key ? a.key < b.key : a.what < b.what;
            });
}

}  // namespace cnr::core
