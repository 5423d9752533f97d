// DeltaLog — per-iteration delta streaming with log compaction.
//
// Check-N-Run's interval checkpointing bounds the recovery point to one
// interval of training; Checkmate-style delta streaming shrinks it to one
// *iteration* by continuously shipping the tracker's touched-row set, and
// CPR's principle — recovery cost scales with what was lost — is preserved
// because recovery replays only the log tail on top of the base checkpoint.
// This plane is the repo's version of that idea:
//
//   DeltaLog (one per job, anchored to one base checkpoint)
//   ├── append path     Append() copies the iteration's touched rows off the
//   │                   model (the per-iteration stall), group-commits them
//   │                   into log segments, and runs encode (quantize →
//   │                   bitpack → CRC, the checkpoint codec kernels) and
//   │                   store as stages on the SHARED StageExecutor — no
//   │                   private threads (CI lint enforces the rule)
//   ├── sealed segments jobs/<job>/dlog/<base>/seg/<seq>: a strictly
//   │                   sequenced header (base checkpoint id, seq, iteration
//   │                   range, row-id range) plus iteration blocks plus the
//   │                   newest iteration's dense (MLP) state plus a
//   │                   trailing CRC-32C — a torn tail is detectable and
//   │                   truncatable, and a segment Put lands only after every
//   │                   lower seq landed, so the durable log never has holes
//   ├── replay          RestoreWithDeltaLog: base restore + log tail, applied
//   │                   in seq/iteration order (last-writer-wins per row),
//   │                   then the newest replayed segment's dense state;
//   │                   stops at the first missing or torn segment and
//   │                   reports exactly how many iterations were recovered
//   └── compaction      folds sealed segments (and the previous cover) into
//                       one compact object at dlog/<base>/compact/<seq>,
//                       keeping only each row's LAST write — record-
//                       preserving: encoded row bytes are copied verbatim,
//                       never re-encoded, so a compacted log replays
//                       bit-identically to the raw log. Scheduled on the
//                       maintenance SimClock (same subscriber idiom as the
//                       GC/scrub plane) or run explicitly via CompactNow().
//
// RPO contract: Append() admits a sealed segment only when fewer than
// `max_inflight_segments` are in flight (helping drain the stages while it
// waits), so with the defaults (group of 1, window of 1) at most one
// iteration is ever non-durable after Append returns — steady-state RPO <= 1
// iteration, tracked as stats().max_unsynced_iterations and gated by
// bench/delta_log.cpp. A store failure latches (FirstError) and rethrows
// from the next Append/Flush; later segments are dropped, never stored over
// the hole.
//
// Bit-identity contract (pinned by tests/core/delta_log_test.cc): for a
// fixed QuantConfig whose codec is a deterministic function of the row bytes
// (kNone and the uniform families), base + replay is bit-identical to a
// dense restore of a checkpoint taken at the same iteration, before and
// after compaction and after any injected crash point. K-means rows are
// deterministic per (seed, base, seq) stream but not across paths, so they
// are covered by the compaction/replay equivalence, not the cross-path
// sweep. See docs/RECOVERY.md for the RPO runbook.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline/executor.h"
#include "core/recovery.h"
#include "core/tracking.h"
#include "dlrm/model.h"
#include "quant/quantizer.h"
#include "storage/manifest.h"
#include "storage/object_store.h"
#include "util/sim_clock.h"
#include "util/sync.h"

namespace cnr::core {

struct DeltaLogConfig {
  std::string job = "job0";
  // The checkpoint this log extends. Replay applies the log on top of a
  // restore of this checkpoint's chain; maintenance treats base + segments
  // as one lineage unit.
  std::uint64_t base_checkpoint_id = 0;
  // Codec of the delta rows (the per-iteration Append overload can override
  // it per iteration; each iteration block records its own config).
  quant::QuantConfig quant;
  // Iterations batched into one segment before it is sealed (group commit).
  // Under store backlog more iterations pile into the next segment anyway;
  // this is the floor.
  std::size_t group_commit_iterations = 1;
  // Admission window: sealed segments allowed in flight at once. Append
  // helps drain the stages until a slot frees, so this bounds both memory
  // and the non-durable iteration count (the RPO).
  std::size_t max_inflight_segments = 1;
  std::uint64_t rng_seed = 7;  // k-means init stream, forked per segment
  // Background compaction cadence on a simulated clock (the maintenance
  // clock); nullptr or 0 disables scheduling — CompactNow() still works.
  util::SimClock* compaction_clock = nullptr;
  util::SimTime compaction_interval = 0;
  // Scheduled compaction runs only when at least this many raw segments are
  // foldable (explicit CompactNow folds from one segment up).
  std::size_t compaction_min_segments = 4;
};

struct DeltaLogStats {
  std::uint64_t iterations_appended = 0;
  std::uint64_t iterations_durable = 0;
  std::uint64_t segments_sealed = 0;   // stored successfully
  std::uint64_t segments_dropped = 0;  // discarded after a latched failure
  std::uint64_t segment_bytes = 0;     // stored segment payload bytes
  std::uint64_t rows_encoded = 0;      // row writes shipped
  // High-water mark of appended-but-not-durable iterations observed right
  // after an Append/Flush sealed work — the measured RPO bound.
  std::uint64_t max_unsynced_iterations = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compaction_failures = 0;
  std::uint64_t segments_folded = 0;     // raw segments folded away
  std::uint64_t rows_dropped = 0;        // superseded row writes compacted out
};

namespace detail {

// Rows one iteration touched in one (table, shard), copied off the model at
// Append time so the trainer can keep mutating.
struct DeltaGroup {
  std::uint32_t table = 0;
  std::uint32_t shard = 0;
  std::uint64_t dim = 0;
  std::vector<std::uint32_t> rows;  // local row ids, strictly ascending
  std::vector<float> adagrad;       // one accumulator per row
  std::vector<float> weights;       // rows.size() * dim, row-major
};

struct DeltaIteration {
  std::uint64_t iteration = 0;
  quant::QuantConfig quant;
  std::vector<DeltaGroup> groups;
  // Dense (MLP) state as of this iteration, SerializeDense bytes. Dense
  // state mutates every batch, so unlike embedding rows it has no dirty
  // set; the segment stores only its newest iteration's copy (<1% of
  // parameters at paper scale) and replay applies the newest segment's.
  std::vector<std::uint8_t> dense;
  std::uint64_t num_rows = 0;
  std::uint64_t min_row = 0;  // global row-id range (valid when num_rows > 0)
  std::uint64_t max_row = 0;
};

// A sealed group of iterations on its way to the encode stage.
struct DeltaSegmentJob {
  std::uint64_t seq = 0;
  std::vector<DeltaIteration> iterations;
};

// Encode-stage output: the full segment object (header + blocks + CRC).
struct EncodedDeltaSegment {
  std::uint64_t seq = 0;
  std::uint64_t iterations = 0;
  std::uint64_t rows = 0;
  bool failed = false;  // encode threw; store stage drops it (and the log)
  std::vector<std::uint8_t> bytes;
};

}  // namespace detail

// The per-job delta streaming plane. One trainer thread calls Append/Flush
// (the JobHandle contract); compaction and stats are safe from any thread.
class DeltaLog {
 public:
  // Stages open on `executor`, which must outlive the log. The store is the
  // job's storage view (pass the service's decorated store so accounting and
  // retries apply).
  DeltaLog(std::shared_ptr<storage::ObjectStore> store,
           pipeline::StageExecutor& executor, DeltaLogConfig config);
  // Flushes what it can (latched failures are dropped, not thrown), then
  // closes the stages and unsubscribes from the compaction clock.
  ~DeltaLog();

  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  // Ships `dirty` — the rows iteration `iteration` touched — as a delta.
  // Copies the rows synchronously (the stall), then encodes and stores in
  // the background. Iterations must be handed in strictly increasing order.
  // Throws any latched store failure; after a throw the log is sealed at its
  // last durable segment (RPO = what was lost).
  void Append(const dlrm::DlrmModel& model, const DirtySets& dirty,
              std::uint64_t iteration);
  void Append(const dlrm::DlrmModel& model, const DirtySets& dirty,
              std::uint64_t iteration, const quant::QuantConfig& quant);

  // Seals any batched iterations and blocks (helping drain) until every
  // sealed segment is durable, then rethrows any latched failure.
  void Flush();

  // Folds the current raw segments (and previous cover) into one compact
  // cover object, last-writer-wins per row, copying encoded bytes verbatim.
  // Publishes the cover with a single Put, then deletes the folded objects —
  // a crash in between leaves a benign overlap replay ignores. Throws on
  // storage failure (the log itself is unaffected).
  void CompactNow();

  DeltaLogStats stats() const;
  const DeltaLogConfig& config() const { return cfg_; }

 private:
  bool DrainEncode();
  bool DrainStore();
  bool DrainCompact();
  void SealLocked() REQUIRES(mu_);
  void AwaitSlot() EXCLUDES(mu_);
  void ScheduleCompaction() EXCLUDES(mu_);
  std::size_t CompactOnce(std::size_t min_raw_segments)
      EXCLUDES(mu_, compact_run_mu_);

  std::shared_ptr<storage::ObjectStore> store_;
  pipeline::StageExecutor& exec_;
  DeltaLogConfig cfg_;

  pipeline::StageExecutor::StageId encode_stage_ = 0;
  pipeline::StageExecutor::StageId store_stage_ = 0;
  pipeline::StageExecutor::StageId compact_stage_ = 0;
  pipeline::StageLane<detail::DeltaSegmentJob> encode_lane_;
  pipeline::StageLane<detail::EncodedDeltaSegment> store_lane_;
  pipeline::StageLane<int> compact_lane_;

  mutable util::Mutex mu_;
  // Serializes compaction runs (an explicit CompactNow against the scheduled
  // compact stage). Never held together with mu_ except via the stats
  // updates CompactOnce makes, which take mu_ under it.
  util::Mutex compact_run_mu_ ACQUIRED_BEFORE(mu_);
  // Iterations batched for the next segment (trainer-thread producer).
  std::vector<detail::DeltaIteration> pending_ GUARDED_BY(mu_);
  std::uint64_t pending_iterations_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::size_t inflight_segments_ GUARDED_BY(mu_) = 0;
  std::uint64_t last_iteration_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  bool compact_queued_ GUARDED_BY(mu_) = false;
  util::SimTime compact_next_due_ GUARDED_BY(mu_) = 0;
  DeltaLogStats stats_ GUARDED_BY(mu_);
  // HelpUntil predicates read these without mu_ (executor-lock context).
  std::atomic<std::size_t> inflight_atomic_{0};
  util::FirstError err_;

  // Store-stage-only reorder state (serial stage: max_workers == 1, so
  // successive drains are executor-fenced; no lock needed).
  std::uint64_t next_put_seq_ = 1;
  std::map<std::uint64_t, detail::EncodedDeltaSegment> held_;
  bool store_failed_ = false;

  std::optional<util::SimClock::SubscriberId> clock_sub_;
};

// ------------------------------------------------------ replay plane --------

// What a delta-log replay recovered (and what it refused to replay).
struct DeltaReplayResult {
  std::uint64_t base_checkpoint_id = 0;
  std::size_t segments_replayed = 0;  // cover counts as one
  bool used_compacted = false;
  // Iteration blocks applied. Compaction may drop fully superseded blocks,
  // so for RPO math use last_iteration: the newest iteration whose delta is
  // recovered (0 = none; the model is exactly the base checkpoint).
  std::uint64_t iterations_replayed = 0;
  std::uint64_t last_iteration = 0;
  std::uint64_t rows_applied = 0;
  std::uint64_t bytes_read = 0;
  // Torn/invalid tail objects observed (CRC or header mismatch, or sealed
  // segments stranded behind a hole). Replay never applies a byte of them.
  std::vector<std::string> torn_keys;
  bool truncated = false;  // torn tail was deleted (truncate_torn)
};

// Replays the delta log of `base_checkpoint_id` onto `model` (which must
// already hold the base restore), oldest first, last-writer-wins. Stops at
// the first missing or invalid segment; with `truncate_torn` the invalid
// tail objects are deleted so the log ends at its last sealed segment.
DeltaReplayResult ReplayDeltaLog(storage::ObjectStore& store, const std::string& job,
                                 std::uint64_t base_checkpoint_id, dlrm::DlrmModel& model,
                                 bool truncate_torn = false);

struct DeltaRestoreResult {
  RestoreResult base;
  DeltaReplayResult replay;
};

// RestoreModel(base) + ReplayDeltaLog in one call: the crash-recovery entry
// point. `base_id` defaults to the newest checkpoint.
DeltaRestoreResult RestoreWithDeltaLog(storage::ObjectStore& store, const std::string& job,
                                       dlrm::DlrmModel& model,
                                       std::optional<std::uint64_t> base_id = std::nullopt,
                                       bool truncate_torn = false);

// ------------------------------------------------------ inspection ----------

// One delta-log object as seen by scrub/inspect: fully parsed and
// CRC-verified without touching a model.
struct DeltaSegmentInfo {
  std::string key;
  std::uint64_t seq = 0;
  bool compacted = false;
  std::uint64_t bytes = 0;
  bool valid = false;
  std::string issue;  // why invalid (empty when valid)
  storage::DeltaSegmentHeader header;  // meaningful when valid
  std::uint64_t rows = 0;              // row writes carried (valid only)
};

// Base checkpoint ids with a delta log under `job`, ascending.
std::vector<std::uint64_t> ListDeltaLogBases(storage::ObjectStore& store,
                                             const std::string& job);

// Every delta-log object of `base`, covers first then raw segments, each
// fetched and verified. The scrub plane and `cnr_inspect dlog` share this.
std::vector<DeltaSegmentInfo> InspectDeltaLog(storage::ObjectStore& store,
                                              const std::string& job,
                                              std::uint64_t base_checkpoint_id);

// Extends a scrub report with checkpoint `base_checkpoint_id`'s delta log:
// every cover and raw segment is fetched, CRC-verified, fully parsed, and
// placement-checked, and the raw tail above the newest valid cover must be
// seq-contiguous (a hole strands the sealed segments behind it — replay
// cannot reach them). Appends to `report` (issues re-canonicalized); the
// maintenance plane's scrubs and `cnr_inspect` both run this after the chain
// scrub, treating base + log as one lineage unit.
void ScrubDeltaLog(storage::ObjectStore& store, const std::string& job,
                   std::uint64_t base_checkpoint_id, pipeline::ScrubReport& report);

}  // namespace cnr::core
