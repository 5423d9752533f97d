// Staged restore pipeline — the read-direction mirror of the service's write
// stages (core/service.h).
//
// Recovery replays a baseline plus a chain of incrementals, and its wall time
// is on the critical path of resuming training (paper §5.1). The monolithic
// read loop (fetch, then decode, then apply, one chunk at a time) leaves the
// storage link idle while the CPU de-quantizes and vice versa; this pipeline
// overlaps them. Stages hand off through unbounded lanes (a stage drain must
// never block on a sibling stage — executor.h's deadlock-freedom rule);
// payload memory is bounded by the feeder's admission windows instead
// (queue_capacity chunks in flight, max_inflight_checkpoints positions of
// look-ahead):
//
//   Resolve ──► Fetch ──► Decode ──► Apply
//   (caller      (N         (M        (serial stage,
//    thread)      workers)   workers)  chain order)
//
// The stage workers are NOT private threads: the pipeline registers its
// Fetch/Decode/Apply stages on a core::pipeline::StageExecutor — the shared
// stage runtime every plane (write, restore, scrub) schedules through. Pass
// RestoreConfig::executor to run a restore on a long-lived, service-owned
// runtime (its feedback controller then arbitrates restore fan-out against
// the write stages); leave it null and the run provisions a private executor
// sized from the chain, exactly as the old per-restore threads were.
//
//   - Resolve: walks parent_id links from the requested checkpoint back to
//     its full baseline and loads every manifest on the chain (caller
//     thread; the chain must be known before any chunk can be named).
//   - Fetch: Gets chunk objects from the store. Transient-fault retry is the
//     storage::RetryingStore decorator's job — the pipeline wraps the
//     caller's store in one (`get_attempts` deep), so a flaky replica costs
//     retries, not a failed restore.
//   - Decode: verifies CRC, parses, and de-quantizes chunks concurrently
//     (chunk_codec.h — the read direction of the same codec the write
//     pipeline encodes with).
//   - Apply: hands decoded chunks to a ChunkApplier. Chain order is enforced
//     the same way the write path enforces in-order commit: a reorder buffer
//     keyed by chain position holds chunks that arrive early, so a newer
//     checkpoint's rows can never be overwritten by an older checkpoint's.
//     Within one checkpoint chunks cover disjoint rows, so their order is
//     free.
//
// Backpressure and look-ahead: every queue is bounded, and the Resolve
// (feeder) thread admits chunk fetches for chain position p only once
// position p - max_inflight_checkpoints has fully applied — the read-side
// analog of the write path's admission gate. This bounds both memory (the
// reorder buffer cannot grow past the look-ahead window) and how far a
// failed restore can have fetched ahead.
//
// Failure semantics: the first error (missing chunk, checksum mismatch,
// exhausted retries, applier error) poisons the run; the remaining stage
// workers drain their queues without doing work, threads join, and the error
// rethrows from RunRestorePipeline. The applier may have absorbed a prefix
// of the chain — same partial-state contract as the synchronous facade, and
// why callers restore into a freshly constructed model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline/chunk_codec.h"
#include "core/pipeline/executor.h"
#include "storage/manifest.h"
#include "storage/object_store.h"

namespace cnr::core::pipeline {

// Per-stage wall and queue-wait times (microseconds) of one restore. The
// read-path sibling of storage::StageTimings; not persisted (a restore has no
// manifest of its own) but surfaced through RestoreResult, the restore bench,
// and cnr_inspect's restore drill. fetch/decode/apply are sums over chunks
// (across workers, so they can exceed the wall); resolve is a single wall.
struct RestoreTimings {
  std::uint64_t resolve_us = 0;       // chain walk + manifest loads
  std::uint64_t fetch_us = 0;         // chunk + dense Get wall (incl. retries)
  std::uint64_t decode_us = 0;        // CRC + parse + de-quantize cpu
  std::uint64_t apply_us = 0;         // in-place row/dense writes
  std::uint64_t fetch_queue_us = 0;   // chunk names waiting for a fetch worker
  std::uint64_t decode_queue_us = 0;  // fetched blobs waiting for a decoder
  std::uint64_t apply_queue_us = 0;   // decoded chunks waiting to apply
                                      // (includes chain-order reorder wait)
  std::uint64_t restore_wall_us = 0;  // entry to return

  // Sum of the per-stage walls: what a fully serial restore would cost. The
  // pipeline's win is restore_wall_us < StageSumUs().
  std::uint64_t StageSumUs() const { return resolve_us + fetch_us + decode_us + apply_us; }
};

// Sink for decoded restore data. ApplyChunk is called from the pipeline's
// single apply thread, strictly in chain order across checkpoints; ApplyDense
// is called once, on the caller thread after every stage worker has joined,
// with the newest manifest's dense blob. Implementations need no locking.
class ChunkApplier {
 public:
  virtual ~ChunkApplier() = default;
  virtual void ApplyChunk(const DecodedChunk& chunk) = 0;
  virtual void ApplyDense(std::span<const std::uint8_t> dense_blob) = 0;
};

struct RestoreConfig {
  // Stage fan-out. 0 (default) = auto: the initial allotment is sized from
  // the chain's chunk count (pipeline::AutoFanOut) and, when auto-tuning is
  // on, the executor's controller re-sizes it from the observed fetch/decode
  // stage walls during the run. An explicit count pins the stage static.
  // ScrubConfig follows the same convention; docs/TUNING.md documents both.
  std::size_t fetch_threads = 0;
  std::size_t decode_threads = 0;
  // In-flight chunk window: how many issued-but-unapplied chunk payloads the
  // restore keeps in memory at once (floored at the stage fan-out — workers
  // must never starve for admitted work). The peak-memory bound the bounded
  // inter-stage queues used to provide, now enforced by the feeder's
  // admission gate (hand-off lanes themselves are unbounded: a drain must
  // never block on a sibling stage — see executor.h).
  std::size_t queue_capacity = 16;
  // How many chain positions the fetch stage may run ahead of the apply
  // stage. 1 serializes checkpoints (stages still overlap within one);
  // 2 (default) fetches checkpoint k+1 while k applies.
  std::size_t max_inflight_checkpoints = 2;
  // RetryingStore depth for every Get this restore issues.
  int get_attempts = 3;
  // Shared stage runtime to schedule the Fetch/Decode/Apply stages on
  // (e.g. a CheckpointService's executor). Null = a private executor for
  // this run, auto-tuned only when the fan-out knobs above are 0.
  StageExecutor* executor = nullptr;
};

struct RestoreOutcome {
  std::vector<std::uint64_t> chain;  // checkpoint ids, oldest first
  std::uint64_t rows_applied = 0;
  std::uint64_t bytes_read = 0;  // chunks + dense blob (same as RestoreModel)
  RestoreTimings timings;
  // Stage-runtime view of THIS restore's fetch/decode/apply stages,
  // captured at the end of the run before they closed (allotments,
  // occupancy — what the controller decided for this plane; pool and
  // rebalance counts are executor-global). Surfaced by cnr_inspect's
  // restore drill.
  ExecutorSnapshot stages;
  // The requested checkpoint's manifest — authoritative trainer progress and
  // reader state for the caller to resume from.
  storage::Manifest newest;
};

// Walks parent_id links from checkpoint `id` back to its full baseline and
// returns every manifest on the chain, oldest first. One manifest read per
// chain link — the single chain walker behind the pipeline's Resolve stage,
// the synchronous facade, and core::ResolveChain. Throws on a missing
// manifest, a self-referencing link, or an absurdly long chain.
std::vector<storage::Manifest> ResolveChainManifests(storage::ObjectStore& store,
                                                     const std::string& job, std::uint64_t id);

// Restores checkpoint `checkpoint_id` of `job` into `applier` with the
// staged pipeline above. Throws on any failure after shutting the stages
// down; see the failure-semantics note in the header comment.
RestoreOutcome RunRestorePipeline(storage::ObjectStore& store, const std::string& job,
                                  std::uint64_t checkpoint_id, ChunkApplier& applier,
                                  const RestoreConfig& config = {});

// One defect a scrub found; `key` is the offending object ("" for
// chain-level problems such as an undecodable manifest).
struct ScrubIssue {
  std::string key;
  std::string what;

  bool operator==(const ScrubIssue&) const = default;
};

struct ScrubReport {
  std::vector<std::uint64_t> chain;  // checkpoint ids scrubbed, oldest first
  std::size_t chunks_checked = 0;
  std::size_t delta_segments_checked = 0;  // dlog objects verified
                                           // (core::ScrubDeltaLog)
  std::uint64_t rows_checked = 0;    // decoded rows across all chunks
  std::uint64_t bytes_checked = 0;   // chunk + dense bytes read
  // Empty == the chain is restorable. Canonically ordered (by key, then
  // message), so reports of the serial and parallel scrubbers over the same
  // store compare equal with ==.
  std::vector<ScrubIssue> issues;

  bool clean() const { return issues.empty(); }
};

// Fan-out of one parallel scrub (ScrubChainParallel): the scrub borrows the
// restore pipeline's fetch/decode stage shape, so the knobs mirror
// RestoreConfig minus the apply stage (a scrub applies nothing).
struct ScrubConfig {
  // 0 (default) = auto-size from the chain's chunk count, controller-adapted
  // during the run — the same convention as RestoreConfig (which see).
  std::size_t fetch_threads = 0;
  std::size_t decode_threads = 0;
  // In-flight chunk window: how many fetched-but-unverified chunks the scrub
  // keeps in memory (the feeder admits more fetches only as verdicts land).
  std::size_t queue_capacity = 16;
  // RetryingStore depth for every Get the scrub issues; a flaky replica
  // costs retries, not a spurious "object missing" verdict.
  int get_attempts = 3;
  // Shared stage runtime for the scrub's fetch/decode stages; null = a
  // private executor for this run. The service's background self-scrub
  // passes its own executor, so scrub I/O competes with (and is arbitrated
  // against) the write stages by the same controller.
  StageExecutor* executor = nullptr;
};

// Store-scrubbing mode of the restore drill: walks checkpoint `id`'s
// recovery chain and cross-checks every chunk's CRC (via the decode kernel),
// its decoded row count and stored size against the manifest, and the dense
// blob's presence and size — without applying a single row. Collects every
// defect instead of throwing, so one rotten chunk does not hide the next,
// and reports each defect once, keyed to the object that has it;
// run it periodically to detect bit rot *before* a real failure needs the
// chain (see `cnr_inspect <dir> <job> scrub` and docs/OPERATIONS.md).
// Serial: one chunk at a time on the calling thread.
ScrubReport ScrubChain(storage::ObjectStore& store, const std::string& job, std::uint64_t id);

// The same verdicts through the staged restore pipeline's fetch/decode
// worker shape: N fetchers overlap the store reads with M decoders' CRC and
// de-quantization work, so scrubbing a large store is bounded by the link,
// not by one thread doing both. Produces a report equal (==) to ScrubChain's
// over the same store; bench/maintenance.cpp measures the speedup. This is
// the kernel behind the service's background self-scrub
// (core::MaintenanceManager) and `cnr_inspect <dir> <job> scrub`.
ScrubReport ScrubChainParallel(storage::ObjectStore& store, const std::string& job,
                               std::uint64_t id, const ScrubConfig& config = {});

}  // namespace cnr::core::pipeline
