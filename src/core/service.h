// CheckpointService — the shared, multi-job checkpoint engine.
//
// Check-N-Run is deployed as a fleet service: many concurrent training jobs
// checkpoint against one storage tier and a shared quota (paper §4.4, §7).
// This is the system's front door for that shape. One long-lived,
// job-agnostic service owns every expensive resource exactly once:
//
//   CheckpointService (one per process / storage tier)
//   ├── stage runtime      pipeline::StageExecutor — ONE worker pool for
//   │                      every plane's stages: write Plan/Encode/Store/
//   │                      Commit here, restore Fetch/Decode/Apply and the
//   │                      parallel scrub when those planes run on the
//   │                      service. With ExecutorConfig::auto_tune (default
//   │                      on) a feedback controller re-sizes per-stage
//   │                      worker allotments toward the bottleneck stage;
//   │                      encode_threads/store_threads are the static
//   │                      starting allotments (and the exact static fleet
//   │                      when auto_tune is off). See docs/TUNING.md.
//   ├── chunk scheduler    weighted round-robin across jobs, per-job
//   │                      encoded-chunk budget (queue_capacity)
//   ├── admission gate     service-wide max_inflight_checkpoints plus a
//   │                      per-job cap (JobConfig::max_inflight_checkpoints),
//   │                      both counted in admission units: one checkpoint,
//   │                      or one coordinated cut however many shards it has
//   ├── storage view       RetryingStore → AccountingStore → caller's store
//   │                      (one retry policy, per-job occupancy accounting,
//   │                       optional shared quota, and the lineage index
//   │                       post-commit GC plans from)
//   └── maintenance plane  core::MaintenanceManager: startup reconciliation
//                          (occupancy seeded from the store's manifests),
//                          quota-aware GC/eviction, SimClock-scheduled
//                          background self-scrub (docs/OPERATIONS.md)
//
// Jobs attach with OpenJob(JobConfig) -> JobHandle: a thin per-job object
// holding the modified-row tracker, the incremental policy, the dynamic
// bit-width selector, checkpoint numbering, and the per-job in-order
// commit/lineage state. Submit()/Drain()/stats() live on the handle; the
// training session and the checkpoint engine are separate objects with
// separate lifetimes (core::CheckNRun is now a facade of exactly this:
// service + one handle + the training loop).
//
// Fairness: the encode and store stages pop chunks with weighted
// round-robin across jobs (JobConfig::weight), so one bulky full checkpoint
// cannot starve other jobs' incrementals — a small job's chunks interleave
// with the big job's stream at the configured ratio. Per-job backpressure is
// a reserved encoded-chunk budget: a job may hold at most queue_capacity
// encoded-but-unstored chunks, and an encoder never starts a chunk it has no
// budget for, so a slow job throttles only itself.
//
// Ordering: commits are applied in per-job submission order (a per-job
// reorder buffer on the single commit thread), and the lineage rule is
// per-job — an incremental whose parent failed in flight fails with it.
// Jobs never wait on each other's commits.
//
// Admission: every submission is an admission unit of N checkpoints that
// share one snapshot — N = 1 for Submit/SubmitRaw, one member per shard for
// a coordinated cut (JobHandle::SubmitUnit). A unit takes one service-wide
// grant and one per-job slot, runs its snapshot thunk once on the calling
// thread after the grant, and returns the grant when its last member
// releases it. Every unit takes exactly one whole-model snapshot copy and
// holds its rows only while it holds the grant, so the caps bound snapshot
// memory.
//
// Admission-slot release: by default (release_slot_on_stored) a member
// releases as soon as its last chunk is stored, freeing its snapshot rows
// (only the small dense blob waits for the commit), so the next snapshot
// overlaps the dense+manifest publication tail; commits still land in
// order. A failed member releases when the commit stage retires it. Set it
// to false for the strict mode where the slot is held until the manifest is
// published — the paper's §4.3 non-overlap when max_inflight_checkpoints is
// 1.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_log.h"
#include "core/maintenance.h"
#include "core/pipeline/executor.h"
#include "core/policy.h"
#include "core/snapshot.h"
#include "core/tracking.h"
#include "core/writer.h"
#include "quant/quantizer.h"
#include "quant/selector.h"
#include "storage/accounting_store.h"
#include "storage/manifest.h"
#include "storage/object_store.h"
#include "storage/retrying_store.h"
#include "storage/tiered_store.h"
#include "util/sim_clock.h"

namespace cnr::core {

class CheckpointService;
class JobHandle;

namespace detail {
struct ServiceImpl;
struct JobState;
}  // namespace detail

// One checkpoint write, fully described: what to store (plan + snapshot),
// how to encode it (writer config), and the hooks around publication. The
// unit of work the service's stages operate on; JobHandle::Submit builds one
// from its policy state, and power users (tests, custom writers) hand one
// straight to JobHandle::SubmitRaw.
struct CheckpointRequest {
  std::uint64_t checkpoint_id = 0;
  // Encoding settings; Put retries come from ServiceConfig::put_attempts.
  WriterConfig writer;
  CheckpointPlan plan;
  std::vector<std::uint8_t> reader_state;
  // Invoked on the submitting thread once admission is granted; the trainer
  // is stalled for exactly this call (§4.2).
  std::function<ModelSnapshot()> snapshot_fn;
  // Invoked on the commit thread after the manifest is published (GC hook).
  // A failure here propagates through the future but cannot un-publish the
  // checkpoint.
  std::function<void()> post_commit;
};

// One member of an admission unit, built by the unit's thunk once the unit
// is admitted: the checkpoint to write (its snapshot_fn is not used) and the
// slice of the unit's snapshot it stores.
struct UnitMember {
  CheckpointRequest request;
  ModelSnapshot snapshot;
};

// Runs on the submitting thread after the unit's grant: takes the unit's one
// snapshot and returns its members. The trainer is stalled for this call.
using UnitThunk = std::function<std::vector<UnitMember>()>;

struct ServiceConfig {
  // Starting worker allotments of the encode and store stages on the shared
  // stage runtime. With executor.auto_tune (default on) the controller
  // re-sizes them from the observed stage walls within the same core budget;
  // with auto_tune off these are exactly the static per-stage fleets the
  // knobs always provisioned.
  std::size_t encode_threads = 2;
  std::size_t store_threads = 2;
  // The shared stage runtime: worker budget, auto-tuning, controller tick
  // source (pipeline::ExecutorConfig; set tune_clock to a SimClock for
  // deterministic controller tests).
  pipeline::ExecutorConfig executor;
  // Per-job budget of encoded-but-unstored chunks. The bound is what
  // propagates store backpressure to that job's encoders without letting the
  // job block anyone else's.
  std::size_t queue_capacity = 16;
  // Service-wide bound on concurrently admitted units across all jobs. Each
  // unit holds one whole-model snapshot copy while it holds its grant (a
  // full or incremental checkpoint, or a coordinated cut — which counts once
  // however many shard members it has), so this caps snapshot memory at this
  // many model copies, plus the dense blobs of stored checkpoints awaiting
  // their commit. Per-job overlap is bounded separately by
  // JobConfig::max_inflight_checkpoints.
  std::size_t max_inflight_checkpoints = 4;
  // Return a checkpoint's admission slot when its last chunk is stored
  // (pre-commit) instead of when its manifest is published, freeing its
  // snapshot rows then. Shaves the dense+manifest tail off the next
  // snapshot's critical path; commit order is unaffected.
  bool release_slot_on_stored = true;
  // Attempts per Put before a checkpoint is abandoned (RetryingStore depth).
  int put_attempts = 3;
  // Shared storage quota across all jobs, enforced by the accounting view
  // (storage::QuotaExceeded fails the offending checkpoint unless
  // evict_on_quota frees space first). 0 = unlimited.
  std::uint64_t shared_quota_bytes = 0;

  // --- maintenance plane (docs/OPERATIONS.md) ---
  // Seed the accounting view from the store's existing manifests at
  // construction, so a restarted service reports truthful per-job occupancy
  // in stats() — and enforces the quota against reality — without a single
  // write.
  bool reconcile_on_start = true;
  // When a checkpoint write trips the shared quota, evict stale
  // (off-live-chain) lineages — lowest JobConfig::priority first, oldest
  // first within a job — and retry, instead of failing the checkpoint. Only
  // when nothing evictable remains does QuotaExceeded reach the submitter.
  bool evict_on_quota = true;
  // Simulated clock driving JobConfig::scrub_interval schedules; nullptr
  // disables background self-scrub. Scheduled scrubs run one job at a time
  // on the service's executor. Must outlive the service.
  util::SimClock* maintenance_clock = nullptr;

  // --- tiered write-back storage (storage/tiered_store.h) ---
  // When set, the service interposes a TieredStore between the accounting
  // view and the caller's store: commits land on this fast near tier (a
  // FileStore on NVMe, an InMemoryStore behind a CXL-latency decorator) at
  // device speed and an async drainer on the shared StageExecutor replicates
  // them to the caller's store (the far tier). nullptr = tiering off (every
  // Put goes straight to the caller's store, the pre-tiering behavior). The
  // near store must outlive the service.
  std::shared_ptr<storage::ObjectStore> near_store;
  // Tier tuning (capacity, drain window, workers); used only with near_store.
  storage::TieredStoreConfig tiered;
};

struct JobConfig {
  std::string name = "job0";
  // Weighted round-robin share of the encode/store stages relative to other
  // jobs (>= 1). A job with weight 2 gets two chunks scheduled per round for
  // every one of a weight-1 job.
  std::uint32_t weight = 1;
  // Per-job overlap cap: how many of this job's admission units (checkpoint
  // writes, or coordinated cuts) may be in flight at once. 1 is the paper's
  // strict §4.3 non-overlap for this job.
  std::size_t max_inflight_checkpoints = 1;

  PolicyKind policy = PolicyKind::kIntermittent;
  PolicyOptions policy_options;

  // Quantization. With dynamic_bitwidth, bit-width/method come from the
  // expected restart count (§6.2.1); otherwise `quant` is used as given.
  bool quantize = true;
  bool dynamic_bitwidth = true;
  std::uint64_t expected_restarts = 1;
  quant::QuantConfig quant;

  std::size_t chunk_rows = 512;
  std::uint64_t rng_seed = 7;  // k-means init stream

  // Delete checkpoints not on the newest `keep_checkpoints` recovery chains
  // after each commit (MaintenanceManager::GcAfterCommit, on the commit
  // thread, through the service's retrying store). GC touches only this job;
  // if the job's newest lineage does not reach a full checkpoint it deletes
  // nothing, the commit's future carries the error, and the policy
  // re-baselines.
  bool gc = true;
  std::size_t keep_checkpoints = 1;

  // Quota-eviction order (ServiceConfig::evict_on_quota): under quota
  // pressure, stale lineages of lower-priority jobs are evicted first. Jobs
  // present in the store but never opened on this service default to 0 —
  // abandoned residue goes before any live job's debug lineages.
  std::uint32_t priority = 1;
  // Background self-scrub cadence on the service's maintenance clock
  // (ServiceConfig::maintenance_clock); the job's live chain is re-read and
  // cross-checked through the parallel scrub kernel at least this often.
  // 0 disables scrubbing for this job.
  util::SimTime scrub_interval = 0;

  // Optional: attach the job's model. The handle then owns a
  // ModifiedRowTracker over it (JobHandle::tracker()) and sizes the
  // incremental policy from the model. The model must outlive the handle.
  dlrm::DlrmModel* model = nullptr;
  // Policy sizing when no model is attached; 0 leaves the job without an
  // incremental policy (raw-submission jobs don't need one).
  std::uint64_t total_rows = 0;
};

// Live counters of one job, as seen by the service.
struct JobStats {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_written = 0;  // across committed checkpoints
  std::uint64_t rows_written = 0;
  std::size_t inflight = 0;         // submitted - committed - failed
  std::uint64_t store_bytes = 0;    // occupancy (accounting view, reconciled)
  // This job's backlog inside the stage runtime right now: chunks waiting
  // for an encode worker / for the store link. What the executor's feedback
  // controller watches, surfaced per job for operators.
  std::size_t queued_encode_chunks = 0;
  std::size_t queued_store_chunks = 0;
  // Maintenance-plane counters (MaintenanceManager).
  std::uint64_t scrubs_run = 0;
  std::uint64_t scrub_issues = 0;        // cumulative across scrubs
  std::uint64_t evicted_checkpoints = 0; // lost to quota pressure
  // Codec throughput, accumulated across committed checkpoints from the
  // manifests' StageTimings and chunk byte counts: encode covers
  // quantize+bitpack+CRC cpu, store covers the object-store link. Divide to
  // get bytes/sec — the production-visible counterpart of
  // bench_codec_hot_path.
  std::uint64_t encode_us_total = 0;
  std::uint64_t store_us_total = 0;
  std::uint64_t chunk_bytes_total = 0;   // encoded chunk payload bytes

  double EncodeBytesPerSec() const {
    return encode_us_total ? static_cast<double>(chunk_bytes_total) * 1e6 /
                                 static_cast<double>(encode_us_total)
                           : 0.0;
  }
  double StoreBytesPerSec() const {
    return store_us_total ? static_cast<double>(chunk_bytes_total) * 1e6 /
                                static_cast<double>(store_us_total)
                          : 0.0;
  }
};

struct ServiceStats {
  std::size_t inflight = 0;        // checkpoints across all jobs
  // Admission (ServiceConfig::max_inflight_checkpoints): units holding a
  // service-wide grant now, the most ever held at once (never above the
  // cap), and submitters blocked waiting for a grant or a per-job slot.
  std::size_t admitted = 0;
  std::size_t admitted_peak = 0;
  std::size_t admission_waiters = 0;
  std::uint64_t store_bytes = 0;   // tracked occupancy across all jobs
  std::uint64_t quota_bytes = 0;   // 0 = unlimited
  // The stage runtime's live view: per-stage worker allotment, occupancy,
  // backlog — what the feedback controller decided (cnr_inspect's restore
  // drill prints the restore-plane equivalent).
  pipeline::ExecutorSnapshot executor;
  // Jobs with an open handle, plus store-resident jobs the maintenance plane
  // knows about (reconciled occupancy with no open handle — a restarted
  // service reports them truthfully before anyone re-attaches).
  std::map<std::string, JobStats> jobs;
  // Tiered write-back storage (ServiceConfig::near_store): per-tier
  // occupancy, drain backlog, and hit counters. `tier` is meaningful only
  // when `tiered` is true.
  bool tiered = false;
  storage::TierStats tier;
};

// What JobHandle::Submit decided for an interval: the id and kind are known
// at submission (the policy ran synchronously); the future resolves when the
// checkpoint is valid or carries the failure.
struct SubmittedCheckpoint {
  std::uint64_t checkpoint_id = 0;
  storage::CheckpointKind kind = storage::CheckpointKind::kFull;
  std::future<WriteResult> future;
};

// One training interval's checkpoint input, policy-agnostic: the dirty rows
// the interval produced, the reader state at the interval boundary, and the
// snapshot thunk (runs on the submitting thread once admitted).
struct IntervalSubmission {
  DirtySets interval_dirty;
  std::vector<std::uint8_t> reader_state;
  std::function<ModelSnapshot()> snapshot_fn;
};

// Per-job face of the service. One trainer thread per handle; handles of
// different jobs submit concurrently. Destroying the handle drains the job's
// in-flight checkpoints and detaches the tracker; the handle may outlive the
// service only in the trivial sense that its calls then fail cleanly.
class JobHandle {
 public:
  ~JobHandle();

  JobHandle(const JobHandle&) = delete;
  JobHandle& operator=(const JobHandle&) = delete;

  const std::string& name() const;

  // Policy path: numbers the checkpoint, asks the incremental policy for the
  // plan, picks the effective quantization, and submits. Blocks in the
  // admission gate (service-wide and per-job caps), then runs snapshot_fn on
  // the calling thread — that call is the training stall (§4.2). Requires a
  // policy (JobConfig::model or total_rows).
  SubmittedCheckpoint Submit(IntervalSubmission submission);

  // Raw path: submits a fully built request, bypassing the handle's policy,
  // numbering, and quant selection. A unit of one member whose thunk is
  // request.snapshot_fn.
  std::future<WriteResult> SubmitRaw(CheckpointRequest request);

  // The one admission path. Blocks until the service grants the unit (one
  // service-wide grant, one per-job slot), runs `thunk` once on the calling
  // thread, and submits every member it returns in order; the futures
  // match the members. The grant returns when the last member has stored
  // all its chunks (or failed). If the thunk throws or returns no members,
  // nothing is submitted, the grant returns, and the call throws.
  std::vector<std::future<WriteResult>> SubmitUnit(const UnitThunk& thunk);

  // Opens a per-iteration delta-log stream for this job (core/delta_log.h)
  // on the service's resources: segments encode and store on the shared
  // StageExecutor, writes go through the retrying/accounting storage view
  // (segment bytes count against the shared quota and show in occupancy),
  // scheduled compaction rides the service's maintenance clock when the
  // caller left compaction_clock null. `config.job` is forced to this
  // handle's name. The caller picks base_checkpoint_id (normally the
  // id of the checkpoint just committed), quantization, group-commit and
  // compaction cadence. The returned log must be destroyed (or at least
  // Flush()ed) before the service shuts down.
  std::unique_ptr<DeltaLog> OpenDeltaLog(DeltaLogConfig config);

  // Blocks until none of THIS job's checkpoints are in flight (their futures
  // are ready by then). Other jobs are unaffected.
  void Drain();

  JobStats stats() const;
  std::size_t inflight() const;

  // Dynamic bit-width selector (§6.2.1): effective config of the next
  // checkpoint, and the restart feedback that drives the 8-bit fallback.
  quant::QuantConfig EffectiveQuantConfig() const;
  void OnRestartObserved();
  std::uint64_t observed_restarts() const;

  // Continues checkpoint numbering after a resume; ids must move forward.
  void SetNextCheckpointId(std::uint64_t next_id);

  // The job's modified-row tracker; throws std::logic_error if the job was
  // opened without a model.
  ModifiedRowTracker& tracker();

 private:
  friend class CheckpointService;
  JobHandle(std::shared_ptr<detail::ServiceImpl> impl,
            std::shared_ptr<detail::JobState> job);

  std::shared_ptr<detail::ServiceImpl> impl_;
  std::shared_ptr<detail::JobState> job_;
};

class CheckpointService {
 public:
  // The service checkpoints every job into `store`, wrapped in
  // RetryingStore → AccountingStore per the config. The store must outlive
  // the service.
  explicit CheckpointService(std::shared_ptr<storage::ObjectStore> store,
                             ServiceConfig config = {});
  ~CheckpointService();  // drains every job, then stops the stage workers

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  // Attaches a job. Throws std::invalid_argument if a handle with the same
  // name is already open; a name may be reopened after its handle closed
  // (checkpoint numbering restarts — use SetNextCheckpointId to continue).
  std::unique_ptr<JobHandle> OpenJob(JobConfig config);

  // Blocks until no checkpoint of any job is in flight.
  void DrainAll();

  ServiceStats stats() const;
  std::size_t inflight() const;

  // The decorated store the stages write through (retry + accounting, and
  // the tiered view when near_store is set); what GC and external
  // maintenance against the same tier should use.
  storage::ObjectStore& store();
  // The accounting layer, for per-job occupancy queries.
  const storage::AccountingStore& accounting() const;
  // The tiered write-back layer, or nullptr when ServiceConfig::near_store
  // was not set. Exposed for FlushDrains() and tier_stats().
  storage::TieredStore* tiered_store();

  // The maintenance plane: reconciliation, eviction, scheduled scrub
  // (core/maintenance.h). Owned by the service; also reachable here for
  // on-demand scrubs and stats.
  MaintenanceManager& maintenance();

  // The shared stage runtime. Pass it as RestoreConfig::executor /
  // ScrubConfig::executor to run those planes on the service's worker pool
  // under the same feedback controller.
  pipeline::StageExecutor& executor();

  // Explicit GC with dry-run reporting, over this service's storage view —
  // deletes are seen by the accounting layer, so occupancy stays truthful.
  // Retention honors each open job's keep_checkpoints (MaintenanceManager::Gc).
  GcReport Gc(const GcOptions& options = {});

  const ServiceConfig& config() const;

 private:
  std::shared_ptr<detail::ServiceImpl> impl_;
};

}  // namespace cnr::core
