#include "core/service.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/pipeline/chunk_codec.h"
#include "core/pipeline/commit.h"
#include "core/pipeline/executor.h"
#include "quant/selector.h"
#include "util/sync.h"
#include "util/wallclock.h"

namespace cnr::core {
namespace detail {

using pipeline::ChunkTask;
using pipeline::StageExecutor;
using pipeline::StageLane;
using util::ElapsedUs;
using util::MutexLock;

// Shared state of one checkpoint travelling through the stages. Stage
// hand-offs happen through lane/scheduler mutexes, so plain fields written
// by an earlier stage are safely read by later ones; only fields touched by
// concurrent workers of the same stage are atomic.
struct Inflight {
  std::shared_ptr<JobState> job;
  // Members of this checkpoint's admission unit still holding its grant
  // (shared by the members); the last to release returns the grant.
  std::shared_ptr<std::atomic<std::size_t>> grant_holders;
  std::uint64_t seq = 0;  // per-job submission order; drives in-order commit
  CheckpointRequest req;
  ModelSnapshot snap;
  std::vector<ChunkTask> tasks;
  storage::Manifest manifest;
  std::promise<WriteResult> promise;
  std::chrono::steady_clock::time_point submit_time;
  std::uint64_t snapshot_us = 0;
  std::uint64_t plan_us = 0;

  std::atomic<std::size_t> remaining{0};
  std::atomic<std::uint64_t> encode_us{0};
  std::atomic<std::uint64_t> store_us{0};
  std::atomic<std::uint64_t> encode_queue_us{0};
  std::atomic<std::uint64_t> store_queue_us{0};

  std::atomic<bool> slot_released{false};
  util::FirstError error;  // first failure wins; Failed() is the fast path
};

struct PlanJob {
  std::shared_ptr<Inflight> ckpt;
};
struct EncodeJob {
  std::shared_ptr<Inflight> ckpt;
  std::size_t index = 0;
  std::chrono::steady_clock::time_point enqueued;
};
struct StoreJob {
  std::shared_ptr<Inflight> ckpt;
  std::size_t index = 0;
  storage::ChunkInfo info;
  std::vector<std::uint8_t> bytes;
  std::chrono::steady_clock::time_point enqueued;
};
struct CommitJob {
  std::shared_ptr<Inflight> ckpt;
};

struct JobState {
  explicit JobState(JobConfig c) : cfg(std::move(c)) {}

  JobConfig cfg;

  // --- guarded by ServiceImpl::mu_ ---
  std::size_t admitted = 0;    // admission units holding a per-job slot
  std::size_t outstanding = 0; // submitted, not yet committed/failed
  std::uint64_t next_seq = 0;
  JobStats stats;

  // --- guarded by ServiceImpl::sched_mu_ ---
  std::deque<EncodeJob> encode_lane;
  std::deque<StoreJob> store_lane;
  std::size_t store_budget_used = 0;  // encoded-but-unstored chunk budget
  std::uint32_t encode_credit = 0;    // weighted round-robin credits
  std::uint32_t store_credit = 0;

  // --- commit stage only (serial on the executor) ---
  std::map<std::uint64_t, std::shared_ptr<Inflight>> reorder;
  std::uint64_t next_commit = 0;
  std::vector<std::uint64_t> failed_ids;

  // --- guarded by policy_mu (the job's trainer thread + commit stage) ---
  mutable util::Mutex policy_mu;
  std::optional<IncrementalPolicy> policy GUARDED_BY(policy_mu);
  std::unique_ptr<ModifiedRowTracker> tracker GUARDED_BY(policy_mu);
  std::uint64_t next_checkpoint_id GUARDED_BY(policy_mu) = 1;
  std::uint64_t observed_restarts GUARDED_BY(policy_mu) = 0;
};

struct ServiceImpl {
  // NB: `cfg` is declared before the executor, so the stage registrations in
  // the body read the already-initialized member, not the moved-from
  // parameter.
  ServiceImpl(std::shared_ptr<storage::ObjectStore> base_store, ServiceConfig config)
      : cfg(std::move(config)), base(std::move(base_store)), exec(cfg.executor) {
    if (!base) throw std::invalid_argument("CheckpointService: null store");
    if (cfg.max_inflight_checkpoints == 0) {
      throw std::invalid_argument("CheckpointService: max_inflight_checkpoints == 0");
    }
    cfg.encode_threads = std::max<std::size_t>(cfg.encode_threads, 1);
    cfg.store_threads = std::max<std::size_t>(cfg.store_threads, 1);
    cfg.queue_capacity = std::max<std::size_t>(cfg.queue_capacity, 1);
    if (cfg.put_attempts < 1) {
      throw std::invalid_argument("CheckpointService: put_attempts < 1");
    }

    // Tiered write-back (off by default): interpose the near/far decorator
    // between accounting and the caller's store, so stage Puts land on the
    // near tier at device speed and the drain stage (on this executor)
    // replicates them to the caller's store. Accounting sits ABOVE the
    // decorator: logical occupancy and the quota see each object once; the
    // drainer's far Puts are replication, not new logical bytes.
    std::shared_ptr<storage::ObjectStore> stack = base;
    if (cfg.near_store) {
      tiered = std::make_shared<storage::TieredStore>(cfg.near_store, base, exec,
                                                      cfg.tiered);
      stack = tiered;
    }
    try {
      accounting =
          std::make_shared<storage::AccountingStore>(stack, cfg.shared_quota_bytes);
      storage::RetryPolicy retry_policy;
      retry_policy.max_attempts = cfg.put_attempts;
      store = std::make_shared<storage::RetryingStore>(accounting, retry_policy);

    // The write plane's stages on the shared runtime. One pool serves all of
    // them (plus the restore/scrub stages of whatever plane runs on this
    // service); the pool is sized to the sum of the initial allotments
    // unless cfg.executor.max_workers caps it lower. Plan and commit are
    // pinned serial (per-job in-order commit, lock-free reorder state);
    // encode/store start from the static knobs and the controller moves
    // allotment between them, floor 1.
    plan_stage = exec.OpenStage(pipeline::PinnedStage("plan"), [this] { return DrainPlan(); });
    encode_stage = exec.OpenStage(pipeline::TunableStage("encode", cfg.encode_threads),
                                  [this] { return DrainEncode(); });
    store_stage = exec.OpenStage(pipeline::TunableStage("store", cfg.store_threads),
                                 [this] { return DrainStore(); });
    commit_stage =
        exec.OpenStage(pipeline::PinnedStage("commit"), [this] { return DrainCommit(); });

    MaintenanceConfig mcfg;
    mcfg.evict_on_quota = cfg.evict_on_quota;
    mcfg.clock = cfg.maintenance_clock;
    mcfg.executor = &exec;
    maintenance = std::make_unique<MaintenanceManager>(accounting, store, mcfg);
    // Startup reconciliation: attribute the store's pre-existing lineages
    // before any stage worker runs, so stats() and the quota see reality
    // from the first submit on.
    if (cfg.reconcile_on_start) maintenance->ReconcileAll();
    } catch (...) {
      // A throw after the tiered layer opened its drain stage would destroy
      // the executor before the decorator's shared_ptr chain releases it —
      // close the stage now, while the executor is alive.
      if (tiered) tiered->Shutdown();
      throw;
    }
  }

  ~ServiceImpl() { Shutdown(); }

  // ------------------------------------------------------------ lifecycle --

  void WaitIdle() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (total_outstanding != 0) admit_cv_.Wait(mu_);
  }

  void Shutdown() {
    // `stopping` goes up BEFORE the idle wait: a Submit that won admission
    // already holds total_outstanding (so WaitIdle covers it and the stages
    // stay open until it retires), and one that has not yet been admitted
    // must fail loudly at the gate — never slip between idle and stage
    // close, where its work would strand and its future never resolve.
    {
      MutexLock lock(mu_);
      if (stopping) return;  // idempotent
      stopping = true;
    }
    admit_cv_.NotifyAll();
    WaitIdle();
    // Quiesce and unregister the write plane's stages. The maintenance
    // plane's scrub stage closes in ~MaintenanceManager (destroyed before
    // the executor, which is destroyed before the stores — member order).
    exec.CloseStages({plan_stage, encode_stage, store_stage, commit_stage});
    // Tiered layer last among the stage owners: with the write plane closed
    // no new Puts arrive, so this drains the remaining backlog to the far
    // tier and closes the drain stage while the executor is still alive.
    // (The decorator outlives the executor through accounting's shared_ptr;
    // its destructor's Shutdown is a no-op after this.)
    if (tiered) tiered->Shutdown();
  }

  // ------------------------------------------------------------ admission --

  std::vector<std::future<WriteResult>> SubmitUnit(const std::shared_ptr<JobState>& job,
                                                   const UnitThunk& thunk) {
    // Admission: the overlap policy. With a per-job cap of 1 (and slot
    // release at commit) this wait IS the §4.3 non-overlap rule for the job;
    // the service-wide cap bounds snapshot memory across all jobs. Until the
    // thunk says how many members the unit has, it counts as one
    // outstanding checkpoint, so a Shutdown waits for it.
    {
      MutexLock lock(mu_);
      ++admission_waiters;
      while (!stopping && !(total_admitted < cfg.max_inflight_checkpoints &&
                            job->admitted < job->cfg.max_inflight_checkpoints)) {
        admit_cv_.Wait(mu_);
      }
      --admission_waiters;
      if (stopping) throw std::runtime_error("CheckpointService: stopped");
      ++total_admitted;
      admitted_peak = std::max(admitted_peak, total_admitted);
      ++total_outstanding;
      ++job->admitted;
      ++job->outstanding;
    }

    // Snapshot stage: runs on the submitting (trainer) thread — this is the
    // training stall of §4.2, and the only work the trainer ever does for
    // the unit.
    std::vector<UnitMember> members;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      members = thunk();
      if (members.empty()) {
        throw std::invalid_argument("CheckpointService::SubmitUnit: the unit has no members");
      }
    } catch (...) {
      {
        MutexLock lock(mu_);
        --total_admitted;
        --total_outstanding;
        --job->admitted;
        --job->outstanding;
      }
      admit_cv_.NotifyAll();
      throw;
    }
    const std::uint64_t snapshot_us = ElapsedUs(t0);

    auto grant_holders = std::make_shared<std::atomic<std::size_t>>(members.size());
    std::vector<std::shared_ptr<Inflight>> ckpts;
    std::vector<std::future<WriteResult>> futures;
    ckpts.reserve(members.size());
    futures.reserve(members.size());
    for (UnitMember& member : members) {
      auto ckpt = std::make_shared<Inflight>();
      ckpt->job = job;
      ckpt->grant_holders = grant_holders;
      ckpt->req = std::move(member.request);
      ckpt->snap = std::move(member.snapshot);
      ckpt->snapshot_us = snapshot_us;
      ckpt->submit_time = t0;
      futures.push_back(ckpt->promise.get_future());
      ckpts.push_back(std::move(ckpt));
    }
    {
      MutexLock lock(mu_);
      // The unit's placeholder becomes one outstanding count per member.
      total_outstanding += ckpts.size() - 1;
      job->outstanding += ckpts.size() - 1;
      job->stats.submitted += ckpts.size();
      for (const auto& ckpt : ckpts) ckpt->seq = job->next_seq++;
    }
    for (auto& ckpt : ckpts) plan_lane.Push(PlanJob{std::move(ckpt)});
    exec.Submit(plan_stage, futures.size());
    return futures;
  }

  // Releases the checkpoint's hold on its unit's grant; safe to call more
  // than once. The last member to release returns the grant.
  void ReleaseSlot(Inflight& ckpt) {
    if (ckpt.slot_released.exchange(true)) return;
    if (ckpt.grant_holders->fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    {
      MutexLock lock(mu_);
      --total_admitted;
      --ckpt.job->admitted;
    }
    admit_cv_.NotifyAll();
  }

  // Every chunk of the checkpoint is stored: the encoders are done with the
  // snapshot's rows (and the tasks pointing into them) and the commit needs
  // only the dense blob, so the rows are freed as the member releases. A
  // unit's model copy never outlives its grant in either release mode.
  void ReleaseStored(Inflight& ckpt) {
    ckpt.tasks = {};
    ckpt.snap.shards = {};
    ReleaseSlot(ckpt);
  }

  // ------------------------------------------------------------ scheduler --

  // Weighted round-robin pick across job lanes. Serves up to `weight` items
  // of a job per round; a round ends when every eligible job is out of
  // credit, at which point all credits refill. For the encode stage a job is
  // eligible only while it has store budget left, so an encoder never
  // produces bytes that would pile up unboundedly — a backlogged job
  // throttles itself, never its neighbors.
  JobState* PickWrrLocked(bool encode_stage_pick) REQUIRES(sched_mu_) {
    auto eligible = [&](JobState& j) {
      if (encode_stage_pick) {
        return !j.encode_lane.empty() && j.store_budget_used < cfg.queue_capacity;
      }
      return !j.store_lane.empty();
    };
    if (lanes.empty()) return nullptr;
    std::size_t& cursor = encode_stage_pick ? encode_cursor : store_cursor;
    for (int pass = 0; pass < 2; ++pass) {
      bool any_eligible = false;
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        const std::size_t idx = (cursor + k) % lanes.size();
        JobState& j = *lanes[idx];
        if (!eligible(j)) continue;
        any_eligible = true;
        std::uint32_t& credit = encode_stage_pick ? j.encode_credit : j.store_credit;
        if (credit == 0) continue;
        --credit;
        cursor = credit == 0 ? (idx + 1) % lanes.size() : idx;
        return &j;
      }
      if (!any_eligible) return nullptr;
      for (auto& j : lanes) {  // new round: refill every job's credit
        (encode_stage_pick ? j->encode_credit : j->store_credit) =
            std::max<std::uint32_t>(j->cfg.weight, 1);
      }
    }
    return nullptr;  // unreachable: the refilled pass always serves someone
  }

  // Non-blocking pops for the stage drains. An empty pick is fine: the
  // executor unit is consumed, and whoever makes a job eligible again (a
  // plan fan-out, or a store pop freeing encode budget) submits fresh units.
  std::optional<EncodeJob> TryPopEncode() EXCLUDES(sched_mu_) {
    MutexLock lock(sched_mu_);
    JobState* pick = PickWrrLocked(/*encode_stage_pick=*/true);
    if (!pick) return std::nullopt;
    ++pick->store_budget_used;  // reserve the downstream slot up front
    EncodeJob job = std::move(pick->encode_lane.front());
    pick->encode_lane.pop_front();
    return job;
  }

  std::optional<StoreJob> TryPopStore() {
    std::optional<StoreJob> job;
    {
      MutexLock lock(sched_mu_);
      JobState* pick = PickWrrLocked(/*encode_stage_pick=*/false);
      if (!pick) return std::nullopt;
      job = std::move(pick->store_lane.front());
      pick->store_lane.pop_front();
      --pick->store_budget_used;
    }
    // Freed one encoded-chunk budget slot: an encode unit that was consumed
    // while its job was over budget becomes drainable again — kick.
    exec.Submit(encode_stage);
    return job;
  }

  void ReleaseStoreBudget(JobState& job) EXCLUDES(sched_mu_) {
    {
      MutexLock lock(sched_mu_);
      --job.store_budget_used;
    }
    exec.Submit(encode_stage);  // same kick as TryPopStore
  }

  // ------------------------------------------------------------ stages -----

  void PushCommit(std::shared_ptr<Inflight> ckpt) {
    commit_lane.Push(CommitJob{std::move(ckpt)});
    exec.Submit(commit_stage);
  }

  bool DrainPlan() {
    auto job = plan_lane.TryPop();
    if (!job) return false;
    const std::shared_ptr<Inflight> ckpt = std::move(job->ckpt);
    try {
      const auto t0 = std::chrono::steady_clock::now();
      ckpt->tasks =
          pipeline::BuildChunkTasks(ckpt->snap, ckpt->req.plan, ckpt->req.writer.chunk_rows);
      ckpt->manifest = pipeline::MakeManifestSkeleton(
          ckpt->req.checkpoint_id, ckpt->req.plan, ckpt->snap, ckpt->req.writer.quant,
          std::move(ckpt->req.reader_state), ckpt->tasks.size());
      ckpt->manifest.timings.snapshot_us = ckpt->snapshot_us;
      ckpt->plan_us = ElapsedUs(t0);
      ckpt->remaining.store(ckpt->tasks.size(), std::memory_order_release);
    } catch (...) {
      ckpt->error.Capture();
      PushCommit(ckpt);
      return true;
    }
    if (ckpt->tasks.empty()) {
      // Nothing dirty this interval: the checkpoint is dense blob +
      // manifest, and trivially "all chunks stored".
      if (cfg.release_slot_on_stored) ReleaseStored(*ckpt);
      PushCommit(ckpt);
      return true;
    }
    const std::size_t n_tasks = ckpt->tasks.size();
    {
      // Lanes are unbounded descriptors (the heavy memory — snapshots and
      // encoded bytes — is bounded by admission and the store budget), so
      // one job's backlog never blocks planning for the others.
      MutexLock lock(sched_mu_);
      auto& lane = ckpt->job->encode_lane;
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n_tasks; ++i) {
        lane.push_back(EncodeJob{ckpt, i, now});
      }
    }
    exec.Submit(encode_stage, n_tasks);
    return true;
  }

  bool DrainEncode() {
    auto job = TryPopEncode();
    if (!job) return false;
    const std::shared_ptr<Inflight>& ckpt = job->ckpt;
    ckpt->encode_queue_us.fetch_add(ElapsedUs(job->enqueued), std::memory_order_relaxed);
    if (ckpt->error.Failed()) {
      ReleaseStoreBudget(*ckpt->job);
      FinishChunk(ckpt);
      return true;
    }
    try {
      const ChunkTask& task = ckpt->tasks[job->index];
      util::Rng rng = pipeline::ChunkRng(ckpt->req.writer.rng_seed, ckpt->req.checkpoint_id,
                                         job->index);
      const auto t0 = std::chrono::steady_clock::now();
      auto bytes = pipeline::EncodeChunkTask(task, ckpt->req.writer.quant, rng);
      ckpt->encode_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);

      storage::ChunkInfo info = pipeline::MakeChunkInfo(task, ckpt->req.writer.job,
                                                        ckpt->req.checkpoint_id, bytes.size());
      {
        MutexLock lock(sched_mu_);
        ckpt->job->store_lane.push_back(StoreJob{ckpt, job->index, std::move(info),
                                                 std::move(bytes),
                                                 std::chrono::steady_clock::now()});
      }
      exec.Submit(store_stage);
    } catch (...) {
      ckpt->error.Capture();
      ReleaseStoreBudget(*ckpt->job);
      FinishChunk(ckpt);
    }
    return true;
  }

  bool DrainStore() {
    auto job = TryPopStore();
    if (!job) return false;
    const std::shared_ptr<Inflight>& ckpt = job->ckpt;
    ckpt->store_queue_us.fetch_add(ElapsedUs(job->enqueued), std::memory_order_relaxed);
    if (!ckpt->error.Failed()) {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        if (cfg.evict_on_quota && cfg.shared_quota_bytes > 0) {
          // Quota pressure evicts stale lineages and retries (paper §7's
          // multi-tenant trade-off: a stale debug lineage is worth less than
          // a live job's next checkpoint). The payload must survive a quota
          // rejection for the retry, so each attempt donates a copy. With no
          // quota configured, QuotaExceeded is impossible and the move path
          // below avoids the copy.
          maintenance->WithQuotaEviction(ckpt->req.writer.job, job->bytes.size(), [&] {
            store->Put(job->info.key, std::vector<std::uint8_t>(job->bytes));
          });
        } else {
          store->Put(job->info.key, std::move(job->bytes));
        }
        ckpt->store_us.fetch_add(ElapsedUs(t0), std::memory_order_relaxed);
        // Chunk slots are disjoint per job index, so no lock is needed.
        ckpt->manifest.chunks[job->index] = std::move(job->info);
      } catch (...) {
        ckpt->error.Capture();
      }
    }
    FinishChunk(ckpt);
    return true;
  }

  void FinishChunk(const std::shared_ptr<Inflight>& ckpt) {
    if (ckpt->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // All chunks stored (or drained after a failure): optionally return
      // the admission slot now — the dense+manifest tail happens off the
      // next snapshot's critical path. Failed checkpoints keep their slot
      // until the commit stage retires them.
      if (cfg.release_slot_on_stored && !ckpt->error.Failed()) {
        ReleaseStored(*ckpt);
      }
      PushCommit(ckpt);
    }
  }

  bool DrainCommit() {
    // Commits are applied strictly in per-job submission (seq) order: an
    // incremental checkpoint must never be published before its parent's
    // fate is known. Jobs reorder independently — a slow checkpoint of one
    // job never delays another job's commit. The commit stage is serial on
    // the executor, so the reorder state needs no lock.
    auto job = commit_lane.TryPop();
    if (!job) return false;
    // Pin the job state: the moment CommitOne retires the last
    // outstanding checkpoint, a draining ~JobHandle may unregister and
    // release the JobState — the loop bookkeeping below must not outlive
    // the pin.
    const std::shared_ptr<JobState> state = job->ckpt->job;
    state->reorder.emplace(job->ckpt->seq, std::move(job->ckpt));
    while (!state->reorder.empty() &&
           state->reorder.begin()->first == state->next_commit) {
      auto ckpt = std::move(state->reorder.begin()->second);
      state->reorder.erase(state->reorder.begin());
      CommitOne(ckpt);
      ++state->next_commit;
    }
    return true;
  }

  void NotifyPolicyCheckpointFailed(JobState& job) {
    MutexLock lock(job.policy_mu);
    if (job.policy) job.policy->OnCheckpointFailed();
  }

  void Retire(const std::shared_ptr<Inflight>& ckpt, WriteResult* result,
              std::exception_ptr error) {
    {
      MutexLock lock(mu_);
      JobStats& stats = ckpt->job->stats;
      if (result) {
        ++stats.committed;
        stats.bytes_written += result->bytes_written;
        stats.rows_written += result->rows_written;
        stats.encode_us_total += result->timings.encode_us;
        stats.store_us_total += result->timings.store_us;
        for (const auto& c : result->manifest.chunks) stats.chunk_bytes_total += c.bytes;
      } else {
        ++stats.failed;
      }
    }
    // Fulfill the promise before the final outstanding decrement, so a
    // Drain() that wakes on outstanding == 0 always finds ready futures.
    if (result) {
      ckpt->promise.set_value(std::move(*result));
    } else {
      ckpt->promise.set_exception(std::move(error));
    }
    ReleaseSlot(*ckpt);  // no-op if already released at all-chunks-stored
    {
      MutexLock lock(mu_);
      --total_outstanding;
      --ckpt->job->outstanding;
    }
    admit_cv_.NotifyAll();
  }

  void CommitOne(const std::shared_ptr<Inflight>& ckpt) {
    JobState& job = *ckpt->job;
    // Lineage rule (per job): an incremental whose parent failed while both
    // were in flight must fail too — publishing it would leave recovery a
    // chain with a hole in it.
    if (!ckpt->error.Failed() &&
        ckpt->manifest.kind == storage::CheckpointKind::kIncremental &&
        std::find(job.failed_ids.begin(), job.failed_ids.end(), ckpt->manifest.parent_id) !=
            job.failed_ids.end()) {
      ckpt->error.Set(std::make_exception_ptr(std::runtime_error(
          "checkpoint " + std::to_string(ckpt->req.checkpoint_id) + ": parent checkpoint " +
          std::to_string(ckpt->manifest.parent_id) + " failed in flight")));
    }

    if (ckpt->error.Failed()) {
      job.failed_ids.push_back(ckpt->req.checkpoint_id);
      // The failed checkpoint may be the baseline or a chain link future
      // incrementals would parent on; the policy forgets its baseline and
      // plans a fresh full checkpoint next, before the failure is even
      // observed through the future.
      NotifyPolicyCheckpointFailed(job);
      Retire(ckpt, nullptr, ckpt->error.Get());
      return;
    }

    WriteResult result;
    try {
      const auto t0 = std::chrono::steady_clock::now();
      ckpt->manifest.timings.plan_us = ckpt->plan_us;
      ckpt->manifest.timings.encode_us = ckpt->encode_us.load(std::memory_order_relaxed);
      ckpt->manifest.timings.store_us = ckpt->store_us.load(std::memory_order_relaxed);
      ckpt->manifest.timings.encode_queue_us =
          ckpt->encode_queue_us.load(std::memory_order_relaxed);
      ckpt->manifest.timings.store_queue_us =
          ckpt->store_queue_us.load(std::memory_order_relaxed);

      // The dense + manifest puts can trip the quota too; re-running
      // CommitCheckpoint after eviction is safe (same keys, same bytes).
      pipeline::CommitResult commit;
      maintenance->WithQuotaEviction(
          ckpt->req.writer.job, ckpt->snap.dense_blob.size() + 1, [&] {
            commit = pipeline::CommitCheckpoint(*store, ckpt->req.writer.job, ckpt->manifest,
                                                ckpt->snap.dense_blob);
          });

      // The inflight record is done with the manifest once committed; moving
      // it avoids copying ~chunk-count key strings on the (serial) commit
      // stage.
      result.manifest = std::move(ckpt->manifest);
      result.bytes_written = result.manifest.TotalBytes() + commit.manifest_bytes;
      for (const auto& c : result.manifest.chunks) result.rows_written += c.num_rows;
      result.timings = result.manifest.timings;
      // Result-side commit wall includes the manifest put itself (the
      // persisted value cannot, since it rides inside that very object).
      result.timings.commit_us = ElapsedUs(t0);
      result.write_wall =
          std::chrono::microseconds(static_cast<std::int64_t>(ElapsedUs(ckpt->submit_time)));
    } catch (...) {
      job.failed_ids.push_back(ckpt->req.checkpoint_id);
      NotifyPolicyCheckpointFailed(job);
      Retire(ckpt, nullptr, std::current_exception());
      return;
    }

    // The checkpoint is valid from here on; a post_commit (GC) failure
    // reaches the caller but cannot un-publish it. The policy still forgets
    // its baseline — conservative, and what the controller always did.
    try {
      if (ckpt->req.post_commit) ckpt->req.post_commit();
    } catch (...) {
      NotifyPolicyCheckpointFailed(job);
      Retire(ckpt, nullptr, std::current_exception());
      return;
    }
    Retire(ckpt, &result, nullptr);
  }

  // ------------------------------------------------------------ members ----

  ServiceConfig cfg;
  std::shared_ptr<storage::ObjectStore> base;
  // Tiered write-back layer (null = tiering off). Declared with the stores
  // (destroyed after the executor), which is safe ONLY because Shutdown()
  // always closes its drain stage first — the destructor's own Shutdown is
  // then a no-op that never touches the executor.
  std::shared_ptr<storage::TieredStore> tiered;
  std::shared_ptr<storage::AccountingStore> accounting;
  std::shared_ptr<storage::RetryingStore> store;
  // The shared stage runtime. Declared after the stores (its drains write
  // through them) and before the maintenance plane (whose scrub stage must
  // close while the executor is alive): destruction runs maintenance →
  // executor → stores.
  StageExecutor exec;
  std::unique_ptr<MaintenanceManager> maintenance;

  StageExecutor::StageId plan_stage = 0;
  StageExecutor::StageId encode_stage = 0;
  StageExecutor::StageId store_stage = 0;
  StageExecutor::StageId commit_stage = 0;

  // Admission, outstanding counts, job registry, stats. mu_ and sched_mu_
  // never nest (each critical section takes exactly one of them); JobState
  // fields stay commented rather than annotated because their guards live in
  // this struct, across an object boundary the analysis cannot express.
  mutable util::Mutex mu_;
  util::CondVar admit_cv_;
  std::size_t total_admitted GUARDED_BY(mu_) = 0;  // grants held (units)
  std::size_t admitted_peak GUARDED_BY(mu_) = 0;
  std::size_t admission_waiters GUARDED_BY(mu_) = 0;
  std::size_t total_outstanding GUARDED_BY(mu_) = 0;  // checkpoints
  bool stopping GUARDED_BY(mu_) = false;
  std::vector<std::shared_ptr<JobState>> all_jobs GUARDED_BY(mu_);

  util::Mutex sched_mu_;  // lanes, budgets, credits, cursors
  std::size_t encode_cursor GUARDED_BY(sched_mu_) = 0;
  std::size_t store_cursor GUARDED_BY(sched_mu_) = 0;
  std::vector<std::shared_ptr<JobState>> lanes GUARDED_BY(sched_mu_);

  StageLane<PlanJob> plan_lane;
  StageLane<CommitJob> commit_lane;
};

}  // namespace detail

// ------------------------------------------------------------- JobHandle ---

JobHandle::JobHandle(std::shared_ptr<detail::ServiceImpl> impl,
                     std::shared_ptr<detail::JobState> job)
    : impl_(std::move(impl)), job_(std::move(job)) {}

JobHandle::~JobHandle() {
  Drain();
  // Stop the job's scrub schedule (its priority stays on record so closed
  // jobs' residue is still evicted in the configured order).
  impl_->maintenance->UnregisterJob(job_->cfg.name);
  // Unregister the drained job so a long-lived service does not accumulate
  // dead JobStates: the registry drives stats() and the duplicate-name
  // check, the lanes drive every scheduler scan. The handle's shared_ptr
  // keeps stats() on this handle valid; the service forgets the job.
  {
    detail::MutexLock lock(impl_->mu_);
    auto& jobs = impl_->all_jobs;
    jobs.erase(std::remove(jobs.begin(), jobs.end(), job_), jobs.end());
  }
  {
    detail::MutexLock lock(impl_->sched_mu_);
    auto& lanes = impl_->lanes;
    lanes.erase(std::remove(lanes.begin(), lanes.end(), job_), lanes.end());
    impl_->encode_cursor = lanes.empty() ? 0 : impl_->encode_cursor % lanes.size();
    impl_->store_cursor = lanes.empty() ? 0 : impl_->store_cursor % lanes.size();
  }
  // Detach the tracker's model hooks: the model is only guaranteed to
  // outlive the handle, not the service.
  detail::MutexLock lock(job_->policy_mu);
  job_->tracker.reset();
}

const std::string& JobHandle::name() const { return job_->cfg.name; }

std::future<WriteResult> JobHandle::SubmitRaw(CheckpointRequest request) {
  if (!request.snapshot_fn) {
    throw std::invalid_argument("CheckpointService::Submit: no snapshot_fn");
  }
  auto futures = SubmitUnit([&request] {
    std::vector<UnitMember> members(1);
    members[0].snapshot = request.snapshot_fn();
    members[0].request = std::move(request);
    return members;
  });
  return std::move(futures.front());
}

std::vector<std::future<WriteResult>> JobHandle::SubmitUnit(const UnitThunk& thunk) {
  return impl_->SubmitUnit(job_, thunk);
}

std::unique_ptr<DeltaLog> JobHandle::OpenDeltaLog(DeltaLogConfig config) {
  config.job = name();
  // Scheduled compaction rides the service's maintenance clock unless the
  // caller wired an explicit one (tests driving their own SimClock).
  if (config.compaction_clock == nullptr) {
    config.compaction_clock = impl_->cfg.maintenance_clock;
  }
  return std::make_unique<DeltaLog>(impl_->store, impl_->exec, std::move(config));
}

SubmittedCheckpoint JobHandle::Submit(IntervalSubmission submission) {
  detail::JobState& job = *job_;
  CheckpointRequest req;
  {
    detail::MutexLock lock(job.policy_mu);
    if (!job.policy) {
      throw std::logic_error("JobHandle::Submit: job \"" + job.cfg.name +
                             "\" has no incremental policy (opened without model/total_rows)");
    }
    req.checkpoint_id = job.next_checkpoint_id++;
    req.plan = job.policy->Plan(req.checkpoint_id, std::move(submission.interval_dirty));
  }
  req.writer.job = job.cfg.name;
  req.writer.chunk_rows = job.cfg.chunk_rows;
  req.writer.rng_seed = job.cfg.rng_seed;
  req.writer.quant = EffectiveQuantConfig();
  req.reader_state = std::move(submission.reader_state);
  req.snapshot_fn = std::move(submission.snapshot_fn);
  if (job.cfg.gc) {
    req.post_commit = [impl = impl_, name = job.cfg.name] {
      impl->maintenance->GcAfterCommit(name);
    };
  }

  SubmittedCheckpoint out;
  out.checkpoint_id = req.checkpoint_id;
  out.kind = req.plan.kind;
  try {
    out.future = SubmitRaw(std::move(req));
  } catch (...) {
    // The planned checkpoint will never exist (snapshot failure or service
    // shutdown); the policy must forget it or later incrementals would
    // parent on a hole in the chain.
    detail::MutexLock lock(job.policy_mu);
    job.policy->OnCheckpointFailed();
    throw;
  }
  return out;
}

void JobHandle::Drain() {
  detail::MutexLock lock(impl_->mu_);
  while (job_->outstanding != 0) impl_->admit_cv_.Wait(impl_->mu_);
}

JobStats JobHandle::stats() const {
  JobStats stats;
  {
    detail::MutexLock lock(impl_->mu_);
    stats = job_->stats;
    stats.inflight = job_->outstanding;
  }
  {
    // sched_mu_ and mu_ never nest; taken in sequence.
    detail::MutexLock lock(impl_->sched_mu_);
    stats.queued_encode_chunks = job_->encode_lane.size();
    stats.queued_store_chunks = job_->store_lane.size();
  }
  stats.store_bytes = impl_->accounting->Usage(job_->cfg.name).bytes;
  const auto maintenance = impl_->maintenance->job_stats(job_->cfg.name);
  stats.scrubs_run = maintenance.scrubs_run;
  stats.scrub_issues = maintenance.scrub_issues;
  stats.evicted_checkpoints = maintenance.evicted_checkpoints;
  return stats;
}

std::size_t JobHandle::inflight() const {
  detail::MutexLock lock(impl_->mu_);
  return job_->outstanding;
}

quant::QuantConfig JobHandle::EffectiveQuantConfig() const {
  const JobConfig& cfg = job_->cfg;
  if (!cfg.quantize) {
    quant::QuantConfig qc;
    qc.method = quant::Method::kNone;
    return qc;
  }
  if (!cfg.dynamic_bitwidth) return cfg.quant;
  if (observed_restarts() > cfg.expected_restarts) {
    // Failure estimate exceeded: fall back to 8-bit asymmetric (§6.2.1).
    quant::QuantConfig qc;
    qc.method = quant::Method::kAsymmetric;
    qc.bits = 8;
    return qc;
  }
  return quant::ConfigForRestarts(cfg.expected_restarts);
}

void JobHandle::OnRestartObserved() {
  detail::MutexLock lock(job_->policy_mu);
  ++job_->observed_restarts;
}

std::uint64_t JobHandle::observed_restarts() const {
  detail::MutexLock lock(job_->policy_mu);
  return job_->observed_restarts;
}

void JobHandle::SetNextCheckpointId(std::uint64_t next_id) {
  detail::MutexLock lock(job_->policy_mu);
  if (next_id <= job_->next_checkpoint_id && job_->next_checkpoint_id != 1) {
    throw std::invalid_argument("SetNextCheckpointId: ids must move forward");
  }
  job_->next_checkpoint_id = next_id;
}

ModifiedRowTracker& JobHandle::tracker() {
  detail::MutexLock lock(job_->policy_mu);
  if (!job_->tracker) {
    throw std::logic_error("JobHandle::tracker: job \"" + job_->cfg.name +
                           "\" was opened without a model");
  }
  return *job_->tracker;
}

// ------------------------------------------------------ CheckpointService ---

CheckpointService::CheckpointService(std::shared_ptr<storage::ObjectStore> store,
                                     ServiceConfig config)
    : impl_(std::make_shared<detail::ServiceImpl>(std::move(store), std::move(config))) {}

CheckpointService::~CheckpointService() { impl_->Shutdown(); }

std::unique_ptr<JobHandle> CheckpointService::OpenJob(JobConfig config) {
  if (config.max_inflight_checkpoints == 0) {
    throw std::invalid_argument("OpenJob: max_inflight_checkpoints == 0");
  }
  if (config.scrub_interval < 0) {
    throw std::invalid_argument("OpenJob: negative scrub_interval");
  }
  if (config.scrub_interval > 0 && impl_->cfg.maintenance_clock == nullptr) {
    throw std::invalid_argument(
        "OpenJob: scrub_interval set but the service has no maintenance_clock");
  }
  config.weight = std::max<std::uint32_t>(config.weight, 1);

  auto job = std::make_shared<detail::JobState>(std::move(config));
  {
    detail::MutexLock lock(job->policy_mu);
    std::uint64_t total_rows = job->cfg.total_rows;
    if (job->cfg.model != nullptr) {
      job->tracker = std::make_unique<ModifiedRowTracker>(*job->cfg.model);
      total_rows = CountTotalRows(*job->cfg.model);
    }
    if (total_rows > 0) {
      job->policy.emplace(job->cfg.policy, total_rows, job->cfg.policy_options);
    }
  }
  {
    detail::MutexLock lock(impl_->mu_);
    if (impl_->stopping) throw std::runtime_error("CheckpointService: stopped");
    for (const auto& existing : impl_->all_jobs) {  // closed jobs were removed
      if (existing->cfg.name == job->cfg.name) {
        throw std::invalid_argument("OpenJob: job \"" + job->cfg.name + "\" is already open");
      }
    }
    impl_->all_jobs.push_back(job);
  }
  {
    detail::MutexLock lock(impl_->sched_mu_);
    impl_->lanes.push_back(job);
  }
  impl_->maintenance->RegisterJob(job->cfg.name, job->cfg.priority,
                                  job->cfg.keep_checkpoints, job->cfg.scrub_interval);
  return std::unique_ptr<JobHandle>(new JobHandle(impl_, std::move(job)));
}

void CheckpointService::DrainAll() { impl_->WaitIdle(); }

ServiceStats CheckpointService::stats() const {
  ServiceStats stats;
  stats.quota_bytes = impl_->cfg.shared_quota_bytes;
  stats.executor = impl_->exec.snapshot();
  if (impl_->tiered) {
    stats.tiered = true;
    stats.tier = impl_->tiered->tier_stats();
  }
  const auto usage = impl_->accounting->UsageByJob();
  const auto maintenance = impl_->maintenance->stats_by_job();
  // Per-job stage-runtime backlog, collected before mu_ (sched_mu_ and mu_
  // never nest).
  std::map<std::string, std::pair<std::size_t, std::size_t>> queued;
  {
    detail::MutexLock lock(impl_->sched_mu_);
    for (const auto& job : impl_->lanes) {
      queued[job->cfg.name] = {job->encode_lane.size(), job->store_lane.size()};
    }
  }
  {
    detail::MutexLock lock(impl_->mu_);
    stats.inflight = impl_->total_outstanding;
    stats.admitted = impl_->total_admitted;
    stats.admitted_peak = impl_->admitted_peak;
    stats.admission_waiters = impl_->admission_waiters;
    stats.store_bytes = impl_->accounting->TrackedBytes();
    for (const auto& job : impl_->all_jobs) {
      JobStats js = job->stats;
      js.inflight = job->outstanding;
      const auto it = usage.find(job->cfg.name);
      if (it != usage.end()) js.store_bytes = it->second.bytes;
      const auto qit = queued.find(job->cfg.name);
      if (qit != queued.end()) {
        js.queued_encode_chunks = qit->second.first;
        js.queued_store_chunks = qit->second.second;
      }
      stats.jobs[job->cfg.name] = js;
    }
  }
  // Store-resident jobs without an open handle (reconciled occupancy, or a
  // handle that already closed): a restarted service must report them
  // truthfully before anyone re-attaches.
  for (const auto& [job, job_usage] : usage) {
    if (job.empty() || job_usage.bytes == 0) continue;
    if (!stats.jobs.contains(job)) stats.jobs[job].store_bytes = job_usage.bytes;
  }
  for (const auto& [job, ms] : maintenance) {
    // A job whose residue was fully evicted (or scrubbed) after its handle
    // closed holds zero bytes — its counters must still be visible, or the
    // operator cannot see what quota pressure destroyed.
    if (stats.jobs.contains(job)) continue;
    if (ms.scrubs_run == 0 && ms.evicted_checkpoints == 0) continue;
    stats.jobs[job];  // occupancy-less entry; counters filled below
  }
  for (auto& [job, js] : stats.jobs) {
    const auto it = maintenance.find(job);
    if (it == maintenance.end()) continue;
    js.scrubs_run = it->second.scrubs_run;
    js.scrub_issues = it->second.scrub_issues;
    js.evicted_checkpoints = it->second.evicted_checkpoints;
  }
  return stats;
}

std::size_t CheckpointService::inflight() const {
  detail::MutexLock lock(impl_->mu_);
  return impl_->total_outstanding;
}

storage::ObjectStore& CheckpointService::store() { return *impl_->store; }

const storage::AccountingStore& CheckpointService::accounting() const {
  return *impl_->accounting;
}

storage::TieredStore* CheckpointService::tiered_store() { return impl_->tiered.get(); }

MaintenanceManager& CheckpointService::maintenance() { return *impl_->maintenance; }

pipeline::StageExecutor& CheckpointService::executor() { return impl_->exec; }

GcReport CheckpointService::Gc(const GcOptions& options) {
  return impl_->maintenance->Gc(options);
}

const ServiceConfig& CheckpointService::config() const { return impl_->cfg; }

}  // namespace cnr::core
