#include "core/maintenance.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/delta_log.h"
#include "core/pipeline/executor.h"
#include "core/recovery.h"
#include "storage/manifest.h"
#include "util/logging.h"
#include "util/sync.h"

namespace cnr::core {

// ------------------------------------------------------------ survey --------

std::vector<std::string> ListStoreJobs(storage::ObjectStore& store) {
  std::set<std::string> jobs;
  for (const auto& key : store.List("jobs/")) {
    const auto rest = key.substr(5);
    const auto slash = rest.find('/');
    if (slash != std::string::npos) jobs.insert(rest.substr(0, slash));
  }
  return {jobs.begin(), jobs.end()};
}

namespace {

bool IsManifested(const JobSurvey& survey, std::uint64_t id) {
  return std::binary_search(survey.ids.begin(), survey.ids.end(), id);
}

// Chain of `from` via the survey's in-memory parent links, oldest first.
// Damage-tolerant: a missing parent, self-reference, or cycle ends the walk
// (the chain is then unrestorable — scrub's job to report, not the survey's).
std::vector<std::uint64_t> WalkChain(const JobSurvey& survey, std::uint64_t from) {
  std::vector<std::uint64_t> chain;
  std::set<std::uint64_t> seen;
  std::uint64_t cur = from;
  for (;;) {
    chain.push_back(cur);
    seen.insert(cur);
    const auto it = survey.parent_of.find(cur);
    if (it == survey.parent_of.end()) break;  // a full checkpoint roots the chain
    const std::uint64_t parent = it->second;
    if (seen.contains(parent)) break;  // self-reference or cycle: damaged
    if (!IsManifested(survey, parent)) break;
    cur = parent;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

// Ids protected for a job with coordinated cuts: the union of the newest
// cut's shards' chains, plus every id newer than the newest cut's highest
// mapped id — those are the next cut's sub-checkpoints in flight (or a torn
// cut's leftovers the next cut may chain over; indistinguishable), together
// with their chains.
std::set<std::uint64_t> CutLiveSet(const JobSurvey& survey) {
  std::set<std::uint64_t> live;
  if (survey.cuts.empty()) return live;
  const CutSurvey& newest = survey.cuts.back();
  std::uint64_t cut_max = 0;
  for (const auto& e : newest.shard_map) {
    const auto chain = WalkChain(survey, e.checkpoint_id);
    live.insert(chain.begin(), chain.end());
    cut_max = std::max(cut_max, e.checkpoint_id);
  }
  for (auto it = survey.ids.rbegin(); it != survey.ids.rend() && *it > cut_max; ++it) {
    const auto chain = WalkChain(survey, *it);
    live.insert(chain.begin(), chain.end());
  }
  return live;
}

}  // namespace

JobSurvey SurveyJob(storage::ObjectStore& store, const std::string& job,
                    bool measure_orphans) {
  JobSurvey survey;
  survey.job = job;
  const auto keys = store.List(storage::Manifest::JobPrefix(job));
  const std::string dlog_root = storage::Manifest::DeltaLogRoot(job);

  // Pass 1: decode every manifest; record what each one attributes to the
  // job (its own bytes measured, chunk/dense bytes as the manifest claims).
  std::set<std::string> referenced;
  for (const auto& key : keys) {
    // Coordinated cut objects (core/sharded_checkpoint.h): the COORD
    // manifest references itself and the cut's dense blob; its shard map
    // ties the job's sub-checkpoints into one lineage unit.
    if (key.ends_with("/COORD")) {
      const auto blob = store.Get(key);
      if (!blob) continue;
      CutSurvey cut;
      try {
        storage::Manifest m = storage::Manifest::Decode(*blob);
        if (m.kind != storage::CheckpointKind::kCoordinated) continue;
        cut.epoch = m.cut_epoch;
        cut.dense_key = m.dense_key;
        cut.dense_bytes = m.dense_bytes;
        cut.shard_map = m.shard_map;
      } catch (...) {
        continue;  // undecodable cut manifest: stays unreferenced (orphan)
      }
      cut.manifest_key = key;
      cut.manifest_bytes = blob->size();
      referenced.insert(key);
      survey.objects[key] = blob->size();
      if (!cut.dense_key.empty()) {
        referenced.insert(cut.dense_key);
        survey.objects[cut.dense_key] = cut.dense_bytes;
      }
      survey.cuts.push_back(std::move(cut));
      continue;
    }
    if (!key.ends_with("/MANIFEST")) continue;
    const auto blob = store.Get(key);
    if (!blob) continue;  // raced a concurrent delete
    storage::Manifest m;
    try {
      m = storage::Manifest::Decode(*blob);
    } catch (...) {
      continue;  // undecodable manifest: its key stays unreferenced (orphan)
    }
    referenced.insert(key);
    survey.objects[key] = blob->size();
    std::uint64_t bytes = blob->size();
    for (const auto& c : m.chunks) {
      referenced.insert(c.key);
      survey.objects[c.key] = c.bytes;
      bytes += c.bytes;
    }
    if (!m.dense_key.empty()) {
      referenced.insert(m.dense_key);
      survey.objects[m.dense_key] = m.dense_bytes;
      bytes += m.dense_bytes;
    }
    survey.bytes_by_checkpoint[m.checkpoint_id] = bytes;
    if (m.kind == storage::CheckpointKind::kIncremental) {
      survey.parent_of[m.checkpoint_id] = m.parent_id;
    }
    survey.ids.push_back(m.checkpoint_id);
  }
  std::sort(survey.ids.begin(), survey.ids.end());
  std::sort(survey.cuts.begin(), survey.cuts.end(),
            [](const CutSurvey& a, const CutSurvey& b) { return a.epoch < b.epoch; });

  // Pass 1b: delta-log segments (core/delta_log.h) ride their base
  // checkpoint's lineage. Every object under dlog/<base>/ whose base is
  // manifested is attributed to that checkpoint's footprint, so live/stale
  // classification, quota eviction, and GC sizing treat base + log as one
  // unit. A log whose base manifest is gone is debris — left unreferenced
  // here, so pass 3 reports it with the orphans. Segments belong to a
  // manifested lineage, so they are measured (a stat, never a download)
  // even when measure_orphans = false.
  for (const auto& key : keys) {
    const auto base = storage::Manifest::ParseId(key, dlog_root);
    if (!base || !IsManifested(survey, *base)) continue;
    // Only keys under DeltaLogPrefix(job, base): the ones DeleteUnit removes.
    if (!key.starts_with(storage::Manifest::DeltaLogPrefix(job, *base))) continue;
    const auto size = store.SizeOf(key);
    if (!size) continue;  // raced a concurrent truncation or compaction
    referenced.insert(key);
    survey.objects[key] = *size;
    survey.bytes_by_checkpoint[*base] += *size;
    survey.dlog_bytes_by_base[*base] += *size;
  }

  // Pass 2: classify checkpoints as live or stale. Unsharded: live is the
  // newest id's chain. With coordinated cuts: live is the newest cut's
  // shards' chains plus everything newer than that cut (CutLiveSet) — a
  // sub-checkpoint is never judged by id recency alone, or half a cut could
  // be classified stale.
  std::set<std::uint64_t> live;
  if (!survey.cuts.empty()) {
    live = CutLiveSet(survey);
    survey.live_chain.assign(live.begin(), live.end());
  } else if (!survey.ids.empty()) {
    survey.live_chain = WalkChain(survey, survey.ids.back());
    live.insert(survey.live_chain.begin(), survey.live_chain.end());
  }
  for (const auto id : survey.ids) {
    const std::uint64_t bytes = survey.bytes_by_checkpoint.at(id);
    if (live.contains(id)) {
      survey.live_bytes += bytes;
    } else {
      survey.stale.push_back(id);
      survey.stale_bytes += bytes;
    }
  }
  // The newest cut's COORD/dense objects back the live state; older cuts'
  // are stale (evictable as whole units, PlanRetention).
  for (std::size_t i = 0; i < survey.cuts.size(); ++i) {
    if (i + 1 == survey.cuts.size()) {
      survey.live_bytes += survey.cuts[i].object_bytes();
    } else {
      survey.stale_bytes += survey.cuts[i].object_bytes();
    }
  }

  // Pass 3: anything under the job's prefix that no manifest references is
  // an orphan; measure it so reconciliation can account for it. Skipped for
  // callers that only care about manifested lineages.
  if (measure_orphans) {
    for (const auto& key : keys) {
      if (referenced.contains(key)) continue;
      const auto size = store.SizeOf(key);
      if (!size) continue;
      survey.orphans.push_back(key);
      survey.objects[key] = *size;
      survey.orphan_bytes += *size;
    }
  }
  return survey;
}

std::set<std::uint64_t> KeptLineages(const JobSurvey& survey, std::size_t keep_lineages) {
  if (keep_lineages == 0) keep_lineages = 1;  // the newest lineage is sacred
  if (!survey.cuts.empty()) {
    // A lineage is a whole cut: keep the newest `keep_lineages` cuts' full
    // reach (plus in-flight ids, via CutLiveSet) — never part of a cut.
    std::set<std::uint64_t> kept = CutLiveSet(survey);
    for (std::size_t i = 1; i < keep_lineages && i < survey.cuts.size(); ++i) {
      const CutSurvey& cut = survey.cuts[survey.cuts.size() - 1 - i];
      for (const auto& e : cut.shard_map) {
        const auto chain = WalkChain(survey, e.checkpoint_id);
        kept.insert(chain.begin(), chain.end());
      }
    }
    return kept;
  }
  std::set<std::uint64_t> kept;
  std::size_t started = 0;
  for (auto it = survey.ids.rbegin(); it != survey.ids.rend() && started < keep_lineages;
       ++it, ++started) {
    const auto chain = WalkChain(survey, *it);
    kept.insert(chain.begin(), chain.end());
  }
  return kept;
}

// ------------------------------------------------------------ retention -----

namespace {

// Why `id`'s recovery chain does not reach a full checkpoint, or "" if it
// does.
std::string BrokenChain(const JobSurvey& survey, std::uint64_t id) {
  if (!IsManifested(survey, id)) {
    return "checkpoint " + std::to_string(id) + " has no readable manifest";
  }
  const std::uint64_t root = WalkChain(survey, id).front();
  const auto it = survey.parent_of.find(root);
  if (it == survey.parent_of.end()) return {};
  std::string why = "checkpoint " + std::to_string(it->second) + " (parent of checkpoint " +
                    std::to_string(root);
  if (root != id) why += ", on the chain of checkpoint " + std::to_string(id);
  return why + ") is missing or unreadable";
}

// The newest lineage must reach a full checkpoint before anything older may
// go: it is the only proof that the job still has a restorable state.
std::string RefusalOf(const JobSurvey& survey) {
  std::string why;
  if (!survey.cuts.empty()) {
    for (const auto& e : survey.cuts.back().shard_map) {
      if (why.empty()) why = BrokenChain(survey, e.checkpoint_id);
    }
  } else if (!survey.ids.empty()) {
    why = BrokenChain(survey, survey.ids.back());
  }
  if (why.empty()) return why;
  return "job " + survey.job + ": the newest lineage does not reach a full checkpoint (" +
         why + "); nothing deleted";
}

LineageUnit UnitOf(const JobSurvey& survey, std::vector<std::uint64_t> ids) {
  LineageUnit unit;
  std::sort(ids.begin(), ids.end());
  for (const auto id : ids) {
    unit.bytes += survey.bytes_by_checkpoint.at(id);  // includes its delta log
    if (survey.dlog_bytes_by_base.contains(id)) unit.dlog_ids.push_back(id);
  }
  unit.ids = std::move(ids);
  return unit;
}

// The one delete routine. Keys go in List order, and the publication
// objects ("COORD", "MANIFEST") sort before every lowercase sibling, so a
// cut leaves recovery's view before its dense blob goes and a checkpoint
// before its chunks: an interrupted delete leaves unreferenced debris, never
// a published object with holes. Delta-log prefixes are Listed only where
// the survey saw a log.
void DeleteUnit(storage::ObjectStore& store, const std::string& job, const LineageUnit& unit) {
  const auto delete_prefix = [&store](const std::string& prefix) {
    for (const auto& key : store.List(prefix)) store.Delete(key);
  };
  if (unit.is_cut) delete_prefix(storage::Manifest::CutPrefix(job, unit.epoch));
  for (const auto id : unit.ids) delete_prefix(storage::Manifest::CheckpointPrefix(job, id));
  for (const auto id : unit.dlog_ids) delete_prefix(storage::Manifest::DeltaLogPrefix(job, id));
}

}  // namespace

RetentionPlan PlanRetention(const JobSurvey& survey, std::size_t keep_lineages,
                            const std::set<std::uint64_t>& pinned) {
  RetentionPlan plan;
  plan.refused = RefusalOf(survey);
  if (!plan.refused.empty()) return plan;
  keep_lineages = std::max<std::size_t>(keep_lineages, 1);
  std::set<std::uint64_t> taken = KeptLineages(survey, keep_lineages);
  for (const auto id : pinned) {
    const auto chain = WalkChain(survey, id);
    taken.insert(chain.begin(), chain.end());
  }
  // Cuts beyond retention, walked newest-first so an id two of them reach
  // is attributed to the NEWER one: deleting units oldest-first then never
  // removes an ancestor a remaining cut still needs.
  const std::size_t stale_cuts = survey.cuts.size() - std::min(keep_lineages, survey.cuts.size());
  for (std::size_t i = stale_cuts; i-- > 0;) {
    const CutSurvey& cut = survey.cuts[i];
    std::vector<std::uint64_t> exclusive;
    for (const auto& e : cut.shard_map) {
      for (const auto id : WalkChain(survey, e.checkpoint_id)) {
        if (IsManifested(survey, id) && taken.insert(id).second) exclusive.push_back(id);
      }
    }
    LineageUnit unit = UnitOf(survey, std::move(exclusive));
    unit.is_cut = true;
    unit.epoch = cut.epoch;
    unit.bytes += cut.object_bytes();
    plan.units.push_back(std::move(unit));
  }
  std::reverse(plan.units.begin(), plan.units.end());  // oldest cut first
  for (const auto id : survey.ids) {
    if (!taken.contains(id)) plan.units.push_back(UnitOf(survey, {id}));
  }
  return plan;
}

// ------------------------------------------------------------ gc ------------

void GcReport::Add(GcJobReport job) {
  if (job.evicted.empty() && job.evicted_cuts.empty() && job.orphans_removed == 0 &&
      job.refused.empty()) {
    return;
  }
  bytes_freed += job.bytes_freed + job.orphan_bytes;
  jobs.push_back(std::move(job));
}

GcJobReport GcJob(storage::ObjectStore& store, const std::string& job,
                  const GcOptions& options, const std::set<std::uint64_t>& pinned) {
  const JobSurvey survey = SurveyJob(store, job, options.remove_orphans);
  const RetentionPlan plan = PlanRetention(survey, options.keep_lineages, pinned);
  GcJobReport report;
  report.job = job;
  report.refused = plan.refused;
  if (!plan.refused.empty()) {
    CNR_LOG_WARN << "maintenance: GC refused — " << plan.refused
                 << " (see docs/OPERATIONS.md)";
    return report;
  }
  for (const auto& unit : plan.units) {
    if (unit.is_cut) report.evicted_cuts.push_back(unit.epoch);
    report.evicted.insert(report.evicted.end(), unit.ids.begin(), unit.ids.end());
    report.bytes_freed += unit.bytes;
    if (!options.dry_run) DeleteUnit(store, job, unit);
  }
  std::sort(report.evicted.begin(), report.evicted.end());
  if (options.remove_orphans) {
    for (const auto& key : survey.orphans) {
      ++report.orphans_removed;
      report.orphan_bytes += survey.objects.at(key);
      if (!options.dry_run) store.Delete(key);
    }
  }
  return report;
}

GcReport GcStore(storage::ObjectStore& store, const GcOptions& options) {
  GcReport report;
  report.dry_run = options.dry_run;
  for (const auto& job : ListStoreJobs(store)) report.Add(GcJob(store, job, options));
  return report;
}

// ------------------------------------------------------- the manager --------

struct MaintenanceManager::Impl {
  Impl(std::shared_ptr<storage::AccountingStore> acc,
       std::shared_ptr<storage::ObjectStore> st, MaintenanceConfig config)
      : accounting(std::move(acc)), store(std::move(st)), cfg(std::move(config)) {}

  struct JobMeta {
    std::uint32_t priority = 0;
    std::size_t keep_lineages = 1;
    util::SimTime scrub_interval = 0;  // 0 = not scheduled
    util::SimTime next_due = 0;
    bool open = false;
    bool queued = false;  // a scheduled scrub is enqueued or running
    JobMaintenanceStats stats;
  };

  std::uint32_t PriorityOf(const std::string& job) const EXCLUDES(mu) {
    util::MutexLock lock(mu);
    const auto it = jobs.find(job);
    return it == jobs.end() ? 0 : it->second.priority;
  }

  std::size_t KeepOf(const std::string& job) const EXCLUDES(mu) {
    util::MutexLock lock(mu);
    const auto it = jobs.find(job);
    return it == jobs.end() ? 1 : it->second.keep_lineages;
  }

  std::set<std::uint64_t> PinsOf(const std::string& job) const EXCLUDES(mu) {
    util::MutexLock lock(mu);
    const auto it = pins.find(job);
    return it == pins.end() ? std::set<std::uint64_t>{} : it->second;
  }

  // Clock-subscriber scheduling: scans for due jobs and enqueues them on the
  // scrub stage. Cheap (no store I/O) — safe to run from a SimClock advance.
  // `queued` dedupes: while a job's scrub is enqueued or running, further
  // due checks are absorbed, so a compressed simulated-time jump over many
  // intervals runs one catch-up scrub, not a backlog (next_due re-arms from
  // now at enqueue time).
  void ScheduleDue() EXCLUDES(mu) {
    std::vector<std::string> due;
    {
      util::MutexLock lock(mu);
      if (stop || cfg.clock == nullptr) return;
      const util::SimTime now = cfg.clock->now();
      for (auto& [name, meta] : jobs) {
        if (!meta.open || meta.scrub_interval <= 0 || meta.queued) continue;
        if (now < meta.next_due) continue;
        meta.queued = true;
        meta.next_due = now + meta.scrub_interval;
        due.push_back(name);
      }
    }
    if (due.empty()) return;
    for (auto& name : due) scrub_lane.Push(std::move(name));
    cfg.executor->Submit(scrub_stage, due.size());
  }

  bool DrainScrub() EXCLUDES(mu) {
    auto job = scrub_lane.TryPop();
    if (!job) return false;
    bool skip;
    {
      util::MutexLock lock(mu);
      skip = stop;  // shutting down: consume the unit, run nothing
    }
    if (!skip) ScrubAndRecord(*job);
    {
      util::MutexLock lock(mu);
      jobs[*job].queued = false;
    }
    // The job may already be due again (time advanced during the scrub) —
    // re-scan, since no further clock advance may come to trigger it.
    ScheduleDue();
    return true;
  }

  // One scrub of the job's live chain; failures become issues, never throws
  // (the background thread must survive a sick store).
  //
  // Race note: a commit that lands mid-scrub advances the live chain, and
  // the job's post-commit GC (or quota eviction, which the new commit just
  // made possible) may then delete checkpoints the scrub was still reading
  // — yielding "object missing" verdicts on a perfectly healthy store.
  // Deletion of live-chain objects is only ever triggered by the latest id
  // changing (GC runs post-commit; eviction spares live chains), so a dirty
  // report is re-checked against the latest id and the scrub retried on the
  // new chain instead of paging falsely.
  pipeline::ScrubReport RunScrub(const std::string& job) {
    try {
      pipeline::ScrubConfig scrub_cfg;
      scrub_cfg.executor = cfg.executor;
      pipeline::ScrubReport report;
      for (int attempt = 0; attempt < 3; ++attempt) {
        const auto latest = LatestCheckpointId(*store, job);
        if (!latest) return {};
        report = pipeline::ScrubChainParallel(*store, job, *latest, scrub_cfg);
        // Base + delta log are one lineage unit: the live checkpoint's
        // per-iteration delta stream is verified in the same run.
        ScrubDeltaLog(*store, job, *latest, report);
        if (report.clean()) return report;
        if (LatestCheckpointId(*store, job) == latest) return report;  // genuine
      }
      return report;
    } catch (const std::exception& e) {
      pipeline::ScrubReport report;
      report.issues.push_back({"", std::string("scrub failed: ") + e.what()});
      return report;
    }
  }

  pipeline::ScrubReport ScrubAndRecord(const std::string& job) EXCLUDES(mu) {
    pipeline::ScrubReport report = RunScrub(job);
    if (!report.clean()) {
      CNR_LOG_WARN << "maintenance: scrub of job " << job << " found "
                   << report.issues.size() << " issue(s) — the stored chain is NOT "
                   << "restorable as-is (see docs/OPERATIONS.md)";
    }
    util::MutexLock lock(mu);
    auto& stats = jobs[job].stats;  // jobs never registered still keep stats
    ++stats.scrubs_run;
    stats.scrub_issues += report.issues.size();
    stats.last_scrub_at = cfg.clock ? cfg.clock->now() : -1;
    stats.last_scrub_clean = report.clean();
    stats.last_issues = report.issues;
    return report;
  }

  std::shared_ptr<storage::AccountingStore> accounting;
  std::shared_ptr<storage::ObjectStore> store;
  MaintenanceConfig cfg;

  mutable util::Mutex mu;  // registry, stats, schedule, pins, stop flag
  bool stop GUARDED_BY(mu) = false;
  std::map<std::string, JobMeta> jobs GUARDED_BY(mu);
  std::map<std::string, std::set<std::uint64_t>> pins GUARDED_BY(mu);

  // Serializes evictions. Lock order: evict_mu may be held while acquiring
  // mu (PriorityOf, PinsOf, the stats update); NEVER acquire evict_mu under
  // mu — ACQUIRED_BEFORE makes that inversion a compile error under clang.
  util::Mutex evict_mu ACQUIRED_BEFORE(mu);

  pipeline::StageExecutor::StageId scrub_stage = 0;
  bool scrub_stage_open = false;
  pipeline::StageLane<std::string> scrub_lane;
  std::optional<util::SimClock::SubscriberId> clock_sub;
};

MaintenanceManager::MaintenanceManager(std::shared_ptr<storage::AccountingStore> accounting,
                                       std::shared_ptr<storage::ObjectStore> store,
                                       MaintenanceConfig config)
    : impl_(std::make_unique<Impl>(std::move(accounting), std::move(store),
                                   std::move(config))) {
  if (!impl_->accounting) {
    throw std::invalid_argument("MaintenanceManager: null accounting store");
  }
  if (!impl_->store) throw std::invalid_argument("MaintenanceManager: null store");
  if (impl_->cfg.clock != nullptr) {
    if (impl_->cfg.executor == nullptr) {
      throw std::invalid_argument("MaintenanceManager: a clock needs an executor");
    }
    // Scheduled scrubs run as a stage on the shared runtime: the clock
    // subscriber scans for due jobs and enqueues them; one job's scrub runs
    // at a time, and its inner fetch/decode stages ride the same executor
    // (the scrub worker helps drain them, so no threads are reserved).
    impl_->scrub_stage = impl_->cfg.executor->OpenStage(
        pipeline::PinnedStage("scrub"), [impl = impl_.get()] { return impl->DrainScrub(); });
    impl_->scrub_stage_open = true;
    // The subscriber only scans the registry and enqueues stage work — cheap
    // enough for a clock callback, and it never calls back into the clock.
    impl_->clock_sub =
        impl_->cfg.clock->Subscribe([impl = impl_.get()] { impl->ScheduleDue(); });
  }
}

MaintenanceManager::~MaintenanceManager() {
  if (impl_->clock_sub) impl_->cfg.clock->Unsubscribe(*impl_->clock_sub);
  {
    util::MutexLock lock(impl_->mu);
    impl_->stop = true;  // queued-but-unstarted scrubs drain without running
  }
  if (impl_->scrub_stage_open) impl_->cfg.executor->CloseStage(impl_->scrub_stage);
}

std::size_t MaintenanceManager::ReconcileJob(const std::string& job) {
  const JobSurvey survey = SurveyJob(*impl_->store, job);
  std::size_t seeded = 0;
  for (const auto& [key, bytes] : survey.objects) {
    if (impl_->accounting->SeedObject(key, bytes)) ++seeded;
  }
  return seeded;
}

std::size_t MaintenanceManager::ReconcileAll() {
  std::size_t seeded = 0;
  for (const auto& job : ListStoreJobs(*impl_->store)) seeded += ReconcileJob(job);
  return seeded;
}

void MaintenanceManager::RegisterJob(const std::string& job, std::uint32_t priority,
                                     std::size_t keep_lineages,
                                     util::SimTime scrub_interval) {
  if (scrub_interval < 0) {
    throw std::invalid_argument("MaintenanceManager::RegisterJob: negative scrub_interval");
  }
  {
    util::MutexLock lock(impl_->mu);
    auto& meta = impl_->jobs[job];
    meta.priority = priority;
    meta.keep_lineages = std::max<std::size_t>(keep_lineages, 1);
    meta.scrub_interval = scrub_interval;
    meta.next_due =
        impl_->cfg.clock ? impl_->cfg.clock->now() + scrub_interval : scrub_interval;
    meta.open = true;
  }
}

void MaintenanceManager::UnregisterJob(const std::string& job) {
  util::MutexLock lock(impl_->mu);
  const auto it = impl_->jobs.find(job);
  if (it == impl_->jobs.end()) return;
  // Keep the record: the priority still orders eviction of the closed
  // job's residue, and the stats stay queryable.
  it->second.open = false;
}

std::uint64_t MaintenanceManager::EvictForQuota(std::uint64_t needed_bytes,
                                                const std::string& requesting_job) {
  needed_bytes = std::max<std::uint64_t>(needed_bytes, 1);
  util::MutexLock evict_lock(impl_->evict_mu);

  // Candidates: every store job's retention-plan units at one kept lineage,
  // ordered lowest priority first, then per job in plan order. Newest
  // lineages, pinned ids and unpublished (manifest-less) objects are never
  // candidates, so an in-flight checkpoint and every job's recovery path
  // stay intact.
  struct Candidate {
    std::uint32_t priority = 0;
    std::string job;
    LineageUnit unit;
  };
  std::vector<Candidate> candidates;
  for (const auto& job : ListStoreJobs(*impl_->store)) {
    // Orphans are never candidates; skip measuring them.
    const JobSurvey survey = SurveyJob(*impl_->store, job, /*measure_orphans=*/false);
    RetentionPlan plan = PlanRetention(survey, 1, impl_->PinsOf(job));
    if (!plan.refused.empty()) {
      CNR_LOG_WARN << "maintenance: quota eviction skips " << plan.refused;
      continue;
    }
    const std::uint32_t priority = impl_->PriorityOf(job);
    for (auto& unit : plan.units) candidates.push_back({priority, job, std::move(unit)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.priority != b.priority) return a.priority < b.priority;
                     return a.job < b.job;
                   });

  std::uint64_t freed = 0;
  for (const auto& c : candidates) {
    if (freed >= needed_bytes) break;
    DeleteUnit(*impl_->store, c.job, c.unit);
    freed += c.unit.bytes;
    if (c.unit.is_cut) {
      CNR_LOG_WARN << "maintenance: quota pressure (job " << requesting_job
                   << ") evicted stale cut " << c.unit.epoch << " of job " << c.job << " ("
                   << c.unit.ids.size() << " sub-checkpoints, " << c.unit.bytes
                   << " bytes, priority " << c.priority << ")";
    } else {
      CNR_LOG_WARN << "maintenance: quota pressure (job " << requesting_job
                   << ") evicted stale checkpoint " << c.unit.ids.front() << " of job "
                   << c.job << " (" << c.unit.bytes << " bytes, priority " << c.priority
                   << ")";
    }
    util::MutexLock lock(impl_->mu);
    auto& stats = impl_->jobs[c.job].stats;
    stats.evicted_checkpoints += c.unit.ids.size();
    stats.evicted_bytes += c.unit.bytes;
  }
  return freed;
}

void MaintenanceManager::WithQuotaEviction(const std::string& job, std::uint64_t needed_bytes,
                                           const std::function<void()>& write) {
  for (;;) {
    try {
      write();
      return;
    } catch (const storage::QuotaExceeded&) {
      if (!impl_->cfg.evict_on_quota) throw;
      if (EvictForQuota(needed_bytes, job) == 0) break;
    }
  }
  // Nothing left to evict — but a CONCURRENT trip may have evicted the last
  // candidates while freeing exactly the bytes this write needs (two store
  // workers hitting the quota together: the first evicts, the second finds
  // nothing left). This final attempt's QuotaExceeded stands.
  write();
}

void MaintenanceManager::Pin(const std::string& job, const std::vector<std::uint64_t>& ids) {
  {
    util::MutexLock lock(impl_->mu);
    impl_->pins[job].insert(ids.begin(), ids.end());
  }
}

void MaintenanceManager::Unpin(const std::string& job) {
  {
    util::MutexLock lock(impl_->mu);
    impl_->pins.erase(job);
  }
}

GcJobReport MaintenanceManager::GcAfterCommit(const std::string& job) {
  GcOptions options;
  options.keep_lineages = impl_->KeepOf(job);
  GcJobReport report = GcJob(*impl_->store, job, options, impl_->PinsOf(job));
  if (!report.refused.empty()) throw std::runtime_error("gc: " + report.refused);
  return report;
}

GcReport MaintenanceManager::Gc(const GcOptions& options) {
  GcReport report;
  report.dry_run = options.dry_run;
  for (const auto& job : ListStoreJobs(*impl_->store)) {
    GcOptions safe = options;
    // A live service cannot tell an in-flight checkpoint's objects from
    // orphans; orphan removal is for offline stores (cnr_inspect gc).
    safe.remove_orphans = false;
    safe.keep_lineages = std::max(options.keep_lineages, impl_->KeepOf(job));
    report.Add(GcJob(*impl_->store, job, safe, impl_->PinsOf(job)));
  }
  return report;
}

pipeline::ScrubReport MaintenanceManager::ScrubJobNow(const std::string& job) {
  return impl_->ScrubAndRecord(job);
}

const MaintenanceConfig& MaintenanceManager::config() const { return impl_->cfg; }

JobMaintenanceStats MaintenanceManager::job_stats(const std::string& job) const {
  util::MutexLock lock(impl_->mu);
  const auto it = impl_->jobs.find(job);
  return it == impl_->jobs.end() ? JobMaintenanceStats{} : it->second.stats;
}

std::map<std::string, JobMaintenanceStats> MaintenanceManager::stats_by_job() const {
  std::map<std::string, JobMaintenanceStats> out;
  util::MutexLock lock(impl_->mu);
  for (const auto& [job, meta] : impl_->jobs) out.emplace(job, meta.stats);
  return out;
}

}  // namespace cnr::core
