// The store maintenance plane: reconciliation, quota-aware GC, self-scrub.
//
// Check-N-Run's storage story (paper §7) is only half told by the write
// path: a multi-tenant tier stays healthy because something keeps it
// truthful (occupancy accounting survives service restarts), keeps it within
// quota (stale lineages are evicted before a live job's checkpoint is
// failed), and keeps it *restorable* (the stored chains are re-read and
// cross-checked before a real failure needs them — CPR's observation that
// the recovery path, not the write path, is what decides an outage). This
// header is that maintenance plane, in three parts:
//
//   1. Survey kernels — SurveyJob / ListStoreJobs / KeptLineages reconstruct
//      a job's occupancy, live chain, stale lineages, and orphaned objects
//      from nothing but the manifests in the store. They are the shared
//      ground truth behind startup reconciliation, GC planning, the
//      `cnr_inspect <dir> jobs` overview, and the occupancy-parity invariant
//      (docs/MANIFEST_FORMAT.md).
//   2. Retention — PlanRetention is the one rule deciding what recovery no
//      longer needs (paper §4.4), and GcJob the one per-job GC kernel built
//      on it. Every deleter runs them: a plain job's post-commit hook, a
//      committed cut, MaintenanceManager::Gc, quota eviction, the CheckFreq
//      baseline, and `cnr_inspect <dir> gc`.
//   3. MaintenanceManager — the object core::CheckpointService owns: it
//      seeds the AccountingStore from the store's manifests at start
//      (reconciliation), evicts stale lineages in priority order when a
//      checkpoint trips the shared quota (instead of failing the submit),
//      and runs pipeline::ScrubChainParallel over each job's live chain —
//      plus core::ScrubDeltaLog over the live checkpoint's delta log — on a
//      util::SimClock-driven schedule (background self-scrub) so
//      simulated-time tests can compress days of scrubbing into
//      milliseconds. Scheduled scrubs run one job at a time as a stage on
//      the shared pipeline::StageExecutor (MaintenanceConfig::executor — the
//      service passes its own).
//
// The manager keeps no copy of store state: every scrub, every quota
// eviction and every explicit Gc() reads the store at the moment it acts,
// so a write by another process, or bit rot, is seen by the next one. The
// one exception is post-commit GC (GcAfterCommit), which runs on the commit
// path of a job the service writes: it plans from the lineage index of the
// accounting view (storage::AccountingStore, the records of the MANIFEST
// and COORD objects the service wrote) plus one List, and surveys only when
// that List disagrees with the index. An in-place overwrite of a
// publication object made outside the service is therefore not seen by
// post-commit GC until a scrub finds it: a scrub that is not clean drops the
// job's records, so the job's next post-commit GC surveys. Gc() and quota
// eviction see such damage on their own.
//
// Operator-facing semantics (eviction order, what a scrub failure means,
// restart behavior, quota sizing) are documented in docs/OPERATIONS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline/restore.h"
#include "storage/accounting_store.h"
#include "storage/manifest.h"
#include "storage/object_store.h"
#include "util/sim_clock.h"

namespace cnr::core {

// ------------------------------------------------------------ survey --------

// One coordinated cut (manifest v3, core/sharded_checkpoint.h) of a sharded
// job, as surveyed from its jobs/<job>/cut/<epoch>/COORD object.
struct CutSurvey {
  std::uint64_t epoch = 0;
  std::string manifest_key;           // .../cut/<epoch>/COORD
  std::uint64_t manifest_bytes = 0;
  std::string dense_key;              // the cut's dense blob ("" if none)
  std::uint64_t dense_bytes = 0;
  std::vector<storage::ShardCutEntry> shard_map;  // shard -> sub-checkpoint id

  std::uint64_t object_bytes() const { return manifest_bytes + dense_bytes; }
};

// Everything the manifests of one job say about its footprint in the store.
// Built by SurveyJob with reads only — the kernel behind reconciliation, GC
// planning, and the offline `cnr_inspect <dir> jobs` overview.
struct JobSurvey {
  std::string job;
  std::vector<std::uint64_t> ids;         // manifested checkpoint ids, ascending
  // For an unsharded job: the newest id's recovery chain, oldest first. For a
  // job with coordinated cuts: the union of the newest cut's shards' chains
  // plus every id newer than that cut (in-flight or torn-cut leftovers —
  // indistinguishable from the next cut being written), ascending.
  std::vector<std::uint64_t> live_chain;
  std::vector<std::uint64_t> stale;       // manifested ids NOT on the live chain, ascending
  // parent_id per incremental checkpoint (fulls are absent) — enough to
  // recompute chains in memory (KeptLineages) without re-reading the store.
  std::map<std::uint64_t, std::uint64_t> parent_of;
  // Every object the manifests attribute to the job: key -> stored bytes
  // (chunk/dense sizes from the manifests, manifest objects measured).
  std::map<std::string, std::uint64_t> objects;
  // id -> bytes, INCLUDING the id's delta-log segments (dlog_bytes_by_base):
  // a base checkpoint and its per-iteration delta stream are one lineage
  // unit, so quota accounting, eviction sizing, and GC reports never split
  // them.
  std::map<std::uint64_t, std::uint64_t> bytes_by_checkpoint;
  // Delta-log bytes per base checkpoint (core/delta_log.h): every object
  // under jobs/<job>/dlog/<base>/ whose base is manifested. A delta log
  // whose base manifest is gone is debris and surfaces in `orphans`. Segment
  // objects are sized with ObjectStore::SizeOf, never downloaded — the log
  // is part of a manifested lineage, so unlike orphans it is measured even
  // when measure_orphans = false.
  std::map<std::uint64_t, std::uint64_t> dlog_bytes_by_base;
  // Keys under the job's prefix referenced by NO manifest: chunks of
  // checkpoints that failed before publishing, or debris of a crashed run.
  // Orphans are sized with SizeOf and included in `objects`, so
  // reconciliation accounts for them too — they occupy quota like anything.
  std::vector<std::string> orphans;
  // Coordinated cuts of the job, ascending by epoch (empty for unsharded
  // jobs). A cut's COORD/dense objects are in `objects`; the newest cut's
  // count toward live_bytes, older cuts' toward stale_bytes.
  std::vector<CutSurvey> cuts;
  std::uint64_t live_bytes = 0;    // objects on the live chain
  std::uint64_t stale_bytes = 0;   // objects on stale lineages
  std::uint64_t orphan_bytes = 0;  // unreferenced objects

  std::uint64_t total_bytes() const { return live_bytes + stale_bytes + orphan_bytes; }
};

// Jobs with any object under the "jobs/<job>/" key convention.
std::vector<std::string> ListStoreJobs(storage::ObjectStore& store);

// Surveys one job with reads only: one List of the job's prefix, one Get
// per manifest, and a SizeOf (a stat, no payload) for every other object it
// measures. Tolerant of damage: a manifest that is missing or undecodable
// ends the chain walk instead of throwing (scrub is the tool that
// *diagnoses* damage; the survey just refuses to count what it cannot
// prove).
//
// Callers that only need the manifested lineages (quota eviction, GC
// without orphan removal) pass measure_orphans = false and get an empty
// orphan set — on a live store every in-flight checkpoint's chunks look
// like orphans.
JobSurvey SurveyJob(storage::ObjectStore& store, const std::string& job,
                    bool measure_orphans = true);

// The survey post-commit GC plans from (MaintenanceManager::GcAfterCommit),
// read from the accounting view's lineage index
// (storage::AccountingStore::Publications) plus one List of the job's prefix
// through `store`, with no Get. Its ids, parent links, cuts, per-checkpoint
// bytes (delta-log objects measured through `store`, as SurveyJob does) and
// live/stale split are SurveyJob's whenever the index saw every publication
// object the store holds; it reports no orphans. nullopt when the List's
// publication keys are not exactly the index's keys for the job — the
// caller surveys instead.
std::optional<JobSurvey> SurveyFromIndex(const storage::AccountingStore& accounting,
                                         storage::ObjectStore& store, const std::string& job);

// Ids on the recovery chains of the `keep_lineages` newest manifested
// checkpoints. Computed from the survey's in-memory parent links;
// keep_lineages == 0 is treated as 1 (the newest lineage is sacred).
//
// Cut-aware: for a job with coordinated cuts, a "lineage" is a whole cut —
// the union of the cut's shards' recovery chains. Keeping the newest
// `keep_lineages` cuts keeps every id any of them can reach (evicting half a
// cut would tear it), plus every id newer than the newest cut (the next cut
// in flight).
std::set<std::uint64_t> KeptLineages(const JobSurvey& survey, std::size_t keep_lineages);

// ------------------------------------------------------------ retention -----

// One unit the retention rule may delete: a coordinated cut beyond
// retention (its COORD/dense objects plus the sub-checkpoints reachable ONLY
// through it — ids a newer or kept cut also reaches are attributed to that
// cut, so deleting units in order never tears a cut that remains), or one
// checkpoint on no kept lineage.
struct LineageUnit {
  bool is_cut = false;
  std::uint64_t epoch = 0;               // the cut's epoch (is_cut)
  std::vector<std::uint64_t> ids;        // manifested checkpoints, ascending
  std::vector<std::uint64_t> dlog_ids;   // the ids whose delta log the survey saw
  std::uint64_t bytes = 0;               // ids (with their logs) + cut objects
};

struct RetentionPlan {
  // Non-empty: the job's newest lineage (the newest checkpoint's chain, or
  // every shard chain of the newest cut) does not reach a full checkpoint,
  // so nothing may be deleted — the older lineages may be the only
  // restorable state left. Says which manifest is missing or unreadable.
  std::string refused;
  // What recovery no longer needs, in deletion order: cuts oldest first,
  // then single checkpoints ascending.
  std::vector<LineageUnit> units;
};

// The one retention rule. Keeps KeptLineages(survey, keep_lineages), plus
// the chains of `pinned` ids — sub-checkpoints of a cut in flight whose
// COORD the survey cannot see yet (MaintenanceManager::Pin) — and never
// splits a cut. Pure: reads only the survey.
RetentionPlan PlanRetention(const JobSurvey& survey, std::size_t keep_lineages,
                            const std::set<std::uint64_t>& pinned = {});

// ------------------------------------------------------------ gc ------------

struct GcOptions {
  // Report what would be deleted without deleting anything.
  bool dry_run = false;
  // Lineages to retain per job (overridden upward by a registered job's
  // keep_checkpoints when run through MaintenanceManager::Gc).
  std::size_t keep_lineages = 1;
  // Also delete unreferenced objects. Only safe when no writer is active:
  // a live service's in-flight checkpoints look exactly like orphans until
  // their manifest publishes. `cnr_inspect gc --orphans` (offline) may use
  // it; MaintenanceManager::Gc refuses to.
  bool remove_orphans = false;
};

struct GcJobReport {
  std::string job;
  std::vector<std::uint64_t> evicted;  // checkpoint ids deleted (or would be)
  // Coordinated cut epochs whose COORD/dense objects were deleted (their
  // exclusive sub-checkpoints appear in `evicted`).
  std::vector<std::uint64_t> evicted_cuts;
  std::uint64_t bytes_freed = 0;       // evicted checkpoints + cut objects
  std::size_t orphans_removed = 0;
  std::uint64_t orphan_bytes = 0;
  // RetentionPlan::refused: the job's newest lineage is broken, so this GC
  // deleted nothing (orphans included) for the job.
  std::string refused;
};

struct GcReport {
  bool dry_run = false;
  std::vector<GcJobReport> jobs;  // only jobs with something to report
  std::uint64_t bytes_freed = 0;  // checkpoints + orphans, across jobs

  std::size_t checkpoints_evicted() const {
    std::size_t n = 0;
    for (const auto& j : jobs) n += j.evicted.size();
    return n;
  }
  // Appends one job's report if it deleted (or refused) anything.
  void Add(GcJobReport job);
};

// The per-job GC kernel: surveys `job` (SurveyJob), plans retention with
// options.keep_lineages and `pinned`, and deletes (or, dry-run, reports)
// every unit of the plan. Deletes go through `store`, so running it over an
// accounting view keeps occupancy truthful. A unit's publication object
// (COORD, MANIFEST) is deleted before the objects it references, and an
// evicted checkpoint's delta log (jobs/<job>/dlog/<id>/) goes with it — the
// log is useless without its base, and `bytes_freed` already counts it.
// Never throws on a refusal: it reports it (GcJobReport::refused).
GcJobReport GcJob(storage::ObjectStore& store, const std::string& job,
                  const GcOptions& options = {}, const std::set<std::uint64_t>& pinned = {});

// GcJob over every job in the store — offline GC (`cnr_inspect <dir> gc`).
GcReport GcStore(storage::ObjectStore& store, const GcOptions& options = {});

// ------------------------------------------------------- the manager --------

struct MaintenanceConfig {
  // Evict stale lineages (lowest priority first) and retry when a checkpoint
  // write trips the shared quota, instead of failing the checkpoint
  // (WithQuotaEviction).
  bool evict_on_quota = true;
  // Simulated clock driving per-job scrub schedules; nullptr disables
  // background scrubbing entirely. The clock must outlive the manager.
  util::SimClock* clock = nullptr;
  // Stage runtime every scrub (and its inner fetch/decode stages) runs on —
  // the service passes its shared executor, so scrub I/O is arbitrated
  // against the write stages by the same controller. Required when `clock`
  // is set (the scheduled scrubs run as a stage on it); null otherwise
  // means each on-demand scrub provisions a private executor for its run.
  // Must outlive the manager.
  pipeline::StageExecutor* executor = nullptr;
};

// Live maintenance counters of one job.
struct JobMaintenanceStats {
  std::uint64_t scrubs_run = 0;
  std::uint64_t scrub_issues = 0;  // cumulative across runs
  std::uint64_t evicted_checkpoints = 0;
  std::uint64_t evicted_bytes = 0;
  util::SimTime last_scrub_at = -1;  // -1 = never scrubbed
  bool last_scrub_clean = true;
  std::vector<pipeline::ScrubIssue> last_issues;  // of the latest scrub
};

// The maintenance plane of one CheckpointService (or of a store, standalone:
// the manager only needs the accounting view and a store to read/delete
// through). Thread-safe; eviction is serialized internally so concurrent
// quota trips from several store workers cannot double-evict.
class MaintenanceManager {
 public:
  // `store` is what maintenance reads and deletes through — for a service
  // that is its retrying view, so scrub fetches and GC deletes share the
  // write path's retry policy and are seen by `accounting`.
  MaintenanceManager(std::shared_ptr<storage::AccountingStore> accounting,
                     std::shared_ptr<storage::ObjectStore> store,
                     MaintenanceConfig config = {});
  ~MaintenanceManager();  // closes the scrub stage, unsubscribes the clock

  MaintenanceManager(const MaintenanceManager&) = delete;
  MaintenanceManager& operator=(const MaintenanceManager&) = delete;

  // Startup reconciliation: surveys the store's manifests and seeds the
  // accounting view with every pre-existing object, so stats() over a
  // restarted service reports truthful per-job occupancy without a single
  // write. Idempotent (seeding skips tracked keys). Returns objects seeded.
  std::size_t ReconcileAll();
  std::size_t ReconcileJob(const std::string& job);

  // Registers a job's maintenance policy: its eviction priority (lower is
  // evicted first; jobs never registered default to 0 — abandoned residue
  // goes first), its retention floor, and its scrub cadence (0 = no
  // background scrub). Unregister keeps the priority/retention on record so
  // a closed job's lineages are still evicted in the right order.
  void RegisterJob(const std::string& job, std::uint32_t priority,
                   std::size_t keep_lineages, util::SimTime scrub_interval);
  void UnregisterJob(const std::string& job);

  // Quota-pressure eviction: deletes the units PlanRetention offers with a
  // retention of one lineage, in (priority, job, plan) order — stale cuts
  // oldest first, then stale checkpoints oldest first — until at least
  // `needed_bytes` of tracked occupancy is freed or no candidate remains.
  // Never touches a job's newest lineage, a pinned or unpublished
  // (in-flight) checkpoint, or any job whose plan refused. Returns the bytes
  // freed — 0 means nothing evictable is left. Each call surveys every store
  // job afresh (one List + manifest walk per job), so a job written by
  // another service on the same tier is ordered by what is stored now.
  std::uint64_t EvictForQuota(std::uint64_t needed_bytes, const std::string& requesting_job);

  // The one quota-retry loop: runs `write`; on storage::QuotaExceeded evicts
  // (EvictForQuota(needed_bytes, job)) and retries while eviction frees
  // bytes. When eviction frees nothing, one final attempt tells "store
  // genuinely full" from "a concurrent trip already evicted for us"; its
  // QuotaExceeded stands. With config().evict_on_quota off, the first
  // QuotaExceeded stands. `write` must be safe to re-run.
  void WithQuotaEviction(const std::string& job, std::uint64_t needed_bytes,
                         const std::function<void()>& write);

  // Protects checkpoints whose unit the survey cannot see yet: a sharded
  // job's sub-checkpoints before the COORD that ties them into a cut lands.
  // Pinned ids, and the chains of those already published, are kept by
  // every GC and never offered to quota eviction. Unpin drops all of the
  // job's pins — once a COORD landed, KeptLineages protects the same ids.
  void Pin(const std::string& job, const std::vector<std::uint64_t>& ids);
  void Unpin(const std::string& job);

  // The GC after a commit — a plain job's post-commit hook, a committed
  // cut: GcJob's plan and deletes over `job` only, with its registered
  // retention and pins. It reads no manifest: the survey it plans from is
  // SurveyFromIndex — the accounting view's publication records plus one
  // List of the job's prefix. When that List's MANIFEST/COORD keys are not
  // exactly the index's (a racing or failed publication write, another
  // writer on the tier, the first GC after the service opened on a
  // non-empty store or after a scrub found the job damaged), it runs
  // SurveyJob instead, as GcJob does, and
  // replaces the job's records with what the survey read.
  // Throws std::runtime_error, having deleted nothing, when the plan
  // refuses (the job's newest lineage does not reach a full checkpoint).
  GcJobReport GcAfterCommit(const std::string& job);

  // Explicit GC with dry-run reporting: GcJob over every store job.
  // Retention is the max of options.keep_lineages and each registered job's
  // keep_lineages, so a store-wide sweep cannot violate a job's configured
  // retention; pins are honored. Refused jobs are reported, not thrown.
  // Refuses to remove orphans (options.remove_orphans is ignored): in-flight
  // checkpoints are indistinguishable from orphans on a live store.
  GcReport Gc(const GcOptions& options = {});

  // One immediate scrub of the job's live chain through the parallel scrub
  // kernel, followed by the live checkpoint's delta log
  // (core::ScrubDeltaLog) — base + segments are verified as one lineage
  // unit; also what the background schedule runs. A job with no checkpoints
  // yields an empty, clean report. Every scrub fetches every object of the
  // live chain and its delta log, so silent bit rot is found on the next one.
  // A scrub that is not clean also drops the job's records from the lineage
  // index, so the job's next post-commit GC surveys the store.
  pipeline::ScrubReport ScrubJobNow(const std::string& job);

  JobMaintenanceStats job_stats(const std::string& job) const;
  std::map<std::string, JobMaintenanceStats> stats_by_job() const;

  const MaintenanceConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cnr::core
