// Tiered write-back storage: a fast near tier absorbs commits at device
// speed, an async drainer replicates them to the slow far tier.
//
// Check-N-Run's premise is decoupling training from slow durable storage;
// FastPersist (PAPERS.md) pushes the same decoupling into the storage stack
// itself — checkpoint writes land on local NVMe and an asynchronous parallel
// drainer does the remote replication — and TrainingCXL makes the matching
// case for persistent-memory tiers. TieredStore is that idea as an
// ObjectStore decorator:
//
//   TieredStore
//   ├── near tier   fast, file-backed (NVMe/CXL model). Every Put commits
//   │               here and returns — the store stage runs at device speed.
//   ├── far tier    slow, durable (the remote object store). The drainer
//   │               copies dirty objects here and marks them clean.
//   └── drainer     a stage on the service's shared StageExecutor — no
//                   private threads. Double-buffered in FastPersist style:
//                   the near tier is the front buffer absorbing new commits
//                   while a bounded in-flight window (max_inflight_drain
//                   _bytes) streams the back buffer to the far link.
//                   Replication is strictly ordered per key: at most one
//                   in-flight far Put per key, and a key rewritten mid-drain
//                   is re-replicated, so the far tier never ends up holding
//                   an older version than one it already saw.
//
// Read-through: Get/Exists prefer the near tier, so restores of the *latest*
// checkpoint (the common failure case) never touch the remote link. Near
// capacity is managed by clean-object eviction (FIFO by clean time); dirty
// objects are pinned until drained, so the near tier can transiently exceed
// its capacity under backlog — by at most the drain backlog, which the
// operator watches via TierStats (docs/OPERATIONS.md "Tier sizing").
//
// Crash safety (the write-back contract): before an object's first near
// write of a dirty generation, an 8-byte dirty marker lands under
// ".tiered/dirty/<key>"; the marker is deleted only after the far copy
// landed. Marker and data writes are ordered marker-first, and every path
// that leaves an entry dirty re-asserts the marker if a concurrent event
// could have removed it during the unlocked data write (a drain completing
// and cleaning the key, or a racing Delete) — dirty always implies a marker
// on disk. A recovery scan (the constructor) therefore finds either a fully
// drained object or a dirty near copy — never a far-tier hole:
//   marker, no data   -> discarded (crash between marker and data; the Put
//                        never returned, the far tier still has the old
//                        version if any)
//   marker + data     -> re-queued for drain (idempotent far overwrite)
//   data, no marker   -> clean (the far copy exists)
// Delete cancels pending drains; deleting a key whose replication is in
// flight leaves a tombstone so the late far Put is deleted when it lands. A
// crash inside that window can leak the far copy as an unreferenced orphan —
// debris for orphan GC, never a resurrected live key and never a hole.
//
// Quota/GC cooperation: the service stacks AccountingStore *above* this
// decorator, so logical occupancy and the shared quota see each object once
// regardless of which tiers hold copies; per-tier occupancy parity
// (tier_stats() == SurveyNearTier/SurveyFarTier == `cnr_inspect tiers`) is
// the decorator's own invariant, maintained across eviction, GC deletes and
// mid-drain restarts. Maintenance survey/scrub and the delta-log plane see
// through the decorator via the read-through union List/Get.
//
// Concurrency (docs/CONCURRENCY.md): tier bookkeeping under one util::Mutex;
// bulk near/far transfers run with the lock released; only near-tier
// *metadata* ops (dirty markers, eviction deletes) run under mu_, which
// ranks above the near store's internal lock. The counters tier_stats() and
// Stats() report live under a separate leaf lock that is never held across
// I/O, so a stats probe never waits behind a marker fsync and never touches
// the far tier: far occupancy is kept incrementally (seeded by one far scan
// at construction, updated when a far Put or Delete completes). The drain
// stage never sleeps and never blocks on a sibling stage.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline/executor.h"
#include "storage/object_store.h"
#include "util/sync.h"

namespace cnr::storage {

struct TieredStoreConfig {
  // Near-tier data capacity in bytes; once exceeded, clean objects are
  // evicted oldest-drained-first. 0 = unbounded. Dirty objects are pinned
  // (never evicted), so backlog can push the near tier past this bound
  // transiently — size the tier for capacity + expected backlog.
  std::uint64_t near_capacity_bytes = 0;
  // Bound on the bytes concurrently in flight to the far tier (the back
  // buffer of the double-buffered drain). A single object larger than the
  // bound still drains alone. 0 = unbounded.
  std::uint64_t max_inflight_drain_bytes = 64ull << 20;
  // Starting worker allotment of the "tier-drain" stage on the shared
  // executor (the feedback controller re-sizes it from there).
  std::size_t drain_workers = 1;
  // Far-tier Put attempts per dirty generation before the object is parked
  // as stuck (still dirty-marked and pinned; a restart or a rewrite retries
  // it). 0 = retry forever — FlushDrains may then never return against a
  // dead far tier.
  int drain_attempts = 3;
  // Drain the backlog (and persist shutdown counters) in Shutdown()/the
  // destructor. Crash-consistency tests set false to model a process kill:
  // dirty markers stay behind for the next instance's recovery scan.
  bool flush_on_close = true;
};

// Live per-tier counters (ServiceStats::tier, `cnr_inspect tiers`).
struct TierStats {
  // Occupancy: data objects only — dirty markers and the shutdown-stats blob
  // (the ".tiered/" metadata namespace) are excluded on both sides of the
  // parity check.
  std::uint64_t near_bytes = 0;
  std::uint64_t near_objects = 0;
  std::uint64_t far_bytes = 0;
  std::uint64_t far_objects = 0;
  // Drain backlog: dirty (queued or replicating) plus stuck objects.
  std::uint64_t dirty_objects = 0;
  std::uint64_t dirty_bytes = 0;
  std::uint64_t draining_bytes = 0;  // in the in-flight window right now
  std::uint64_t stuck_objects = 0;   // parked after drain_attempts failures
  // Cumulative drainer work.
  std::uint64_t drained_objects = 0;
  std::uint64_t drained_bytes = 0;
  std::uint64_t drain_failures = 0;
  // Read-path tier counters.
  std::uint64_t near_hits = 0;
  std::uint64_t far_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t near_bytes_read = 0;
  std::uint64_t far_bytes_read = 0;
  // Capacity management.
  std::uint64_t evicted_objects = 0;
  std::uint64_t evicted_bytes = 0;

  double NearHitRatio() const {
    const std::uint64_t found = near_hits + far_hits;
    return found == 0 ? 1.0
                      : static_cast<double>(near_hits) / static_cast<double>(found);
  }
};

// Offline occupancy survey of one tier — the same arithmetic tier_stats()
// tracks live, recomputed from the store itself. Used by `cnr_inspect tiers`
// and the parity gates (stats() == survey == cnr_inspect).
struct TierSurvey {
  std::uint64_t objects = 0;  // data objects (".tiered/" metadata excluded)
  std::uint64_t bytes = 0;
  std::uint64_t dirty_objects = 0;  // marker-flagged data objects
  std::uint64_t dirty_bytes = 0;
};

TierSurvey SurveyTier(ObjectStore& tier);

class TieredStore : public ObjectStore {
 public:
  // Reserved near-tier metadata namespace (rejected as an object key).
  static constexpr const char* kMetaPrefix = ".tiered/";
  static constexpr const char* kDirtyPrefix = ".tiered/dirty/";
  static constexpr const char* kStatsKey = ".tiered/STATS";

  // Opens a "tier-drain" stage on `exec` and runs the recovery scan over the
  // near tier (re-queueing dirty-marked objects, discarding stale markers).
  // Both stores and the executor must outlive this object; call Shutdown()
  // (or destroy the store) while the executor is still alive.
  TieredStore(std::shared_ptr<ObjectStore> near_tier,
              std::shared_ptr<ObjectStore> far_tier,
              core::pipeline::StageExecutor& exec, TieredStoreConfig config = {});
  ~TieredStore() override;

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  // Commits to the near tier and returns; replication to the far tier is the
  // drainer's job. Throws StoreUnavailable after Shutdown().
  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  // Read-through: near tier first (dirty objects are only correct there),
  // far tier on a near miss (e.g. after eviction).
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override;
  // Deletes from both tiers and cancels the key's pending drain.
  bool Delete(const std::string& key) override;
  // Union of both tiers, deduplicated, metadata excluded.
  std::vector<std::string> List(const std::string& prefix) override;
  // Logical bytes of the union, near-preferred per key (a dirty near copy
  // counts; its stale far predecessor does not).
  std::uint64_t TotalBytes() override;
  StoreStats Stats() override;
  std::optional<std::uint64_t> SizeOf(const std::string& key) override;

  // Blocks until the drain backlog is empty (stuck objects excepted),
  // helping on the drain stage — safe to call from the feeding thread.
  void FlushDrains();

  // Flushes (per flush_on_close), persists shutdown counters to the near
  // tier, and closes the drain stage. Idempotent; called by the destructor.
  // Must run while the executor is alive.
  void Shutdown();

  // Never blocks on tier I/O and never calls the far tier.
  TierStats tier_stats() const EXCLUDES(stats_mu_);

  ObjectStore& near_tier() { return *near_; }
  ObjectStore& far_tier() { return *far_; }
  const TieredStoreConfig& config() const { return cfg_; }

 private:
  enum class State : std::uint8_t {
    kClean,  // near + far hold the same generation
    kDirty,  // near is newer; queued for (or undergoing) replication
    kStuck,  // drain_attempts exhausted; pinned dirty until rewrite/restart
  };

  struct Entry {
    State state = State::kClean;
    bool queued = false;      // has a live occurrence in drain_queue_
    // Whether the key's dirty marker object is on disk in the near tier.
    // Set only after a successful marker Put under mu_, cleared when the
    // marker is deleted — so "state != kClean implies marker" is checkable
    // (and repairable) at every transition. A clean entry may transiently
    // keep marker=true if a drain's marker delete failed (harmless debris).
    bool marker = false;
    int attempts = 0;         // far Put failures of the current generation
    std::uint64_t size = 0;   // near-resident data bytes
    std::uint64_t gen = 0;    // bumped by every Put; orders replication
  };

  static std::string MarkerKey(const std::string& key);
  static void RejectMetaKey(const std::string& key, const char* op);

  // The published counters: tier occupancy, backlog and hits, plus the
  // logical op counters. Occupancy and backlog change together with the
  // mu_-guarded bookkeeping they count; tier_stats()/Stats() read them all
  // without mu_.
  struct Counters {
    TierStats tier;
    StoreStats ops;
  };

  // Drain stage: replicate at most one dirty object to the far tier.
  bool DrainOne();
  // `far_put_attempted` is false when the near copy was gone before the far
  // Put; `replicated_bytes` is the size of the far copy that landed, or
  // nullopt when the far Put failed (or was never attempted).
  void FinishDrain(const std::string& key, std::uint64_t gen, std::uint64_t size,
                   bool far_put_attempted,
                   std::optional<std::uint64_t> replicated_bytes);

  void QueueDirtyLocked(const std::string& key, Entry& entry) REQUIRES(mu_);
  void EndWriteLocked(const std::string& key) REQUIRES(mu_);
  void EvictForCapacityLocked() REQUIRES(mu_);
  // Ends one in-flight far Delete of `key`; re-queues a drain it deferred
  // and returns the number of drain units to kick.
  std::size_t EndFarDeleteLocked(const std::string& key) REQUIRES(mu_);
  // Records what the far tier holds for `key` after a far op completed.
  void SetFarSizeLocked(const std::string& key, std::optional<std::uint64_t> size)
      REQUIRES(mu_);
  template <typename Fn>
  void Count(Fn&& fn) EXCLUDES(stats_mu_) {
    util::MutexLock lock(stats_mu_);
    fn(counters_);
  }

  std::shared_ptr<ObjectStore> near_;
  std::shared_ptr<ObjectStore> far_;
  core::pipeline::StageExecutor& exec_;
  TieredStoreConfig cfg_;
  core::pipeline::StageExecutor::StageId drain_stage_ = 0;

  mutable util::Mutex mu_;
  // Every near-resident data object (clean, dirty, or stuck). Absent keys
  // live only in the far tier (or nowhere).
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
  // Dirty keys awaiting a drain worker (may hold stale occurrences; the
  // Entry::queued flag arbitrates). FIFO preserves rough commit order.
  std::deque<std::string> drain_queue_ GUARDED_BY(mu_);
  // key -> generation currently being replicated (at most one per key).
  std::map<std::string, std::uint64_t> draining_ GUARDED_BY(mu_);
  // Clean keys in eviction order (oldest drained first; stale occurrences
  // of re-dirtied or deleted keys are skipped).
  std::deque<std::string> clean_fifo_ GUARDED_BY(mu_);
  // Keys deleted while their replication was in flight: the far copy must be
  // re-deleted when the late Put lands, and reads must not resurrect it.
  std::set<std::string> tombstones_ GUARDED_BY(mu_);
  // Keys with an unlocked near data write in flight (count of concurrent
  // Puts). Eviction must not delete their near data out from under the
  // write — a clean entry about to be re-dirtied would lose the new bytes.
  std::map<std::string, int> writing_ GUARDED_BY(mu_);
  // Keys whose far Delete is in flight (a Delete's, or a drain completion
  // removing a copy its tombstone condemned), counted. A drain of the key
  // waits for it, so far ops on one key never race: a re-Put's fresh far
  // copy cannot be deleted behind it, and the far index below stays exact.
  std::map<std::string, int> far_deleting_ GUARDED_BY(mu_);
  // Far-resident data objects and their sizes: seeded from one far scan at
  // construction, then updated as far Puts and Deletes complete.
  std::map<std::string, std::uint64_t> far_sizes_ GUARDED_BY(mu_);

  std::uint64_t gen_seq_ GUARDED_BY(mu_) = 0;
  // Bumped by every Delete. A Put snapshots it before releasing mu_ for the
  // bulk near write and re-asserts its dirty marker afterwards if any Delete
  // ran in between (the racing Delete may have removed the marker).
  std::uint64_t delete_seq_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  bool stage_closed_ GUARDED_BY(mu_) = false;

  // Leaf lock (rank 4): taken inside mu_ or alone, never held across I/O or
  // while taking any other lock.
  mutable util::Mutex stats_mu_ ACQUIRED_AFTER(mu_);
  Counters counters_ GUARDED_BY(stats_mu_);

  // Dirty + replicating object count (stuck excluded so FlushDrains
  // terminates against a dead far tier). Atomic: HelpUntil's predicate.
  std::atomic<std::uint64_t> pending_{0};
};

// Decodes the shutdown-counter blob a clean Shutdown() leaves under
// kStatsKey (read-path hit counters for `cnr_inspect tiers`). Returns
// nullopt for a missing or unrecognized blob.
std::optional<TierStats> DecodeShutdownCounters(
    const std::vector<std::uint8_t>& blob);

}  // namespace cnr::storage
