#include "storage/tiered_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/serialize.h"

namespace cnr::storage {

namespace {

constexpr std::uint32_t kStatsMagic = 0x54494552;  // "TIER"
constexpr std::uint32_t kStatsVersion = 1;

bool IsMetaKey(const std::string& key) {
  return std::string_view(key).starts_with(TieredStore::kMetaPrefix);
}

std::vector<std::uint8_t> MarkerPayload(std::uint64_t gen) {
  util::Writer w(sizeof(std::uint64_t));
  w.Put<std::uint64_t>(gen);
  return w.TakeBytes();
}

std::vector<std::uint8_t> EncodeShutdownCounters(const TierStats& stats) {
  util::Writer w(96);
  w.Put<std::uint32_t>(kStatsMagic);
  w.Put<std::uint32_t>(kStatsVersion);
  w.Put<std::uint64_t>(stats.near_hits);
  w.Put<std::uint64_t>(stats.far_hits);
  w.Put<std::uint64_t>(stats.misses);
  w.Put<std::uint64_t>(stats.near_bytes_read);
  w.Put<std::uint64_t>(stats.far_bytes_read);
  w.Put<std::uint64_t>(stats.drained_objects);
  w.Put<std::uint64_t>(stats.drained_bytes);
  w.Put<std::uint64_t>(stats.drain_failures);
  w.Put<std::uint64_t>(stats.evicted_objects);
  w.Put<std::uint64_t>(stats.evicted_bytes);
  return w.TakeBytes();
}

}  // namespace

TierSurvey SurveyTier(ObjectStore& tier) {
  TierSurvey survey;
  std::set<std::string> dirty;
  const std::string_view dirty_prefix(TieredStore::kDirtyPrefix);
  for (const auto& marker : tier.List(std::string(dirty_prefix))) {
    dirty.insert(marker.substr(dirty_prefix.size()));
  }
  for (const auto& key : tier.List("")) {
    if (IsMetaKey(key)) continue;
    const std::uint64_t size = tier.SizeOf(key).value_or(0);
    ++survey.objects;
    survey.bytes += size;
    if (dirty.contains(key)) {
      ++survey.dirty_objects;
      survey.dirty_bytes += size;
    }
  }
  return survey;
}

std::optional<TierStats> DecodeShutdownCounters(
    const std::vector<std::uint8_t>& blob) {
  try {
    util::Reader r(blob.data(), blob.size());
    if (r.Get<std::uint32_t>() != kStatsMagic) return std::nullopt;
    if (r.Get<std::uint32_t>() != kStatsVersion) return std::nullopt;
    TierStats stats;
    stats.near_hits = r.Get<std::uint64_t>();
    stats.far_hits = r.Get<std::uint64_t>();
    stats.misses = r.Get<std::uint64_t>();
    stats.near_bytes_read = r.Get<std::uint64_t>();
    stats.far_bytes_read = r.Get<std::uint64_t>();
    stats.drained_objects = r.Get<std::uint64_t>();
    stats.drained_bytes = r.Get<std::uint64_t>();
    stats.drain_failures = r.Get<std::uint64_t>();
    stats.evicted_objects = r.Get<std::uint64_t>();
    stats.evicted_bytes = r.Get<std::uint64_t>();
    return stats;
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
}

std::string TieredStore::MarkerKey(const std::string& key) {
  return std::string(kDirtyPrefix) + key;
}

void TieredStore::RejectMetaKey(const std::string& key, const char* op) {
  if (IsMetaKey(key)) {
    throw std::invalid_argument(std::string("TieredStore::") + op +
                                ": key in reserved namespace: " + key);
  }
}

TieredStore::TieredStore(std::shared_ptr<ObjectStore> near_tier,
                         std::shared_ptr<ObjectStore> far_tier,
                         core::pipeline::StageExecutor& exec,
                         TieredStoreConfig config)
    : near_(std::move(near_tier)),
      far_(std::move(far_tier)),
      exec_(exec),
      cfg_(config) {
  if (!near_ || !far_) {
    throw std::invalid_argument("TieredStore: both tiers are required");
  }
  if (cfg_.drain_workers == 0) cfg_.drain_workers = 1;

  // The one far scan: far occupancy is tracked incrementally from here on.
  std::map<std::string, std::uint64_t> far_sizes;
  for (const auto& key : far_->List("")) {
    if (IsMetaKey(key)) continue;
    if (const auto size = far_->SizeOf(key)) far_sizes.emplace(key, *size);
  }

  // Recovery scan: rebuild the entry map from the near tier. A dirty marker
  // with data means the drain (or the process) died mid-replication — the
  // near copy is authoritative, re-queue it. A marker without data means the
  // crash hit between marker and data; the Put never returned, discard it.
  std::size_t recovered = 0;
  {
    util::MutexLock lock(mu_);
    far_sizes_ = std::move(far_sizes);
    TierStats seeded;
    seeded.far_objects = far_sizes_.size();
    for (const auto& [key, size] : far_sizes_) seeded.far_bytes += size;
    std::set<std::string> dirty;
    const std::string_view dirty_prefix(kDirtyPrefix);
    for (const auto& marker : near_->List(std::string(dirty_prefix))) {
      dirty.insert(marker.substr(dirty_prefix.size()));
    }
    for (const auto& key : near_->List("")) {
      if (IsMetaKey(key)) continue;
      Entry entry;
      entry.size = near_->SizeOf(key).value_or(0);
      entry.gen = ++gen_seq_;
      if (dirty.erase(key) > 0) {
        entry.state = State::kDirty;
        entry.marker = true;
        entry.queued = true;
        drain_queue_.push_back(key);
        ++seeded.dirty_objects;
        seeded.dirty_bytes += entry.size;
        pending_.fetch_add(1);
        ++recovered;
      } else {
        entry.state = State::kClean;
        clean_fifo_.push_back(key);
      }
      ++seeded.near_objects;
      seeded.near_bytes += entry.size;
      entries_.emplace(key, entry);
    }
    Count([&seeded](Counters& c) { c.tier = seeded; });
    for (const auto& stale : dirty) {
      try {
        near_->Delete(MarkerKey(stale));
      } catch (...) {
        // best effort: an undeletable stale marker is re-discarded next scan
      }
    }
    EvictForCapacityLocked();
  }

  drain_stage_ = exec_.OpenStage(
      core::pipeline::TunableStage("tier-drain", cfg_.drain_workers),
      [this] { return DrainOne(); });
  if (recovered > 0) exec_.Submit(drain_stage_, recovered);
}

TieredStore::~TieredStore() {
  try {
    Shutdown();
  } catch (...) {
    // destructor: a failed flush must not terminate; backlog stays marked
  }
}

void TieredStore::QueueDirtyLocked(const std::string& key, Entry& entry) {
  entry.queued = true;
  drain_queue_.push_back(key);
}

void TieredStore::EndWriteLocked(const std::string& key) {
  const auto it = writing_.find(key);
  if (it != writing_.end() && --it->second <= 0) writing_.erase(it);
}

void TieredStore::Put(const std::string& key, std::vector<std::uint8_t> data) {
  RejectMetaKey(key, "Put");
  const std::uint64_t logical_size = data.size();
  std::uint64_t delete_snapshot = 0;
  bool wrote_marker = false;
  {
    util::MutexLock lock(mu_);
    if (closed_) throw StoreUnavailable("TieredStore: shut down");
    delete_snapshot = delete_seq_;
    const auto it = entries_.find(key);
    // Crash ordering: the dirty marker must be durable before the data write
    // can land, so a recovery scan never mistakes a half-replicated object
    // for clean. Marker writes are tiny near-tier metadata ops and run under
    // mu_ (mu_ ranks above the near store's internal lock).
    if (it == entries_.end() || !it->second.marker) {
      near_->Put(MarkerKey(key), MarkerPayload(gen_seq_ + 1));
      wrote_marker = true;
      if (it != entries_.end()) it->second.marker = true;
    }
    ++writing_[key];
  }

  try {
    near_->Put(key, std::move(data));
  } catch (...) {
    // The near write failed: prior content (if any) is intact, but a marker
    // now flags the key. If the entry is clean, re-dirty it so the marker
    // stays truthful (re-draining the old generation is an idempotent far
    // overwrite). If the key is absent, leave the stale marker — the next
    // recovery scan discards markers without data.
    std::size_t kick = 0;
    {
      util::MutexLock lock(mu_);
      EndWriteLocked(key);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.state == State::kClean) {
        it->second.state = State::kDirty;
        it->second.attempts = 0;
        it->second.gen = ++gen_seq_;
        const std::uint64_t size = it->second.size;
        Count([size](Counters& c) {
          ++c.tier.dirty_objects;
          c.tier.dirty_bytes += size;
        });
        pending_.fetch_add(1);
        if (!it->second.marker) {
          try {
            near_->Put(MarkerKey(key), MarkerPayload(it->second.gen));
            it->second.marker = true;
          } catch (...) {
            // still unmarked; DrainOne repairs before replicating
          }
        }
        if (!it->second.queued && !draining_.contains(key)) {
          QueueDirtyLocked(key, it->second);
          kick = 1;
        }
      }
    }
    if (kick != 0) exec_.Submit(drain_stage_, kick);
    throw;
  }

  std::size_t kick = 0;
  {
    util::MutexLock lock(mu_);
    EndWriteLocked(key);
    Count([logical_size](Counters& c) {
      ++c.ops.puts;
      c.ops.bytes_written += logical_size;
    });
    const bool delete_raced = delete_seq_ != delete_snapshot;
    // Concurrent Puts to the same key run their data writes unlocked, so the
    // near tier's content is last-writer-wins. Reconcile the recorded size
    // with what actually resides so occupancy stays in parity with the
    // survey; the generation bump below guarantees the final content is
    // (re-)replicated whichever writer's bytes survived.
    std::optional<std::uint64_t> resident;
    try {
      resident = near_->SizeOf(key);
    } catch (...) {
      resident = logical_size;  // stat failed; fall back to the payload size
    }
    if (!resident) {
      // The data landed yet the key has no near object: a racing Delete
      // removed it after our write, so the Delete is the later operation and
      // the key stays dead (any in-flight far Put is caught by its
      // tombstone). Drop the marker debris — Delete only removes the marker
      // when it finds an entry, and a first Put of a key has none.
      try {
        near_->Delete(MarkerKey(key));
      } catch (...) {
        // marker without data is discarded by the next recovery scan
      }
      return;
    }
    const std::uint64_t size = *resident;
    if (tombstones_.erase(key) > 0) pending_.fetch_sub(1);
    const auto [it, inserted] = entries_.try_emplace(key);
    Entry& entry = it->second;
    const std::uint64_t prior = inserted ? 0 : entry.size;
    // The marker written (or observed) before the data write may be gone: a
    // racing Delete removes it, and a drain that completed during our data
    // write cleans the key and deletes it (the clean->dirty transition below
    // would then leave a dirty object a crash recovery would call clean —
    // stale far data served after eviction). Prove it present or re-assert.
    const bool have_marker =
        (!inserted && entry.marker) || (wrote_marker && !delete_raced);
    const bool was_clean = inserted || entry.state == State::kClean;
    const bool was_stuck = !inserted && entry.state == State::kStuck;
    if (was_clean || was_stuck) {
      entry.state = State::kDirty;
      entry.attempts = 0;
      pending_.fetch_add(1);
    }
    Count([&](Counters& c) {
      if (inserted) ++c.tier.near_objects;
      c.tier.near_bytes += size - prior;
      if (was_clean) {
        ++c.tier.dirty_objects;  // a clean entry was not in the backlog
        c.tier.dirty_bytes += size;
      } else {
        if (was_stuck) --c.tier.stuck_objects;
        c.tier.dirty_bytes += size - prior;
      }
    });
    entry.size = size;
    entry.gen = ++gen_seq_;
    // A key already replicating is deferred: its completion sees the gen
    // mismatch and re-queues, preserving strict per-key far-write order.
    if (!entry.queued && !draining_.contains(key)) {
      QueueDirtyLocked(key, entry);
      kick = 1;
    }
    if (have_marker) {
      entry.marker = true;
    } else {
      // Must not throw past this point: the data is committed and the drain
      // unit is queued — an escaping exception would drop the stage kick and
      // stall the key's backlog. On failure the entry stays flagged
      // unmarked and DrainOne repairs it before replicating.
      try {
        near_->Put(MarkerKey(key), MarkerPayload(entry.gen));
        entry.marker = true;
      } catch (...) {
        entry.marker = false;
      }
    }
    EvictForCapacityLocked();
  }
  if (kick != 0) exec_.Submit(drain_stage_, kick);
}

std::optional<std::vector<std::uint8_t>> TieredStore::Get(const std::string& key) {
  RejectMetaKey(key, "Get");
  const auto miss = [](Counters& c) {
    ++c.ops.gets;
    ++c.tier.misses;
  };
  {
    util::MutexLock lock(mu_);
    if (tombstones_.contains(key)) {
      Count(miss);
      return std::nullopt;
    }
  }
  auto data = near_->Get(key);
  if (data) {
    const std::uint64_t n = data->size();
    Count([n](Counters& c) {
      ++c.ops.gets;
      c.ops.bytes_read += n;
      ++c.tier.near_hits;
      c.tier.near_bytes_read += n;
    });
    return data;
  }
  data = far_->Get(key);
  {
    util::MutexLock lock(mu_);
    // Deleted while we were reading: the far copy is condemned debris a
    // pending drain completion will remove — do not resurrect it.
    if (tombstones_.contains(key)) data.reset();
  }
  if (!data) {
    Count(miss);
    return data;
  }
  const std::uint64_t n = data->size();
  Count([n](Counters& c) {
    ++c.ops.gets;
    c.ops.bytes_read += n;
    ++c.tier.far_hits;
    c.tier.far_bytes_read += n;
  });
  return data;
}

bool TieredStore::Exists(const std::string& key) {
  RejectMetaKey(key, "Exists");
  {
    util::MutexLock lock(mu_);
    if (entries_.contains(key)) return true;
    if (tombstones_.contains(key)) return false;
  }
  return far_->Exists(key);
}

bool TieredStore::Delete(const std::string& key) {
  RejectMetaKey(key, "Delete");
  bool existed_near = false;
  {
    util::MutexLock lock(mu_);
    ++delete_seq_;
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      existed_near = true;
      Entry& entry = it->second;
      const State state = entry.state;
      const std::uint64_t size = entry.size;
      if (state == State::kDirty) pending_.fetch_sub(1);
      Count([state, size](Counters& c) {
        --c.tier.near_objects;
        c.tier.near_bytes -= size;
        if (state != State::kClean) {
          --c.tier.dirty_objects;
          c.tier.dirty_bytes -= size;
        }
        if (state == State::kStuck) --c.tier.stuck_objects;
      });
      try {
        near_->Delete(key);
      } catch (...) {
        // entry is gone either way; a leaked near file is debris, not a key
      }
      if (entry.marker) {
        try {
          near_->Delete(MarkerKey(key));
        } catch (...) {
          // leftover marker without data is discarded by the recovery scan
        }
      }
      entries_.erase(it);
    }
    // Cancel a replication in flight: the late far Put must not resurrect
    // the key, so leave a tombstone its completion will clean up.
    if (draining_.contains(key) && tombstones_.insert(key).second) {
      pending_.fetch_add(1);
    }
    ++far_deleting_[key];
  }
  bool existed_far = false;
  std::exception_ptr error;
  try {
    existed_far = far_->Delete(key);
  } catch (...) {
    error = std::current_exception();
  }
  std::size_t kick = 0;
  {
    util::MutexLock lock(mu_);
    if (!error) SetFarSizeLocked(key, std::nullopt);
    kick = EndFarDeleteLocked(key);
  }
  if (kick != 0) exec_.Submit(drain_stage_, kick);
  if (error) std::rethrow_exception(error);
  const bool existed = existed_near || existed_far;
  if (existed) Count([](Counters& c) { ++c.ops.deletes; });
  return existed;
}

std::vector<std::string> TieredStore::List(const std::string& prefix) {
  std::vector<std::string> keys = far_->List(prefix);
  std::set<std::string> dead;
  {
    util::MutexLock lock(mu_);
    for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      keys.push_back(it->first);
    }
    dead = tombstones_;
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (!dead.empty()) {
    std::erase_if(keys, [&dead](const std::string& k) { return dead.contains(k); });
  }
  return keys;
}

std::uint64_t TieredStore::TotalBytes() {
  // Union occupancy, near-preferred per key: a dirty near copy counts; its
  // stale far predecessor does not (it is about to be overwritten).
  util::MutexLock lock(mu_);
  std::uint64_t total = tier_stats().near_bytes;
  for (const auto& [key, size] : far_sizes_) {
    if (!entries_.contains(key) && !tombstones_.contains(key)) total += size;
  }
  return total;
}

StoreStats TieredStore::Stats() {
  util::MutexLock lock(stats_mu_);
  return counters_.ops;
}

std::optional<std::uint64_t> TieredStore::SizeOf(const std::string& key) {
  {
    util::MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second.size;
    if (tombstones_.contains(key)) return std::nullopt;
  }
  return far_->SizeOf(key);
}

bool TieredStore::DrainOne() {
  std::string key;
  std::uint64_t gen = 0;
  std::uint64_t size = 0;
  bool found = false;
  {
    util::MutexLock lock(mu_);
    // Abandoned shutdown (crash model): consume units without replicating.
    if (closed_ && !cfg_.flush_on_close) return false;
    while (!drain_queue_.empty()) {
      const std::string front = drain_queue_.front();
      const auto it = entries_.find(front);
      if (it == entries_.end() || it->second.state != State::kDirty ||
          !it->second.queued) {
        drain_queue_.pop_front();  // stale occurrence
        continue;
      }
      if (draining_.contains(front) || far_deleting_.contains(front)) {
        // Per-key order: wait for the in-flight generation (or far Delete);
        // its completion re-queues this one.
        it->second.queued = false;
        drain_queue_.pop_front();
        continue;
      }
      const std::uint64_t window = tier_stats().draining_bytes;
      if (window > 0 && cfg_.max_inflight_drain_bytes > 0 &&
          window + it->second.size > cfg_.max_inflight_drain_bytes) {
        // Window full. The unit is consumed; every drain completion kicks a
        // fresh one, and an empty window always admits the front object (so
        // an object larger than the window still drains alone).
        return false;
      }
      // A swallowed marker failure in Put left this dirty entry unmarked —
      // repair before replicating, so a crash during the far Put cannot make
      // recovery mistake the near copy for clean.
      if (!it->second.marker) {
        try {
          near_->Put(MarkerKey(front), MarkerPayload(it->second.gen));
          it->second.marker = true;
        } catch (...) {
          // near tier still refusing metadata writes; drain regardless —
          // landing the far copy is what retires the marker's job
        }
      }
      key = front;
      gen = it->second.gen;
      size = it->second.size;
      found = true;
      it->second.queued = false;
      drain_queue_.pop_front();
      draining_.emplace(key, gen);
      Count([size](Counters& c) { c.tier.draining_bytes += size; });
      break;
    }
    if (!found) return false;
  }

  bool far_put_attempted = false;
  std::optional<std::uint64_t> replicated_bytes;
  std::optional<std::vector<std::uint8_t>> data;
  try {
    data = near_->Get(key);
  } catch (...) {
    data.reset();
  }
  if (data) {
    const std::uint64_t bytes = data->size();
    far_put_attempted = true;
    try {
      far_->Put(key, std::move(*data));
      replicated_bytes = bytes;
    } catch (...) {
      // Failure is the signal: FinishDrain retries or parks the object. A
      // torn Put may have left a partial far copy: record what is there —
      // unless the key was deleted meanwhile. That Delete's far Delete may
      // have run after the stat, and FinishDrain re-deletes the key anyway.
      try {
        const auto far_size = far_->SizeOf(key);
        util::MutexLock lock(mu_);
        if (!tombstones_.contains(key)) SetFarSizeLocked(key, far_size);
      } catch (...) {
        // far state unknown; the key's next completed far op records it
      }
    }
  }
  FinishDrain(key, gen, size, far_put_attempted, replicated_bytes);
  return true;
}

void TieredStore::FinishDrain(const std::string& key, std::uint64_t gen,
                              std::uint64_t size, bool far_put_attempted,
                              std::optional<std::uint64_t> replicated_bytes) {
  const bool replicated = replicated_bytes.has_value();
  bool far_delete = false;
  std::size_t kick = 0;
  {
    util::MutexLock lock(mu_);
    draining_.erase(key);
    if (replicated) SetFarSizeLocked(key, replicated_bytes);
    Count([size](Counters& c) { c.tier.draining_bytes -= size; });
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      // Deleted mid-drain. A far Put that landed resurrected the key, and
      // one that failed may have left a torn copy — either way re-delete it
      // below; the tombstone's job ends there.
      if (tombstones_.contains(key)) {
        if (far_put_attempted) {
          far_delete = true;
          ++far_deleting_[key];  // a drain of a re-Put waits for it
        } else {
          tombstones_.erase(key);
          pending_.fetch_sub(1);
        }
      }
    } else if (it->second.gen != gen) {
      // Rewritten mid-drain; replicate the newer generation next.
      if (it->second.state == State::kDirty && !it->second.queued) {
        QueueDirtyLocked(key, it->second);
      }
    } else if (replicated) {
      it->second.state = State::kClean;
      it->second.attempts = 0;
      Count([size](Counters& c) {
        --c.tier.dirty_objects;
        c.tier.dirty_bytes -= size;
        ++c.tier.drained_objects;
        c.tier.drained_bytes += size;
      });
      pending_.fetch_sub(1);
      // Marker removal and the clean transition are atomic with respect to a
      // concurrent Put's marker write (both run under mu_); a Put that
      // skipped its marker write before this transition sees marker=false
      // and re-asserts when it re-dirties the entry.
      try {
        near_->Delete(MarkerKey(key));
        it->second.marker = false;
      } catch (...) {
        // marker outliving a drained object only costs a redundant re-drain;
        // marker stays true — it is still on disk
      }
      clean_fifo_.push_back(key);
      EvictForCapacityLocked();
    } else {
      ++it->second.attempts;
      const bool park =
          cfg_.drain_attempts > 0 && it->second.attempts >= cfg_.drain_attempts;
      Count([park](Counters& c) {
        ++c.tier.drain_failures;
        if (park) ++c.tier.stuck_objects;
      });
      if (park) {
        // Parked: still dirty-marked and pinned in the near tier; a restart
        // or a fresh Put of the key retries it.
        it->second.state = State::kStuck;
        pending_.fetch_sub(1);
      } else if (!it->second.queued) {
        QueueDirtyLocked(key, it->second);
      }
    }
    if (!drain_queue_.empty()) kick = 1;
  }
  if (far_delete) {
    bool deleted = false;
    try {
      far_->Delete(key);
      deleted = true;
    } catch (...) {
      // undeletable resurrected or torn copy becomes orphan debris for
      // offline GC
    }
    util::MutexLock lock(mu_);
    if (deleted) SetFarSizeLocked(key, std::nullopt);
    // A Put of the key since FinishDrain's first section already ended the
    // tombstone (and its pending count).
    if (tombstones_.erase(key) > 0) pending_.fetch_sub(1);
    kick += EndFarDeleteLocked(key);
  }
  if (kick != 0) exec_.Submit(drain_stage_, kick);
}

std::size_t TieredStore::EndFarDeleteLocked(const std::string& key) {
  const auto d = far_deleting_.find(key);
  if (--d->second > 0) return 0;
  far_deleting_.erase(d);
  // A drain of a Put that landed during the far Delete was deferred.
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.state != State::kDirty || it->second.queued ||
      draining_.contains(key)) {
    return 0;
  }
  QueueDirtyLocked(key, it->second);
  return 1;
}

void TieredStore::EvictForCapacityLocked() {
  if (cfg_.near_capacity_bytes == 0) return;
  while (tier_stats().near_bytes > cfg_.near_capacity_bytes && !clean_fifo_.empty()) {
    const std::string key = std::move(clean_fifo_.front());
    clean_fifo_.pop_front();
    const auto it = entries_.find(key);
    // Stale occurrence: re-dirtied (a fresh clean slot will be pushed when
    // it drains again) or already deleted.
    if (it == entries_.end() || it->second.state != State::kClean) continue;
    // A Put's unlocked data write is in flight: deleting the near object now
    // would drop the new bytes before the Put re-dirties the entry. That Put
    // always re-dirties a clean entry, so this occurrence is stale anyway.
    if (writing_.contains(key)) continue;
    try {
      near_->Delete(key);
    } catch (...) {
      continue;  // keep the entry truthful if the near delete failed
    }
    const std::uint64_t size = it->second.size;
    Count([size](Counters& c) {
      --c.tier.near_objects;
      c.tier.near_bytes -= size;
      ++c.tier.evicted_objects;
      c.tier.evicted_bytes += size;
    });
    entries_.erase(it);
  }
  // Dirty/stuck objects are pinned, so the near tier may transiently exceed
  // its capacity by the drain backlog.
}

void TieredStore::FlushDrains() {
  {
    util::MutexLock lock(mu_);
    if (stage_closed_) return;
  }
  exec_.HelpUntil(
      [this] { return pending_.load(std::memory_order_acquire) == 0; },
      {drain_stage_});
}


void TieredStore::Shutdown() {
  bool flush = false;
  {
    util::MutexLock lock(mu_);
    if (closed_ && stage_closed_) return;
    flush = cfg_.flush_on_close && !closed_;
    closed_ = true;
  }
  if (flush) {
    FlushDrains();
    try {
      near_->Put(kStatsKey, EncodeShutdownCounters(tier_stats()));
    } catch (...) {
      // counters are advisory; shutdown proceeds without them
    }
  }
  bool close_stage = false;
  {
    util::MutexLock lock(mu_);
    if (!stage_closed_) {
      stage_closed_ = true;
      close_stage = true;
    }
  }
  if (close_stage) exec_.CloseStage(drain_stage_);
}

TierStats TieredStore::tier_stats() const {
  util::MutexLock lock(stats_mu_);
  return counters_.tier;
}

void TieredStore::SetFarSizeLocked(const std::string& key,
                                   std::optional<std::uint64_t> size) {
  const auto it = far_sizes_.find(key);
  const std::optional<std::uint64_t> prior =
      it == far_sizes_.end() ? std::nullopt : std::optional<std::uint64_t>(it->second);
  if (prior == size) return;
  if (size) {
    far_sizes_[key] = *size;
  } else {
    far_sizes_.erase(it);
  }
  Count([&prior, &size](Counters& c) {
    if (prior) {
      --c.tier.far_objects;
      c.tier.far_bytes -= *prior;
    }
    if (size) {
      ++c.tier.far_objects;
      c.tier.far_bytes += *size;
    }
  });
}

}  // namespace cnr::storage
