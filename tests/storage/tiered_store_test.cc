// storage::TieredStore: write-back semantics (Put commits near, drain
// replicates far), read-through tier preference, clean-object eviction with
// dirty pinning, Delete cancelling pending drains, strict per-key far-write
// order, the crash-safe dirty-marker protocol (drainer killed at every
// replication point — recovery finds a drained object or a dirty near copy,
// never a far-tier hole), per-tier occupancy parity between the live
// counters and the offline survey, and a stats probe that neither waits on
// tier I/O nor calls the far tier. The concurrency stress runs under TSan in
// CI.
#include "storage/tiered_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline/executor.h"
#include "storage/fault_injection.h"
#include "storage/file_store.h"

namespace cnr::storage {
namespace {

namespace fs = std::filesystem;
using core::pipeline::StageExecutor;

std::vector<std::uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

// Far-tier decorator whose Puts block until the gate opens — the test can
// hold the drainer at the exact replication point and observe the near tier
// mid-drain.
class GateStore : public ObjectStore {
 public:
  explicit GateStore(std::shared_ptr<ObjectStore> backing)
      : backing_(std::move(backing)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    backing_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return backing_->Get(key);
  }
  bool Exists(const std::string& key) override { return backing_->Exists(key); }
  bool Delete(const std::string& key) override { return backing_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return backing_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  // Re-arms the gate: Puts arriving after this block again.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  // Blocks until `count` Puts have reached the gate.
  void AwaitPutsEntered(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return entered_ >= count; });
  }

 private:
  std::shared_ptr<ObjectStore> backing_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int entered_ = 0;
};

// Near-tier decorator that can hold the Put of designated keys mid-flight:
// a data key holds the tiered store's *unlocked* data write, a dirty-marker
// key holds a metadata write made under the tiered store's lock. Keys not
// held pass straight through.
class HoldStore : public ObjectStore {
 public:
  explicit HoldStore(std::shared_ptr<ObjectStore> backing)
      : backing_(std::move(backing)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (held_.contains(key)) {
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [this, &key] { return !held_.contains(key); });
      }
    }
    backing_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return backing_->Get(key);
  }
  bool Exists(const std::string& key) override { return backing_->Exists(key); }
  bool Delete(const std::string& key) override { return backing_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return backing_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  void Hold(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    held_.insert(key);
  }
  void Release(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    held_.erase(key);
    cv_.notify_all();
  }
  // Blocks until `count` Puts are waiting on a held key.
  void AwaitBlocked(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return blocked_ >= count; });
  }

 private:
  std::shared_ptr<ObjectStore> backing_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::string> held_;
  int blocked_ = 0;
};

// Far-tier decorator whose Deletes can be held mid-flight: the test parks
// the far re-delete a drain completion issues for a tombstoned key.
class DeleteHoldStore : public ObjectStore {
 public:
  explicit DeleteHoldStore(std::shared_ptr<ObjectStore> backing)
      : backing_(std::move(backing)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    backing_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return backing_->Get(key);
  }
  bool Exists(const std::string& key) override { return backing_->Exists(key); }
  bool Delete(const std::string& key) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (held_) {
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !held_; });
      }
    }
    return backing_->Delete(key);
  }
  std::vector<std::string> List(const std::string& prefix) override {
    return backing_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  // Blocks until `count` Deletes are waiting.
  void AwaitBlocked(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return blocked_ >= count; });
  }

 private:
  std::shared_ptr<ObjectStore> backing_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  int blocked_ = 0;
};

// Far-tier decorator whose SizeOf can be held after it has read the size:
// the test parks a drainer between its stat of a torn far copy and the
// moment it records that size.
class StatHoldStore : public ObjectStore {
 public:
  explicit StatHoldStore(std::shared_ptr<ObjectStore> backing)
      : backing_(std::move(backing)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    backing_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return backing_->Get(key);
  }
  bool Exists(const std::string& key) override { return backing_->Exists(key); }
  bool Delete(const std::string& key) override { return backing_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return backing_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    auto size = backing_->SizeOf(key);
    std::unique_lock<std::mutex> lock(mu_);
    if (held_) {
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    }
    return size;
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  // Blocks until `count` SizeOf calls are waiting.
  void AwaitBlocked(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return blocked_ >= count; });
  }

 private:
  std::shared_ptr<ObjectStore> backing_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  int blocked_ = 0;
};

// Far-tier decorator counting List calls: a stats probe must make none.
class ListCountingStore : public ObjectStore {
 public:
  explicit ListCountingStore(std::shared_ptr<ObjectStore> backing)
      : backing_(std::move(backing)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    backing_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return backing_->Get(key);
  }
  bool Exists(const std::string& key) override { return backing_->Exists(key); }
  bool Delete(const std::string& key) override { return backing_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    lists_.fetch_add(1);
    return backing_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  int lists() const { return lists_.load(); }

 private:
  std::shared_ptr<ObjectStore> backing_;
  std::atomic<int> lists_{0};
};

class TieredStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("cnr_tiered_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }
  fs::path root_;
};

// Parity: the live counters must equal the offline survey of each tier.
void ExpectParity(TieredStore& store) {
  const TierStats live = store.tier_stats();
  const TierSurvey near_survey = SurveyTier(store.near_tier());
  const TierSurvey far_survey = SurveyTier(store.far_tier());
  EXPECT_EQ(live.near_objects, near_survey.objects);
  EXPECT_EQ(live.near_bytes, near_survey.bytes);
  EXPECT_EQ(live.dirty_objects, near_survey.dirty_objects);
  EXPECT_EQ(live.dirty_bytes, near_survey.dirty_bytes);
  EXPECT_EQ(live.far_objects, far_survey.objects);
  EXPECT_EQ(live.far_bytes, far_survey.bytes);
}

TEST_F(TieredStoreTest, WriteBackBasics) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);

  store.Put("jobs/a/1", Bytes("hello"));
  EXPECT_EQ(*store.Get("jobs/a/1"), Bytes("hello"));
  store.FlushDrains();

  // Replicated and clean: the far tier holds the copy, the marker is gone.
  EXPECT_EQ(*far_tier->Get("jobs/a/1"), Bytes("hello"));
  EXPECT_TRUE(near_tier->List(TieredStore::kDirtyPrefix).empty());
  const TierStats stats = store.tier_stats();
  EXPECT_EQ(stats.drained_objects, 1u);
  EXPECT_EQ(stats.drained_bytes, 5u);
  EXPECT_EQ(stats.dirty_objects, 0u);
  EXPECT_EQ(stats.near_hits, 1u);
  EXPECT_EQ(stats.far_hits, 0u);
  ExpectParity(store);
}

TEST_F(TieredStoreTest, ReadThroughPrefersNearAndCountsTiers) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);

  store.Put("k", Bytes("v"));
  store.FlushDrains();
  const std::uint64_t far_gets_before = far_tier->Stats().gets;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(store.Get("k").has_value());
  // Every read of a near-resident object stays off the far link.
  EXPECT_EQ(far_tier->Stats().gets, far_gets_before);
  EXPECT_EQ(store.tier_stats().near_hits, 5u);

  // A key only the far tier has is still reachable (read-through).
  far_tier->Put("far-only", Bytes("old"));
  EXPECT_EQ(*store.Get("far-only"), Bytes("old"));
  EXPECT_EQ(store.tier_stats().far_hits, 1u);
  EXPECT_EQ(store.tier_stats().misses, 0u);
  EXPECT_FALSE(store.Get("absent").has_value());
  EXPECT_EQ(store.tier_stats().misses, 1u);
}

TEST_F(TieredStoreTest, CleanEvictionFallsBackToFarTier) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStoreConfig cfg;
  cfg.near_capacity_bytes = 6;  // room for one 4-byte object, not two
  TieredStore store(near_tier, far_tier, exec, cfg);

  store.Put("a", Bytes("aaaa"));
  store.FlushDrains();
  store.Put("b", Bytes("bbbb"));
  store.FlushDrains();

  // "a" (oldest clean) was evicted to make room; both remain readable.
  const TierStats stats = store.tier_stats();
  EXPECT_EQ(stats.evicted_objects, 1u);
  EXPECT_LE(stats.near_bytes, cfg.near_capacity_bytes);
  EXPECT_EQ(*store.Get("a"), Bytes("aaaa"));  // far hit
  EXPECT_EQ(*store.Get("b"), Bytes("bbbb"));  // near hit
  EXPECT_EQ(store.tier_stats().far_hits, 1u);
  EXPECT_EQ(store.tier_stats().near_hits, 1u);
  ExpectParity(store);
}

TEST_F(TieredStoreTest, DirtyObjectsArePinnedAgainstEviction) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_inner = std::make_shared<InMemoryStore>();
  auto gate = std::make_shared<GateStore>(far_inner);
  StageExecutor exec;
  TieredStoreConfig cfg;
  cfg.near_capacity_bytes = 2;  // smaller than the object
  TieredStore store(near_tier, gate, exec, cfg);

  store.Put("big", Bytes("0123456789"));
  gate->AwaitPutsEntered(1);
  // Dirty and over capacity: pinned, not evicted.
  EXPECT_EQ(store.tier_stats().near_bytes, 10u);
  EXPECT_EQ(store.tier_stats().dirty_objects, 1u);
  EXPECT_TRUE(near_tier->Exists("big"));

  gate->Open();
  store.FlushDrains();
  // Clean now — capacity enforcement evicts it from the near tier.
  EXPECT_EQ(store.tier_stats().near_bytes, 0u);
  EXPECT_EQ(store.tier_stats().evicted_objects, 1u);
  EXPECT_EQ(*store.Get("big"), Bytes("0123456789"));  // far hit
  ExpectParity(store);
}

TEST_F(TieredStoreTest, DeleteCancelsPendingDrain) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_inner = std::make_shared<InMemoryStore>();
  auto gate = std::make_shared<GateStore>(far_inner);
  StageExecutor exec;
  TieredStore store(near_tier, gate, exec);

  store.Put("victim", Bytes("data"));
  gate->AwaitPutsEntered(1);  // replication of "victim" is in flight
  EXPECT_TRUE(store.Delete("victim"));
  EXPECT_FALSE(store.Get("victim").has_value());
  EXPECT_FALSE(store.Exists("victim"));

  gate->Open();
  store.FlushDrains();
  // The late far Put must not resurrect the deleted key.
  EXPECT_FALSE(far_inner->Exists("victim"));
  EXPECT_FALSE(store.Exists("victim"));
  EXPECT_TRUE(store.List("").empty());
  ExpectParity(store);
}

TEST_F(TieredStoreTest, DeleteBeforeDrainStartsNeverTouchesFar) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_inner = std::make_shared<InMemoryStore>();
  auto gate = std::make_shared<GateStore>(far_inner);
  StageExecutor exec;
  TieredStore store(near_tier, gate, exec);

  // Hold the drain worker on a sacrificial key so "victim" sits queued.
  store.Put("hold", Bytes("x"));
  gate->AwaitPutsEntered(1);
  store.Put("victim", Bytes("data"));
  EXPECT_TRUE(store.Delete("victim"));

  gate->Open();
  store.FlushDrains();
  EXPECT_TRUE(far_inner->Exists("hold"));
  EXPECT_FALSE(far_inner->Exists("victim"));
  ExpectParity(store);
}

TEST_F(TieredStoreTest, RewriteMidDrainReplicatesNewestGeneration) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_inner = std::make_shared<InMemoryStore>();
  auto gate = std::make_shared<GateStore>(far_inner);
  StageExecutor exec;
  TieredStore store(near_tier, gate, exec);

  store.Put("k", Bytes("v1"));
  gate->AwaitPutsEntered(1);  // v1 replication in flight
  store.Put("k", Bytes("v2"));  // deferred: strict per-key order
  gate->Open();
  store.FlushDrains();

  EXPECT_EQ(*far_inner->Get("k"), Bytes("v2"));
  EXPECT_EQ(*store.Get("k"), Bytes("v2"));
  EXPECT_EQ(store.tier_stats().dirty_objects, 0u);
  ExpectParity(store);
}

TEST_F(TieredStoreTest, MetaNamespaceRejected) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);

  EXPECT_THROW(store.Put(".tiered/evil", Bytes("x")), std::invalid_argument);
  EXPECT_THROW(store.Get(".tiered/dirty/k"), std::invalid_argument);
  EXPECT_THROW(store.Delete(".tiered/STATS"), std::invalid_argument);
  EXPECT_THROW(store.Exists(".tiered/x"), std::invalid_argument);
}

TEST_F(TieredStoreTest, UnionListTotalBytesAndSizeOf) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  far_tier->Put("far-only", Bytes("123"));
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);

  store.Put("near-new", Bytes("12345"));
  // Dirty object visible in List/Exists/SizeOf before it ever reaches far.
  const auto keys = store.List("");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "far-only");
  EXPECT_EQ(keys[1], "near-new");
  EXPECT_EQ(store.TotalBytes(), 8u);
  EXPECT_EQ(*store.SizeOf("near-new"), 5u);
  EXPECT_EQ(*store.SizeOf("far-only"), 3u);
  EXPECT_FALSE(store.SizeOf("absent").has_value());
  store.FlushDrains();
  EXPECT_EQ(store.TotalBytes(), 8u);  // replication adds no logical bytes
}

TEST_F(TieredStoreTest, PutAfterShutdownThrows) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);
  store.Put("k", Bytes("v"));
  store.Shutdown();
  EXPECT_THROW(store.Put("k2", Bytes("v")), StoreUnavailable);
  // The clean shutdown drained the backlog and persisted counters.
  EXPECT_TRUE(far_tier->Exists("k"));
  EXPECT_TRUE(near_tier->Exists(TieredStore::kStatsKey));
  const auto counters = DecodeShutdownCounters(*near_tier->Get(TieredStore::kStatsKey));
  ASSERT_TRUE(counters.has_value());
  EXPECT_EQ(counters->drained_objects, 1u);
}

TEST_F(TieredStoreTest, RecoveryDiscardsStaleMarkerWithoutData) {
  auto near_tier = std::make_shared<FileStore>(root_);
  auto far_tier = std::make_shared<InMemoryStore>();
  // Crash between marker and data: the Put never returned, so recovery must
  // forget the key entirely.
  near_tier->Put(std::string(TieredStore::kDirtyPrefix) + "ghost",
                 std::vector<std::uint8_t>(8, 0));
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);
  store.FlushDrains();
  EXPECT_TRUE(store.List("").empty());
  EXPECT_TRUE(near_tier->List(TieredStore::kDirtyPrefix).empty());
  EXPECT_FALSE(far_tier->Exists("ghost"));
  ExpectParity(store);
}

// The drain-boundary crash sweep: for every replication point n, the far
// tier's nth Put dies (process-kill and torn-write shapes), the store is
// destroyed without flushing (a crash), and a fresh instance recovers over
// the same tiers. Invariant at every n: each object is either fully drained
// in the far tier or dirty-marked in the near tier — never a far-tier hole —
// and after the far tier heals, a flush converges to full replication.
TEST_F(TieredStoreTest, DrainBoundaryCrashSweep) {
  constexpr int kObjects = 4;
  for (const bool torn : {false, true}) {
    for (int n = 1; n <= kObjects; ++n) {
      const fs::path near_dir =
          root_ / (std::string(torn ? "torn" : "kill") + std::to_string(n));
      auto far_inner = std::make_shared<InMemoryStore>();
      FaultConfig fault;
      fault.fail_nth_put = static_cast<std::uint64_t>(n);
      fault.torn_put = torn;
      auto far_tier = std::make_shared<FaultInjectionStore>(far_inner, fault);

      std::map<std::string, std::vector<std::uint8_t>> expected;
      {
        auto near_tier = std::make_shared<FileStore>(near_dir);
        StageExecutor exec;
        TieredStoreConfig cfg;
        cfg.drain_attempts = 1;   // first failure parks the object
        cfg.flush_on_close = false;  // crash: no drain on destruction
        TieredStore store(near_tier, far_tier, exec, cfg);
        for (int i = 0; i < kObjects; ++i) {
          const std::string key = "jobs/a/obj" + std::to_string(i);
          expected[key] = Bytes("payload-" + std::to_string(i) + "-" +
                                std::string(32, static_cast<char>('a' + i)));
          store.Put(key, expected[key]);
        }
        store.FlushDrains();  // settles: replicated or parked, nothing queued
        // `store` and `exec` die here without flushing — the crash.
      }

      // Post-crash invariant over the raw tiers.
      FileStore near_raw(near_dir);
      std::set<std::string> dirty;
      const std::string dirty_prefix = TieredStore::kDirtyPrefix;
      for (const auto& marker : near_raw.List(dirty_prefix)) {
        dirty.insert(marker.substr(dirty_prefix.size()));
      }
      for (const auto& [key, value] : expected) {
        const auto far_copy = far_inner->Get(key);
        if (dirty.contains(key)) {
          // Dirty: the authoritative copy is in the near tier, intact.
          ASSERT_EQ(*near_raw.Get(key), value) << key;
        } else {
          // Clean: the far copy must exist and be complete — never a hole,
          // never a silently torn object.
          ASSERT_TRUE(far_copy.has_value()) << key << " (n=" << n << ")";
          ASSERT_EQ(*far_copy, value) << key;
        }
      }

      // Heal the far tier, recover, and converge.
      far_tier->SetConfig(FaultConfig{});
      auto near_tier = std::make_shared<FileStore>(near_dir);
      StageExecutor exec;
      TieredStore recovered(near_tier, far_tier, exec);
      recovered.FlushDrains();
      for (const auto& [key, value] : expected) {
        ASSERT_EQ(*far_inner->Get(key), value) << key;
        ASSERT_EQ(*recovered.Get(key), value) << key;
      }
      EXPECT_TRUE(near_tier->List(dirty_prefix).empty());
      EXPECT_EQ(recovered.tier_stats().dirty_objects, 0u);
      ExpectParity(recovered);
    }
  }
}

// Mid-drain restart with a fully dead far tier: everything parks as stuck,
// the "crash" loses no data, and tracked stats == survey on both sides of
// the restart and of the eventual flush.
TEST_F(TieredStoreTest, MidDrainRestartKeepsOccupancyParity) {
  constexpr int kObjects = 3;
  auto far_inner = std::make_shared<InMemoryStore>();
  FaultConfig fault;
  fault.put_failure_probability = 1.0;
  auto far_tier = std::make_shared<FaultInjectionStore>(far_inner, fault);

  {
    auto near_tier = std::make_shared<FileStore>(root_);
    StageExecutor exec;
    TieredStoreConfig cfg;
    cfg.drain_attempts = 1;
    cfg.flush_on_close = false;
    TieredStore store(near_tier, far_tier, exec, cfg);
    for (int i = 0; i < kObjects; ++i) {
      store.Put("obj" + std::to_string(i), Bytes(std::string(16, 'x')));
    }
    store.FlushDrains();  // terminates: stuck objects do not block the flush
    const TierStats stats = store.tier_stats();
    EXPECT_EQ(stats.stuck_objects, static_cast<std::uint64_t>(kObjects));
    EXPECT_EQ(stats.dirty_objects, static_cast<std::uint64_t>(kObjects));
    EXPECT_GE(stats.drain_failures, static_cast<std::uint64_t>(kObjects));
    ExpectParity(store);
  }

  far_tier->SetConfig(FaultConfig{});
  auto near_tier = std::make_shared<FileStore>(root_);
  StageExecutor exec;
  TieredStore recovered(near_tier, far_tier, exec);
  recovered.FlushDrains();
  EXPECT_EQ(recovered.tier_stats().drained_objects,
            static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(recovered.tier_stats().dirty_objects, 0u);
  for (int i = 0; i < kObjects; ++i) {
    EXPECT_TRUE(far_inner->Exists("obj" + std::to_string(i)));
  }
  ExpectParity(recovered);
}

// The crash-safety race the marker protocol must survive: a Put whose first
// critical section sees the key dirty (marker already on disk — no write),
// then loses the marker while its data write runs unlocked because the
// in-flight drain completes and the clean transition deletes it. The
// clean->dirty transition in the Put's second critical section must re-assert
// the marker; without it, a crash here would make recovery call the near
// object clean while the far tier still holds the older generation — serving
// stale data after eviction, losing an acknowledged write.
TEST_F(TieredStoreTest, CleanTransitionDuringPutReassertsDirtyMarker) {
  auto near_inner = std::make_shared<InMemoryStore>();
  auto hold = std::make_shared<HoldStore>(near_inner);
  auto far_inner = std::make_shared<InMemoryStore>();
  auto gate = std::make_shared<GateStore>(far_inner);
  StageExecutor exec;
  TieredStore store(hold, gate, exec);
  const std::string marker = std::string(TieredStore::kDirtyPrefix) + "k";

  store.Put("k", Bytes("v1"));
  gate->AwaitPutsEntered(1);  // replication of v1 in flight at the far tier

  hold->Hold("k");
  std::thread writer([&store] { store.Put("k", Bytes("v2-newer-bytes")); });
  hold->AwaitBlocked(1);  // v2 sits in the unlocked data-write window

  // Let v1's drain finish: FinishDrain cleans "k" and deletes the marker
  // while v2's Put is mid-flight.
  gate->Open();
  while (store.tier_stats().dirty_objects != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(near_inner->Exists(marker));

  // Re-arm the far gate so v2's own drain blocks and the dirty window below
  // is observable, then let v2 land.
  gate->Close();
  hold->Release("k");
  writer.join();

  // "k" is dirty again and the marker MUST be back on disk — a crash in this
  // state has to recover the near copy as authoritative.
  EXPECT_EQ(store.tier_stats().dirty_objects, 1u);
  EXPECT_TRUE(near_inner->Exists(marker));
  ExpectParity(store);  // the survey sees the same dirty object

  gate->Open();
  store.FlushDrains();
  EXPECT_EQ(*far_inner->Get("k"), Bytes("v2-newer-bytes"));
  EXPECT_FALSE(near_inner->Exists(marker));
  ExpectParity(store);
}

// Same-key Puts race their unlocked near data writes: content is
// last-writer-wins, and the recorded size must follow the surviving content
// so occupancy parity holds and the drainer converges the far tier onto it.
TEST_F(TieredStoreTest, ConcurrentSameKeyPutsKeepParityAndConverge) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStore store(near_tier, far_tier, exec);

  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      // Thread-distinct sizes make a stale recorded size detectable.
      const std::string value(8 + 16 * static_cast<std::size_t>(t),
                              static_cast<char>('a' + t));
      for (int i = 0; i < kIters; ++i) store.Put("hot", Bytes(value));
    });
  }
  for (auto& th : threads) th.join();

  const auto content = near_tier->Get("hot");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*store.SizeOf("hot"), content->size());

  store.FlushDrains();
  EXPECT_EQ(*far_tier->Get("hot"), *near_tier->Get("hot"));
  EXPECT_EQ(store.tier_stats().dirty_objects, 0u);
  ExpectParity(store);
}

// tier_stats() is a probe a trainer may call every iteration: it returns
// while a near-tier Put holds the store's bookkeeping lock (a dirty-marker
// write, which may fsync), and it never calls the far tier — far occupancy
// is tracked as far Puts and Deletes complete, not Listed per call.
TEST_F(TieredStoreTest, TierStatsNeverWaitsOnNearIoNorListsFar) {
  auto near_inner = std::make_shared<InMemoryStore>();
  auto hold = std::make_shared<HoldStore>(near_inner);
  auto far = std::make_shared<ListCountingStore>(std::make_shared<InMemoryStore>());
  StageExecutor exec;
  TieredStore store(hold, far, exec);
  store.Put("a", Bytes("first"));
  store.FlushDrains();
  const int lists_before = far->lists();

  const std::string marker = std::string(TieredStore::kDirtyPrefix) + "k";
  hold->Hold(marker);
  std::thread writer([&store] { store.Put("k", Bytes("second")); });
  hold->AwaitBlocked(1);  // the marker Put of "k" is parked inside mu_
  auto probe = std::async(std::launch::async, [&store] { return store.tier_stats(); });
  const bool returned =
      probe.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "tier_stats() waited behind a held near-tier Put";
  hold->Release(marker);
  writer.join();
  const TierStats mid = probe.get();
  EXPECT_EQ(mid.near_objects, 1u);
  EXPECT_EQ(mid.far_objects, 1u);
  EXPECT_EQ(mid.far_bytes, 5u);

  store.FlushDrains();
  for (int i = 0; i < 100; ++i) (void)store.tier_stats();
  EXPECT_EQ(far->lists(), lists_before);
  const TierStats done = store.tier_stats();
  EXPECT_EQ(done.far_objects, 2u);
  EXPECT_EQ(done.far_bytes, 11u);
  ExpectParity(store);  // the offline survey Lists; counted above already
}

// Far occupancy is seeded from one far scan when the store opens: objects
// already on the far tier (written by an earlier instance) are counted, and
// a Delete through the store takes them off the count.
TEST_F(TieredStoreTest, FarOccupancySeededAtOpenAndTrackedOnDelete) {
  auto far_inner = std::make_shared<InMemoryStore>();
  far_inner->Put("jobs/a/old", Bytes("0123456789"));
  far_inner->Put("jobs/a/older", Bytes("01234"));
  StageExecutor exec;
  TieredStore store(std::make_shared<InMemoryStore>(), far_inner, exec);
  EXPECT_EQ(store.tier_stats().far_objects, 2u);
  EXPECT_EQ(store.tier_stats().far_bytes, 15u);
  ExpectParity(store);

  EXPECT_TRUE(store.Delete("jobs/a/old"));
  store.Put("jobs/a/older", Bytes("xy"));  // overwrite replaces, not adds
  store.FlushDrains();
  EXPECT_EQ(store.tier_stats().far_objects, 1u);
  EXPECT_EQ(store.tier_stats().far_bytes, 2u);
  ExpectParity(store);
}

// A Delete during replication leaves a tombstone, and the drain completion
// re-deletes the far copy that landed anyway. A Put of the key landing while
// that re-delete is in flight must keep its own far copy (its drain waits
// for the re-delete) and must not be counted off the backlog twice — which
// wrapped the pending count and hung FlushDrains.
TEST_F(TieredStoreTest, RePutDuringTombstoneRedeleteKeepsItsFarCopy) {
  auto far_inner = std::make_shared<InMemoryStore>();
  auto hold_deletes = std::make_shared<DeleteHoldStore>(far_inner);
  auto gate = std::make_shared<GateStore>(hold_deletes);
  StageExecutor exec;
  TieredStoreConfig cfg;
  cfg.drain_workers = 2;  // a second drainer is free while the re-delete parks
  cfg.flush_on_close = false;
  TieredStore store(std::make_shared<InMemoryStore>(), gate, exec, cfg);

  store.Put("k", Bytes("v1"));
  gate->AwaitPutsEntered(1);       // v1's far Put is in flight
  EXPECT_TRUE(store.Delete("k"));  // tombstones the in-flight copy
  hold_deletes->Hold();
  gate->Open();                    // v1 lands; its completion re-deletes it
  hold_deletes->AwaitBlocked(1);
  store.Put("k", Bytes("v2-newer"));  // lands during the re-delete
  // Give v2's drain a chance to (wrongly) land before the re-delete does.
  const auto wait_clean = [&store](std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (store.tier_stats().dirty_objects != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_clean(std::chrono::milliseconds(200));
  hold_deletes->Release();
  wait_clean(std::chrono::seconds(10));

  ASSERT_TRUE(far_inner->Get("k").has_value()) << "the re-delete removed the new copy";
  EXPECT_EQ(*far_inner->Get("k"), Bytes("v2-newer"));
  store.FlushDrains();  // returns: the backlog count did not wrap
  EXPECT_EQ(store.tier_stats().dirty_objects, 0u);
  ExpectParity(store);
}

// A Delete during replication whose far Put then tears: the Delete's own far
// Delete ran first (nothing there yet), so the torn prefix lands after it.
// The drain completion must re-delete it — the key stays dead on the far
// tier, in List and in Get, and is not counted as far occupancy.
TEST_F(TieredStoreTest, TornFarPutOfKeyDeletedMidDrainIsReDeleted) {
  auto far_inner = std::make_shared<InMemoryStore>();
  FaultConfig fault;
  fault.fail_nth_put = 1;
  fault.torn_put = true;
  auto gate = std::make_shared<GateStore>(std::make_shared<FaultInjectionStore>(far_inner, fault));
  StageExecutor exec;
  TieredStore store(std::make_shared<InMemoryStore>(), gate, exec);

  store.Put("k", Bytes("0123456789"));
  gate->AwaitPutsEntered(1);       // the far Put is in flight
  EXPECT_TRUE(store.Delete("k"));  // its far Delete finds nothing yet
  gate->Open();                    // the Put tears: half the bytes land
  store.FlushDrains();

  EXPECT_FALSE(far_inner->Exists("k")) << "the torn copy survived the Delete";
  EXPECT_FALSE(store.Get("k").has_value());
  EXPECT_TRUE(store.List("").empty());
  EXPECT_EQ(store.tier_stats().far_objects, 0u);
  ExpectParity(store);
}

// A failed far Put re-stats the key to record a torn copy. A Delete whose
// far Delete lands between that stat and the record must win: recording the
// stale size would leave a phantom far object that no survey finds.
TEST_F(TieredStoreTest, DeleteBetweenTornPutAndItsStatLeavesNoPhantomFarEntry) {
  auto far_inner = std::make_shared<InMemoryStore>();
  FaultConfig fault;
  fault.fail_nth_put = 1;
  fault.torn_put = true;
  auto stat_hold =
      std::make_shared<StatHoldStore>(std::make_shared<FaultInjectionStore>(far_inner, fault));
  auto gate = std::make_shared<GateStore>(stat_hold);
  StageExecutor exec;
  TieredStore store(std::make_shared<InMemoryStore>(), gate, exec);

  store.Put("k", Bytes("0123456789"));
  gate->AwaitPutsEntered(1);
  stat_hold->Hold();
  gate->Open();  // the Put tears; the drainer stats the torn copy and parks
  stat_hold->AwaitBlocked(1);
  EXPECT_TRUE(store.Delete("k"));  // removes the torn copy from the far tier
  EXPECT_FALSE(far_inner->Exists("k"));
  stat_hold->Release();  // the drainer now holds a stale size
  store.FlushDrains();

  EXPECT_FALSE(far_inner->Exists("k"));
  EXPECT_EQ(store.tier_stats().far_objects, 0u);
  EXPECT_EQ(store.tier_stats().far_bytes, 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
  ExpectParity(store);
}

// Concurrent Put/Get/Delete against a live drainer; runs under TSan in CI.
TEST_F(TieredStoreTest, ConcurrentPutGetDeleteVsDrain) {
  auto near_tier = std::make_shared<InMemoryStore>();
  auto far_tier = std::make_shared<InMemoryStore>();
  StageExecutor exec;
  TieredStoreConfig cfg;
  cfg.drain_workers = 2;
  cfg.max_inflight_drain_bytes = 256;  // small window: exercise deferral
  TieredStore store(near_tier, far_tier, exec, cfg);

  constexpr int kThreads = 3;
  constexpr int kIters = 200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failed, t] {
      try {
        for (int i = 0; i < kIters; ++i) {
          const std::string key = "k" + std::to_string((t * 7 + i) % 11);
          switch (i % 4) {
            case 0:
            case 1:
              store.Put(key, Bytes("v" + std::to_string(t) + "." + std::to_string(i)));
              break;
            case 2:
              store.Get(key);
              break;
            default:
              store.Delete(key);
              break;
          }
        }
      } catch (...) {
        failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  store.FlushDrains();
  // Converged: no backlog, every surviving key readable, parity holds.
  EXPECT_EQ(store.tier_stats().dirty_objects, 0u);
  for (const auto& key : store.List("")) {
    EXPECT_TRUE(store.Get(key).has_value()) << key;
  }
  ExpectParity(store);
}

}  // namespace
}  // namespace cnr::storage
