#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/pipeline/executor.h"
#include "core/service.h"
#include "storage/object_store.h"

namespace cnr::core::pipeline {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- lanes ----

TEST(StageLane, FifoOrderAndEmptyPop) {
  StageLane<int> lane;
  EXPECT_FALSE(lane.TryPop().has_value());
  lane.Push(1);
  lane.Push(2);
  lane.Push(3);
  EXPECT_EQ(lane.size(), 3u);
  EXPECT_EQ(*lane.TryPop(), 1);
  EXPECT_EQ(*lane.TryPop(), 2);
  EXPECT_EQ(*lane.TryPop(), 3);
  EXPECT_FALSE(lane.TryPop().has_value());
}

TEST(StageLane, ConcurrentProducersConsumersDrainExactly) {
  // The hand-off lane between pipeline stages: MPMC, non-blocking pops.
  StageLane<int> lane;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) lane.Push(t * kPerProducer + i);
    });
  }
  std::atomic<int> popped{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      while (popped.load() < 4 * kPerProducer) {
        if (auto v = lane.TryPop()) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  const long long n = 4LL * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_EQ(lane.size(), 0u);
}

// ---------------------------------------------------- pipeline test rig ---

// Two shards, 64 rows each, dim 4 — enough for several chunks per shard.
ModelSnapshot MakeSnapshot() {
  ModelSnapshot snap;
  snap.batches_trained = 10;
  snap.samples_trained = 320;
  snap.shards.resize(1);
  for (std::uint32_t s = 0; s < 2; ++s) {
    ShardSnapshot shard;
    shard.table_id = 0;
    shard.shard_id = s;
    shard.num_rows = 64;
    shard.dim = 4;
    shard.weights.resize(shard.num_rows * shard.dim);
    shard.adagrad.resize(shard.num_rows);
    for (std::size_t i = 0; i < shard.weights.size(); ++i) {
      shard.weights[i] = 0.01f * static_cast<float>(i + s);
    }
    for (std::size_t i = 0; i < shard.adagrad.size(); ++i) {
      shard.adagrad[i] = 1.0f + static_cast<float>(i);
    }
    snap.shards[0].push_back(std::move(shard));
  }
  snap.dense_blob = {1, 2, 3, 4, 5, 6, 7, 8};
  return snap;
}

CheckpointRequest MakeRequest(std::uint64_t id) {
  CheckpointRequest req;
  req.checkpoint_id = id;
  req.writer.job = "pipe";
  req.writer.chunk_rows = 16;  // 4 chunks per shard
  req.writer.quant.method = quant::Method::kNone;
  req.plan.kind = storage::CheckpointKind::kFull;
  req.snapshot_fn = [] { return MakeSnapshot(); };
  return req;
}

std::uint64_t CkptIdFromKey(const std::string& key) {
  const auto pos = key.find("/ckpt/");
  if (pos == std::string::npos) return 0;
  return std::stoull(key.substr(pos + 6, 12));
}

// Forwards to an InMemoryStore, logging Put keys in arrival order and
// optionally failing or delaying the puts of selected checkpoint ids.
class RecordingStore : public storage::ObjectStore {
 public:
  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    const std::uint64_t id = CkptIdFromKey(key);
    {
      std::lock_guard lock(mu_);
      if (fail_ids_.count(id)) {
        throw storage::StoreUnavailable("injected failure for checkpoint " +
                                        std::to_string(id));
      }
    }
    if (slow_ids_.count(id)) std::this_thread::sleep_for(2ms);
    inner_.Put(key, std::move(data));
    std::lock_guard lock(mu_);
    put_keys_.push_back(key);
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return inner_.Get(key);
  }
  bool Exists(const std::string& key) override { return inner_.Exists(key); }
  bool Delete(const std::string& key) override { return inner_.Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  std::uint64_t TotalBytes() override { return inner_.TotalBytes(); }
  storage::StoreStats Stats() override { return inner_.Stats(); }

  void FailCheckpoint(std::uint64_t id) {
    std::lock_guard lock(mu_);
    fail_ids_.insert(id);
  }
  void SlowCheckpoint(std::uint64_t id) { slow_ids_.insert(id); }  // pre-run only

  std::vector<std::string> put_keys() const {
    std::lock_guard lock(mu_);
    return put_keys_;
  }

 private:
  storage::InMemoryStore inner_;
  mutable std::mutex mu_;
  std::vector<std::string> put_keys_;
  std::set<std::uint64_t> fail_ids_;
  std::set<std::uint64_t> slow_ids_;
};

// One raw job on a service configured for the paper's strict single-job
// write path: the admission slot is held until the manifest is published
// (§4.3 non-overlap at max_inflight 1), the service adds no retry of its own
// (put_attempts = 1), and GC never runs.
ServiceConfig StrictService(std::size_t max_inflight) {
  ServiceConfig cfg;
  cfg.encode_threads = 2;
  cfg.store_threads = 2;
  cfg.queue_capacity = 4;
  cfg.max_inflight_checkpoints = max_inflight;
  cfg.release_slot_on_stored = false;
  cfg.put_attempts = 1;
  return cfg;
}

JobConfig StrictJob(std::size_t max_inflight) {
  JobConfig job;
  job.name = "pipe";
  job.max_inflight_checkpoints = max_inflight;
  job.gc = false;
  return job;
}

struct StrictLane {
  explicit StrictLane(std::shared_ptr<storage::ObjectStore> store, std::size_t max_inflight = 1)
      : service(std::move(store), StrictService(max_inflight)),
        job(service.OpenJob(StrictJob(max_inflight))) {}

  CheckpointService service;
  std::unique_ptr<JobHandle> job;
};

// ----------------------------------------------------- raw submissions ---

TEST(RawSubmission, WritesValidCheckpoint) {
  auto store = std::make_shared<storage::InMemoryStore>();
  StrictLane lane(store);

  const WriteResult result = lane.job->SubmitRaw(MakeRequest(1)).get();

  ASSERT_EQ(result.manifest.chunks.size(), 8u);  // 2 shards x 64/16 rows
  EXPECT_EQ(result.rows_written, 128u);
  EXPECT_GT(result.bytes_written, 0u);

  // Valid iff manifest exists; decode it and check every chunk was stored.
  const auto manifest_bytes = store->Get(storage::Manifest::ManifestKey("pipe", 1));
  ASSERT_TRUE(manifest_bytes.has_value());
  const auto m = storage::Manifest::Decode(*manifest_bytes);
  EXPECT_EQ(m.checkpoint_id, 1u);
  EXPECT_EQ(m.batches_trained, 10u);
  for (const auto& c : m.chunks) {
    EXPECT_TRUE(store->Exists(c.key)) << c.key;
    EXPECT_GT(c.bytes, 0u);
  }
  EXPECT_TRUE(store->Exists(m.dense_key));
  EXPECT_EQ(m.dense_bytes, 8u);
  // Stage timings ride in the manifest (format v2).
  EXPECT_EQ(m.timings.encode_us, result.timings.encode_us);
  EXPECT_EQ(m.timings.snapshot_us, result.timings.snapshot_us);
}

TEST(RawSubmission, ManifestIsStoredLast) {
  auto store = std::make_shared<RecordingStore>();
  StrictLane lane(store);
  lane.job->SubmitRaw(MakeRequest(1)).get();

  const auto keys = store->put_keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_TRUE(keys.back().ends_with("MANIFEST"))
      << "manifest must be the last object stored, got " << keys.back();
}

TEST(RawSubmission, EmptyIncrementalStillCommits) {
  auto store = std::make_shared<storage::InMemoryStore>();
  StrictLane lane(store);

  CheckpointRequest req = MakeRequest(2);
  req.plan.kind = storage::CheckpointKind::kIncremental;
  req.plan.parent_id = 1;
  req.plan.rows.resize(1);
  req.plan.rows[0].emplace_back(64);  // all-clear dirty sets
  req.plan.rows[0].emplace_back(64);

  const WriteResult result = lane.job->SubmitRaw(std::move(req)).get();
  EXPECT_EQ(result.manifest.chunks.size(), 0u);
  EXPECT_EQ(result.rows_written, 0u);
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("pipe", 2)));
}

TEST(RawSubmission, PostCommitRunsAfterManifestIsValid) {
  auto store = std::make_shared<storage::InMemoryStore>();
  StrictLane lane(store);
  std::atomic<bool> manifest_present_at_hook{false};
  CheckpointRequest req = MakeRequest(1);
  req.post_commit = [&] {
    manifest_present_at_hook.store(
        store->Exists(storage::Manifest::ManifestKey("pipe", 1)));
  };
  lane.job->SubmitRaw(std::move(req)).get();
  EXPECT_TRUE(manifest_present_at_hook.load());
}

TEST(RawSubmission, StrictModeGroupsCheckpointWrites) {
  auto store = std::make_shared<RecordingStore>();
  StrictLane lane(store, /*max_inflight=*/1);
  lane.job->SubmitRaw(MakeRequest(1));
  lane.job->SubmitRaw(MakeRequest(2));
  lane.job->SubmitRaw(MakeRequest(3));
  lane.service.DrainAll();

  // §4.3 non-overlap: once checkpoint k+1 writes anything, checkpoint k is
  // done — put order must be nondecreasing in checkpoint id.
  std::uint64_t prev = 0;
  for (const auto& key : store->put_keys()) {
    const auto id = CkptIdFromKey(key);
    EXPECT_GE(id, prev) << "checkpoint writes interleaved at " << key;
    prev = id;
  }
}

TEST(RawSubmission, OverlappedCommitsLandInSubmissionOrder) {
  auto store = std::make_shared<RecordingStore>();
  store->SlowCheckpoint(1);  // checkpoint 1's puts dawdle; 2 races ahead
  StrictLane lane(store, /*max_inflight=*/2);
  auto f1 = lane.job->SubmitRaw(MakeRequest(1));
  auto f2 = lane.job->SubmitRaw(MakeRequest(2));
  f1.get();
  f2.get();

  const auto keys = store->put_keys();
  std::size_t m1 = keys.size(), m2 = keys.size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i].ends_with("MANIFEST")) continue;
    if (CkptIdFromKey(keys[i]) == 1) m1 = i;
    if (CkptIdFromKey(keys[i]) == 2) m2 = i;
  }
  ASSERT_LT(m1, keys.size());
  ASSERT_LT(m2, keys.size());
  EXPECT_LT(m1, m2) << "commit order must follow submission order";
}

TEST(RawSubmission, FailedCheckpointIsNeverValidAndSuccessorProceeds) {
  auto store = std::make_shared<RecordingStore>();
  store->FailCheckpoint(1);
  StrictLane lane(store, /*max_inflight=*/1);

  auto f1 = lane.job->SubmitRaw(MakeRequest(1));
  EXPECT_THROW(f1.get(), storage::StoreUnavailable);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("pipe", 1)));

  // The failure released the overlap slot; an independent (full) checkpoint
  // still goes through.
  auto f2 = lane.job->SubmitRaw(MakeRequest(2));
  EXPECT_NO_THROW(f2.get());
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("pipe", 2)));
}

TEST(RawSubmission, InflightParentFailureFailsDependentIncremental) {
  auto store = std::make_shared<RecordingStore>();
  store->FailCheckpoint(1);
  StrictLane lane(store, /*max_inflight=*/2);

  auto f1 = lane.job->SubmitRaw(MakeRequest(1));  // full baseline; will fail

  CheckpointRequest inc = MakeRequest(2);  // incremental over the doomed parent
  inc.plan.kind = storage::CheckpointKind::kIncremental;
  inc.plan.parent_id = 1;
  inc.plan.rows.resize(1);
  inc.plan.rows[0].emplace_back(64);
  inc.plan.rows[0].emplace_back(64);
  inc.plan.rows[0][0].Set(3);
  inc.plan.rows[0][1].Set(7);
  auto f2 = lane.job->SubmitRaw(std::move(inc));

  EXPECT_THROW(f1.get(), storage::StoreUnavailable);
  EXPECT_THROW(f2.get(), std::runtime_error);  // lineage rule
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("pipe", 2)))
      << "an incremental whose parent failed in flight must not become valid";
}

TEST(RawSubmission, SubmitWithoutSnapshotFnThrows) {
  StrictLane lane(std::make_shared<storage::InMemoryStore>());
  CheckpointRequest req;
  req.checkpoint_id = 1;
  EXPECT_THROW(lane.job->SubmitRaw(std::move(req)), std::invalid_argument);
}

TEST(RawSubmission, InvalidConfigRejected) {
  auto store = std::make_shared<storage::InMemoryStore>();
  EXPECT_THROW(CheckpointService(store, StrictService(/*max_inflight=*/0)),
               std::invalid_argument);
  EXPECT_THROW(CheckpointService(nullptr, StrictService(1)), std::invalid_argument);
  CheckpointService service(store, StrictService(1));
  EXPECT_THROW(service.OpenJob(StrictJob(/*max_inflight=*/0)), std::invalid_argument);
}

TEST(RawSubmission, ManyCheckpointsBackToBack) {
  auto store = std::make_shared<storage::InMemoryStore>();
  StrictLane lane(store, /*max_inflight=*/2);
  std::vector<std::future<WriteResult>> futures;
  for (std::uint64_t id = 1; id <= 8; ++id) futures.push_back(lane.job->SubmitRaw(MakeRequest(id)));
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  for (std::uint64_t id = 1; id <= 8; ++id) {
    EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("pipe", id))) << id;
  }
}

}  // namespace
}  // namespace cnr::core::pipeline
