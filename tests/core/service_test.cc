// Multi-job tests of core::CheckpointService: N jobs sharing one engine with
// per-job in-order commits, weighted round-robin chunk scheduling (a large
// full checkpoint cannot starve a small job's incrementals), pre-commit
// admission-slot release, per-job lineage, occupancy accounting, shutdown
// draining every job, and the admission bound under overload from plain and
// sharded jobs. Run in CI both plain and with -fsanitize=thread.
#include "core/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_checkpoint.h"
#include "data/synthetic.h"
#include "dlrm/model.h"
#include "storage/latency_store.h"
#include "storage/object_store.h"

namespace cnr::core {
namespace {

using namespace std::chrono_literals;

// Snapshot with `rows` rows per shard across two shards of one table; with
// chunk_rows = 16 that is rows/8 chunks per checkpoint.
ModelSnapshot MakeSnapshot(std::size_t rows = 64) {
  ModelSnapshot snap;
  snap.batches_trained = 10;
  snap.samples_trained = 320;
  snap.shards.resize(1);
  for (std::uint32_t s = 0; s < 2; ++s) {
    ShardSnapshot shard;
    shard.table_id = 0;
    shard.shard_id = s;
    shard.num_rows = rows;
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

CheckpointRequest MakeRequest(const std::string& job, std::uint64_t id,
                              std::size_t rows = 64) {
  CheckpointRequest req;
  req.checkpoint_id = id;
  req.writer.job = job;
  req.writer.chunk_rows = 16;
  req.writer.quant.method = quant::Method::kNone;
  req.plan.kind = storage::CheckpointKind::kFull;
  req.snapshot_fn = [rows] { return MakeSnapshot(rows); };
  return req;
}

JobConfig RawJob(const std::string& name, std::size_t cap = 1, std::uint32_t weight = 1) {
  JobConfig job;
  job.name = name;
  job.weight = weight;
  job.max_inflight_checkpoints = cap;
  job.gc = false;
  return job;
}

ServiceConfig SmallService() {
  ServiceConfig cfg;
  cfg.encode_threads = 2;
  cfg.store_threads = 2;
  cfg.queue_capacity = 4;
  cfg.max_inflight_checkpoints = 8;
  return cfg;
}

std::string JobOfKey(const std::string& key) {
  if (!key.starts_with("jobs/")) return "";
  return key.substr(5, key.find('/', 5) - 5);
}

// Forwards to an InMemoryStore, logging Put keys in arrival order and
// optionally failing the puts of selected (job, checkpoint) pairs.
class RecordingStore : public storage::ObjectStore {
 public:
  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    {
      std::lock_guard lock(mu_);
      for (const auto& prefix : fail_prefixes_) {
        if (key.starts_with(prefix)) {
          throw storage::StoreUnavailable("injected failure for " + key);
        }
      }
    }
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

  void FailCheckpoint(const std::string& job, std::uint64_t id) {
    std::lock_guard lock(mu_);
    fail_prefixes_.push_back(storage::Manifest::CheckpointPrefix(job, id));
  }
  std::vector<std::string> put_keys() const {
    std::lock_guard lock(mu_);
    return put_keys_;
  }

 private:
  storage::InMemoryStore inner_;
  mutable std::mutex mu_;
  std::vector<std::string> put_keys_;
  std::vector<std::string> fail_prefixes_;
};

void ExpectManifestComplete(storage::ObjectStore& store, const std::string& job,
                            std::uint64_t id) {
  const auto bytes = store.Get(storage::Manifest::ManifestKey(job, id));
  ASSERT_TRUE(bytes.has_value()) << job << "/" << id;
  const auto m = storage::Manifest::Decode(*bytes);
  EXPECT_TRUE(store.Exists(m.dense_key)) << m.dense_key;
  for (const auto& c : m.chunks) EXPECT_TRUE(store.Exists(c.key)) << c.key;
}

// ------------------------------------------------------------- open/close ---

TEST(CheckpointService, OpenJobValidation) {
  auto store = std::make_shared<storage::InMemoryStore>();
  EXPECT_THROW(CheckpointService(nullptr, SmallService()), std::invalid_argument);
  {
    ServiceConfig bad = SmallService();
    bad.max_inflight_checkpoints = 0;
    EXPECT_THROW(CheckpointService(store, bad), std::invalid_argument);
  }

  CheckpointService service(store, SmallService());
  auto a = service.OpenJob(RawJob("a"));
  EXPECT_THROW(service.OpenJob(RawJob("a")), std::invalid_argument)
      << "a job name may have only one open handle";
  EXPECT_THROW(service.OpenJob(RawJob("b", /*cap=*/0)), std::invalid_argument);

  a.reset();  // close: the name becomes reusable
  EXPECT_NO_THROW(service.OpenJob(RawJob("a")));
}

// ------------------------------------------------------ multi-job commits ---

TEST(CheckpointService, ThreeJobsCommitInPerJobSubmissionOrder) {
  auto store = std::make_shared<RecordingStore>();
  CheckpointService service(store, SmallService());

  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  std::vector<std::unique_ptr<JobHandle>> handles;
  for (const auto& name : names) handles.push_back(service.OpenJob(RawJob(name, /*cap=*/2)));

  // Interleave submissions from three trainer threads, one per job.
  std::vector<std::thread> trainers;
  std::mutex futures_mu;
  std::vector<std::future<WriteResult>> futures;
  for (std::size_t j = 0; j < handles.size(); ++j) {
    trainers.emplace_back([&, j] {
      for (std::uint64_t id = 1; id <= 4; ++id) {
        auto f = handles[j]->SubmitRaw(MakeRequest(names[j], id));
        std::lock_guard lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& t : trainers) t.join();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());

  // Per-job commit (manifest-put) order must equal per-job submission order;
  // cross-job interleaving is free.
  std::map<std::string, std::uint64_t> last_committed;
  for (const auto& key : store->put_keys()) {
    if (!key.ends_with("MANIFEST")) continue;
    const auto job = JobOfKey(key);
    const auto id = std::stoull(key.substr(key.find("/ckpt/") + 6, 12));
    EXPECT_EQ(id, last_committed[job] + 1) << "job " << job << " committed out of order";
    last_committed[job] = id;
  }
  for (std::size_t j = 0; j < names.size(); ++j) {
    EXPECT_EQ(last_committed[names[j]], 4u);
    for (std::uint64_t id = 1; id <= 4; ++id) ExpectManifestComplete(*store, names[j], id);
    EXPECT_EQ(handles[j]->stats().committed, 4u);
  }
}

// ---------------------------------------------------------------- fairness --

TEST(CheckpointService, WeightedSchedulingBoundsSmallJobLatency) {
  // Three concurrent jobs on one service, one store worker over a
  // 200 us/put link — the link is the bottleneck. A large job streams one
  // full checkpoint of 256 chunks (~51 ms of link time); two small,
  // latency-sensitive jobs each submit 6 tiny checkpoints from their own
  // trainer threads. Weighted round-robin (small:4, large:1) must
  // interleave the small jobs' chunks into the large stream, keeping every
  // small submit-to-commit latency far below the large checkpoint's wall.
  auto inner = std::make_shared<storage::InMemoryStore>();
  auto store = std::make_shared<storage::LatencyInjectedStore>(
      inner, /*get_latency=*/0us, /*put_latency=*/200us);

  ServiceConfig cfg;
  cfg.encode_threads = 2;
  cfg.store_threads = 1;  // serialize the link: scheduling decides who goes
  cfg.queue_capacity = 4;
  cfg.max_inflight_checkpoints = 4;
  CheckpointService service(store, cfg);

  auto large = service.OpenJob(RawJob("large", /*cap=*/1, /*weight=*/1));
  std::vector<std::unique_ptr<JobHandle>> smalls;
  smalls.push_back(service.OpenJob(RawJob("small0", /*cap=*/1, /*weight=*/4)));
  smalls.push_back(service.OpenJob(RawJob("small1", /*cap=*/1, /*weight=*/4)));

  // 2 shards x 2048 rows / 16 rows per chunk = 256 chunks.
  auto large_future = large->SubmitRaw(MakeRequest("large", 1, /*rows=*/2048));

  constexpr std::uint64_t kSmallCkpts = 6;
  std::mutex mu;
  std::vector<std::chrono::microseconds> latencies;
  bool all_before_large = true;
  std::vector<std::thread> trainers;
  for (std::size_t j = 0; j < smalls.size(); ++j) {
    trainers.emplace_back([&, j] {
      const std::string name = "small" + std::to_string(j);
      for (std::uint64_t id = 1; id <= kSmallCkpts; ++id) {
        const auto t0 = std::chrono::steady_clock::now();
        auto f = smalls[j]->SubmitRaw(MakeRequest(name, id, /*rows=*/16));  // 2 chunks
        f.wait();
        const auto lat = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0);
        EXPECT_NO_THROW(f.get());
        // mu also serializes the two trainers' peeks at large_future (a
        // future is not safe for concurrent access).
        std::lock_guard lock(mu);
        latencies.push_back(lat);
        all_before_large &=
            large_future.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
      }
    });
  }
  for (auto& t : trainers) t.join();

  const WriteResult large_result = large_future.get();
  ASSERT_EQ(large_result.manifest.chunks.size(), 256u);

  // Every small checkpoint committed while the large one was still
  // streaming: neither small job was ever starved behind the big backlog.
  EXPECT_TRUE(all_before_large)
      << "a small job had to wait for the large checkpoint to finish";

  // p99 (= max of 12) submit-to-commit latency stays a small fraction of
  // the large checkpoint's wall. Without fair scheduling the first small
  // checkpoint would queue behind ~256 chunks and pay the whole large wall.
  const auto worst = *std::max_element(latencies.begin(), latencies.end());
  EXPECT_LT(worst.count(), large_result.write_wall.count() / 2)
      << "small-job p99 " << worst.count() << " us vs large wall "
      << large_result.write_wall.count() << " us";

  ExpectManifestComplete(*store, "large", 1);
  for (std::uint64_t id = 1; id <= kSmallCkpts; ++id) {
    ExpectManifestComplete(*store, "small0", id);
    ExpectManifestComplete(*store, "small1", id);
  }
}

// ------------------------------------------------------------- shutdown -----

TEST(CheckpointService, ShutdownDrainsEveryJob) {
  auto store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(store, SmallService());
    auto a = service.OpenJob(RawJob("a", /*cap=*/2));
    auto b = service.OpenJob(RawJob("b", /*cap=*/2));
    auto c = service.OpenJob(RawJob("c", /*cap=*/2));
    for (std::uint64_t id = 1; id <= 2; ++id) {
      a->SubmitRaw(MakeRequest("a", id));
      b->SubmitRaw(MakeRequest("b", id));
      c->SubmitRaw(MakeRequest("c", id));
    }
    // Handles and service destruct here with six writes in flight; the
    // destructors must drain them all — dropped futures included.
  }
  for (const std::string job : {"a", "b", "c"}) {
    for (std::uint64_t id = 1; id <= 2; ++id) ExpectManifestComplete(*store, job, id);
  }
}

// ------------------------------------------------- pre-commit slot release --

// Blocks Puts of one configured key until released; counts chunk puts.
class GateStore : public storage::InMemoryStore {
 public:
  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    {
      std::unique_lock lock(mu_);
      if (key == gated_key_) cv_.wait(lock, [&] { return released_; });
    }
    InMemoryStore::Put(key, std::move(data));
    if (key.find("/t") != std::string::npos) ++chunk_puts_;
  }
  void GateKey(std::string key) { gated_key_ = std::move(key); }  // pre-run only
  void Release() {
    {
      std::lock_guard lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  int chunk_puts() const { return chunk_puts_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string gated_key_;
  bool released_ = false;
  std::atomic<int> chunk_puts_{0};
};

TEST(CheckpointService, PreCommitSlotReleaseAdmitsNextDuringPublicationTail) {
  auto store = std::make_shared<GateStore>();
  store->GateKey(storage::Manifest::DenseKey("gate", 1));

  ServiceConfig cfg = SmallService();
  cfg.release_slot_on_stored = true;  // the satellite under test
  CheckpointService service(store, cfg);
  auto handle = service.OpenJob(RawJob("gate", /*cap=*/1));

  auto f1 = handle->SubmitRaw(MakeRequest("gate", 1));
  // Wait until checkpoint 1 has stored all 8 chunks and is blocked on its
  // dense blob — the publication tail.
  while (store->chunk_puts() < 8) std::this_thread::sleep_for(1ms);

  // With the slot released at "all chunks stored", the next Submit is
  // admitted even though checkpoint 1 has not committed yet.
  std::atomic<bool> admitted{false};
  std::thread trainer([&] {
    auto f2 = handle->SubmitRaw(MakeRequest("gate", 2));
    admitted.store(true);
    f2.get();
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!admitted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(admitted.load()) << "pre-commit slot release never admitted checkpoint 2";
  EXPECT_NE(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "checkpoint 1 must still be blocked on its dense put";

  store->Release();
  EXPECT_NO_THROW(f1.get());
  trainer.join();
  ExpectManifestComplete(*store, "gate", 1);
  ExpectManifestComplete(*store, "gate", 2);
}

TEST(CheckpointService, StrictSlotReleaseHoldsAdmissionUntilCommit) {
  auto store = std::make_shared<GateStore>();
  store->GateKey(storage::Manifest::DenseKey("gate", 1));

  ServiceConfig cfg = SmallService();
  cfg.release_slot_on_stored = false;  // original §4.3 behavior
  CheckpointService service(store, cfg);
  auto handle = service.OpenJob(RawJob("gate", /*cap=*/1));

  auto f1 = handle->SubmitRaw(MakeRequest("gate", 1));
  while (store->chunk_puts() < 8) std::this_thread::sleep_for(1ms);

  std::atomic<bool> admitted{false};
  std::thread trainer([&] {
    auto f2 = handle->SubmitRaw(MakeRequest("gate", 2));
    admitted.store(true);
    f2.get();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(admitted.load())
      << "strict mode must hold the slot until checkpoint 1 commits";

  store->Release();
  EXPECT_NO_THROW(f1.get());
  trainer.join();
}

// ------------------------------------------------------------ lineage -------

TEST(CheckpointService, LineageRuleIsPerJob) {
  auto store = std::make_shared<RecordingStore>();
  store->FailCheckpoint("doomed", 1);
  CheckpointService service(store, SmallService());
  auto doomed = service.OpenJob(RawJob("doomed", /*cap=*/2));
  auto healthy = service.OpenJob(RawJob("healthy", /*cap=*/2));

  auto f1 = doomed->SubmitRaw(MakeRequest("doomed", 1));  // fails in flight
  CheckpointRequest inc = MakeRequest("doomed", 2);
  inc.plan.kind = storage::CheckpointKind::kIncremental;
  inc.plan.parent_id = 1;
  inc.plan.rows.resize(1);
  inc.plan.rows[0].emplace_back(64);
  inc.plan.rows[0].emplace_back(64);
  inc.plan.rows[0][0].Set(3);
  auto f2 = doomed->SubmitRaw(std::move(inc));
  auto f3 = healthy->SubmitRaw(MakeRequest("healthy", 1));

  EXPECT_THROW(f1.get(), storage::StoreUnavailable);
  EXPECT_THROW(f2.get(), std::runtime_error);  // lineage rule, same job
  EXPECT_NO_THROW(f3.get());                   // other jobs are untouched

  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("doomed", 1)));
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("doomed", 2)));
  ExpectManifestComplete(*store, "healthy", 1);
  EXPECT_EQ(doomed->stats().failed, 2u);
  EXPECT_EQ(healthy->stats().committed, 1u);
}

// An incremental whose rows do not match its snapshot fails its own future
// with std::invalid_argument, and the service keeps serving.
TEST(CheckpointService, MalformedIncrementalPlanFailsItsFuture) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  auto handle = service.OpenJob(RawJob("shape"));
  ASSERT_NO_THROW(handle->SubmitRaw(MakeRequest("shape", 1)).get());

  CheckpointRequest bad = MakeRequest("shape", 2);
  bad.plan.kind = storage::CheckpointKind::kIncremental;
  bad.plan.parent_id = 1;
  bad.plan.rows = {};
  EXPECT_THROW(handle->SubmitRaw(std::move(bad)).get(), std::invalid_argument);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("shape", 2)));

  ASSERT_NO_THROW(handle->SubmitRaw(MakeRequest("shape", 3)).get());
  ExpectManifestComplete(*store, "shape", 3);
  EXPECT_EQ(handle->stats().failed, 1u);
}

// ------------------------------------------------------- stats & accounting --

TEST(CheckpointService, StatsTrackPerJobOccupancy) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  auto big = service.OpenJob(RawJob("big"));
  auto tiny = service.OpenJob(RawJob("tiny"));

  big->SubmitRaw(MakeRequest("big", 1, /*rows=*/256)).get();
  tiny->SubmitRaw(MakeRequest("tiny", 1, /*rows=*/16)).get();
  // A future becomes ready a hair before its slot is retired; DrainAll is
  // the quiescence point for counters.
  service.DrainAll();

  const auto stats = service.stats();
  ASSERT_EQ(stats.jobs.size(), 2u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.jobs.at("big").committed, 1u);
  EXPECT_EQ(stats.jobs.at("tiny").committed, 1u);
  EXPECT_GT(stats.jobs.at("big").store_bytes, stats.jobs.at("tiny").store_bytes);
  EXPECT_EQ(stats.store_bytes,
            stats.jobs.at("big").store_bytes + stats.jobs.at("tiny").store_bytes);
  EXPECT_EQ(stats.store_bytes, store->TotalBytes());
  EXPECT_GT(big->stats().bytes_written, 0u);

  // Codec throughput counters: committed checkpoints accumulate encode/store
  // stage cpu and the chunk bytes it moved, so bytes/sec is derivable from
  // production stats alone.
  const auto& big_stats = stats.jobs.at("big");
  EXPECT_GT(big_stats.chunk_bytes_total, 0u);
  // Stage cpu can legitimately round to 0 µs for a tiny chunk; the derived
  // rate must be consistent with whatever was recorded.
  if (big_stats.encode_us_total > 0) {
    EXPECT_GT(big_stats.EncodeBytesPerSec(), 0.0);
  } else {
    EXPECT_EQ(big_stats.EncodeBytesPerSec(), 0.0);
  }
}

TEST(CheckpointService, SharedQuotaFailsTheOffendingCheckpoint) {
  auto store = std::make_shared<storage::InMemoryStore>();
  ServiceConfig cfg = SmallService();
  cfg.shared_quota_bytes = 1024;  // far below one full checkpoint
  CheckpointService service(store, cfg);
  auto handle = service.OpenJob(RawJob("quota"));

  auto f = handle->SubmitRaw(MakeRequest("quota", 1));
  EXPECT_THROW(f.get(), storage::QuotaExceeded);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("quota", 1)))
      << "a quota-rejected checkpoint must never become valid";
}

// --------------------------------------------------------- policy path ------

TEST(CheckpointService, PolicyPathNumbersAndChainsCheckpoints) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());

  JobConfig cfg = RawJob("managed");
  cfg.policy = PolicyKind::kOneShot;
  cfg.quantize = false;
  cfg.chunk_rows = 16;
  cfg.total_rows = 128;  // policy sizing without a model
  cfg.gc = true;
  auto handle = service.OpenJob(std::move(cfg));

  // First interval: the policy must plan a full baseline.
  IntervalSubmission first;
  first.snapshot_fn = [] { return MakeSnapshot(); };
  auto s1 = handle->Submit(std::move(first));
  EXPECT_EQ(s1.checkpoint_id, 1u);
  EXPECT_EQ(s1.kind, storage::CheckpointKind::kFull);
  EXPECT_NO_THROW(s1.future.get());

  // Second interval with a few dirty rows: an incremental over the baseline.
  IntervalSubmission second;
  second.snapshot_fn = [] { return MakeSnapshot(); };
  second.interval_dirty.resize(1);
  second.interval_dirty[0].emplace_back(64);
  second.interval_dirty[0].emplace_back(64);
  second.interval_dirty[0][0].Set(1);
  second.interval_dirty[0][1].Set(2);
  auto s2 = handle->Submit(std::move(second));
  EXPECT_EQ(s2.checkpoint_id, 2u);
  EXPECT_EQ(s2.kind, storage::CheckpointKind::kIncremental);
  const WriteResult r2 = s2.future.get();
  EXPECT_EQ(r2.manifest.parent_id, 1u);
  EXPECT_EQ(r2.rows_written, 2u);

  // A raw-only job has no policy to consult.
  auto raw = service.OpenJob(RawJob("raw"));
  IntervalSubmission sub;
  sub.snapshot_fn = [] { return MakeSnapshot(); };
  EXPECT_THROW(raw->Submit(std::move(sub)), std::logic_error);
}


// Admission under overload: three plain jobs and two sharded jobs submit
// from their own threads against a service-wide cap of 2 on a slow store.
// A coordinated cut counts as one unit, so the grant high-water mark never
// exceeds the cap however many shard members are in flight; every snapshot
// thunk runs while its grant is held; and a torn cut (one shard's Puts fail)
// returns its grant — its job, whose per-job cap is 1, goes on to commit
// its next cuts.
TEST(CheckpointService, AdmissionBoundHoldsUnderOverload) {
  constexpr std::size_t kCap = 2;
  auto backing = std::make_shared<RecordingStore>();
  auto store = std::make_shared<storage::LatencyInjectedStore>(backing, 0us, 200us);
  ServiceConfig cfg = SmallService();
  cfg.max_inflight_checkpoints = kCap;
  cfg.put_attempts = 1;
  CheckpointService service(store, cfg);

  std::atomic<std::size_t> in_thunk{0};
  std::atomic<int> thunk_violations{0};
  std::atomic<int> raw_committed{0};
  std::vector<std::thread> threads;
  for (int j = 0; j < 3; ++j) {
    threads.emplace_back([&, j] {
      auto handle = service.OpenJob(RawJob("raw" + std::to_string(j), /*cap=*/2));
      std::vector<std::future<WriteResult>> futures;
      for (std::uint64_t id = 1; id <= 6; ++id) {
        CheckpointRequest req = MakeRequest(handle->name(), id);
        req.snapshot_fn = [&] {
          const std::size_t running = in_thunk.fetch_add(1) + 1;
          const ServiceStats stats = service.stats();
          if (running > kCap || stats.admitted < 1 || stats.admitted > kCap) {
            thunk_violations.fetch_add(1);
          }
          in_thunk.fetch_sub(1);
          return MakeSnapshot();
        };
        futures.push_back(handle->SubmitRaw(std::move(req)));
      }
      for (auto& f : futures) {
        f.get();
        raw_committed.fetch_add(1);
      }
    });
  }

  dlrm::ModelConfig mc;
  mc.num_dense = 4;
  mc.embedding_dim = 8;
  mc.table_rows = {128, 64};
  mc.bottom_hidden = {16};
  mc.top_hidden = {16};
  mc.num_shards = 4;
  data::DatasetConfig dc;
  dc.num_dense = 4;
  dc.tables = {{128, 2, 1.1}, {64, 1, 1.05}};
  // The second cut of job "cut1" uses sub-checkpoint ids 5..8: shard 1's
  // (id 6) Puts fail, tearing that cut.
  backing->FailCheckpoint("cut1", 6);
  std::vector<std::vector<bool>> committed(2);
  for (int j = 0; j < 2; ++j) {
    threads.emplace_back([&, j] {
      dlrm::DlrmModel model(mc);
      data::SyntheticDataset ds(dc);
      ShardedJobConfig sc;
      sc.name = "cut" + std::to_string(j);
      sc.quantize = false;
      sc.chunk_rows = 16;
      sc.gc = false;
      ShardedJobHandle handle(service, model, sc);
      for (std::uint64_t c = 1; c <= 4; ++c) {
        for (std::uint64_t b = 0; b < 2; ++b) {
          model.TrainBatch(ds.GetBatch(c * 2 + b, (c * 2 + b) * 32, 32));
        }
        committed[j].push_back(handle.WriteCut(c * 2, c * 64).committed);
      }
    });
  }
  for (auto& t : threads) t.join();
  service.DrainAll();

  EXPECT_EQ(thunk_violations.load(), 0);
  EXPECT_EQ(raw_committed.load(), 18);
  EXPECT_EQ(committed[0], (std::vector<bool>{true, true, true, true}));
  EXPECT_EQ(committed[1], (std::vector<bool>{true, false, true, true}));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 0u);  // the torn cut returned its grant too
  EXPECT_EQ(stats.admission_waiters, 0u);
  EXPECT_GE(stats.admitted_peak, 1u);
  EXPECT_LE(stats.admitted_peak, kCap);
}

}  // namespace
}  // namespace cnr::core
