// Maintenance-plane tests: startup reconciliation over a populated store
// (truthful stats() without a single write), quota-pressure eviction in
// (priority, then staleness) order instead of failing the submit, explicit
// Gc with dry-run reporting, parallel-vs-serial scrub verdict parity, and a
// SimClock-driven background scrub schedule. Run in CI both plain and with
// -fsanitize=thread.
#include "core/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/service.h"
#include "core/sharded_checkpoint.h"
#include "data/synthetic.h"
#include "storage/object_store.h"
#include "util/sim_clock.h"

namespace cnr::core {
namespace {

using namespace std::chrono_literals;

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

JobConfig RawJob(const std::string& name, std::uint32_t priority = 1) {
  JobConfig job;
  job.name = name;
  job.priority = priority;
  job.max_inflight_checkpoints = 1;
  job.gc = false;  // retain every lineage — maintenance is under test
  return job;
}

ServiceConfig SmallService() {
  ServiceConfig cfg;
  cfg.encode_threads = 2;
  cfg.store_threads = 2;
  cfg.queue_capacity = 4;
  cfg.max_inflight_checkpoints = 4;
  return cfg;
}

// Store decorator recording the prefixes it Lists: the probe for "whose
// keys did a GC look at".
class ListRecordingStore : public storage::ObjectStore {
 public:
  explicit ListRecordingStore(std::shared_ptr<storage::ObjectStore> inner)
      : inner_(std::move(inner)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    inner_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return inner_->Get(key);
  }
  bool Exists(const std::string& key) override { return inner_->Exists(key); }
  bool Delete(const std::string& key) override { return inner_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    {
      std::lock_guard lock(mu_);
      prefixes_.push_back(prefix);
    }
    return inner_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return inner_->TotalBytes(); }
  storage::StoreStats Stats() override { return inner_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return inner_->SizeOf(key);
  }

  // Prefixes Listed since the last call.
  std::vector<std::string> TakeListed() {
    std::lock_guard lock(mu_);
    return std::exchange(prefixes_, {});
  }

 private:
  std::shared_ptr<storage::ObjectStore> inner_;
  std::mutex mu_;
  std::vector<std::string> prefixes_;
};

// Store decorator that rejects the first Put of `key` with
// storage::QuotaExceeded, exactly once — a single quota trip at a chosen
// point of the write path, with no real quota behind it.
class QuotaTripStore : public storage::ObjectStore {
 public:
  QuotaTripStore(std::shared_ptr<storage::ObjectStore> inner, std::string key)
      : inner_(std::move(inner)), key_(std::move(key)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    if (key == key_ && !tripped_.exchange(true)) {
      throw storage::QuotaExceeded("injected quota trip on " + key);
    }
    inner_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    return inner_->Get(key);
  }
  bool Exists(const std::string& key) override { return inner_->Exists(key); }
  bool Delete(const std::string& key) override { return inner_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return inner_->TotalBytes(); }
  storage::StoreStats Stats() override { return inner_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return inner_->SizeOf(key);
  }

  bool tripped() const { return tripped_.load(); }

 private:
  std::shared_ptr<storage::ObjectStore> inner_;
  std::string key_;
  std::atomic<bool> tripped_{false};
};

// Writes `fulls` full checkpoints for `job` (each starting a lineage; with
// gc off all of them stay in the store).
void PopulateJob(CheckpointService& service, const std::string& name, std::size_t fulls,
                 std::uint32_t priority = 1, std::size_t rows = 64) {
  auto handle = service.OpenJob(RawJob(name, priority));
  for (std::uint64_t id = 1; id <= fulls; ++id) {
    handle->SubmitRaw(MakeRequest(name, id, rows)).get();
  }
  handle->Drain();
}

// --------------------------------------------------------------- survey -----

TEST(Maintenance, SurveySeparatesLiveStaleAndOrphans) {
  auto store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(store, SmallService());
    PopulateJob(service, "alpha", /*fulls=*/3);
  }
  // Plant an orphan: a chunk-like object of a checkpoint that never
  // published a manifest (exactly what an in-flight failure leaves behind).
  store->Put("jobs/alpha/ckpt/000000000009/t0/s0/c000000", {1, 2, 3, 4, 5});

  const JobSurvey survey = SurveyJob(*store, "alpha");
  EXPECT_EQ(survey.ids, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(survey.live_chain, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(survey.stale, (std::vector<std::uint64_t>{1, 2}));
  ASSERT_EQ(survey.orphans.size(), 1u);
  EXPECT_EQ(survey.orphan_bytes, 5u);
  EXPECT_GT(survey.live_bytes, 0u);
  EXPECT_GT(survey.stale_bytes, survey.live_bytes)
      << "two stale fulls must outweigh one live full";
  EXPECT_EQ(survey.total_bytes(), store->TotalBytes())
      << "the survey must attribute every byte in the store";
  EXPECT_EQ(ListStoreJobs(*store), std::vector<std::string>{"alpha"});
}

// -------------------------------------------------------- reconciliation ----

TEST(Maintenance, RestartedServiceReportsOccupancyWithoutWrites) {
  auto store = std::make_shared<storage::InMemoryStore>();
  std::uint64_t live_bytes_before = 0;
  {
    CheckpointService service(store, SmallService());
    PopulateJob(service, "alpha", /*fulls=*/3);  // three pre-existing lineages
    PopulateJob(service, "beta", /*fulls=*/1, /*priority=*/1, /*rows=*/16);
    live_bytes_before = service.stats().store_bytes;
  }
  ASSERT_GT(live_bytes_before, 0u);
  const auto puts_before = store->Stats().puts;

  // Restart: a fresh service over the same store. Reconciliation must seed
  // per-job occupancy from the manifests — with reads only.
  CheckpointService restarted(store, SmallService());
  const auto stats = restarted.stats();
  EXPECT_EQ(store->Stats().puts, puts_before)
      << "reconciliation must not write a single object";
  ASSERT_TRUE(stats.jobs.contains("alpha"));
  ASSERT_TRUE(stats.jobs.contains("beta"));
  EXPECT_EQ(stats.store_bytes, store->TotalBytes());
  EXPECT_EQ(stats.store_bytes, live_bytes_before);

  // Occupancy-parity invariant (docs/MANIFEST_FORMAT.md): the live view and
  // the offline survey (what `cnr_inspect <dir> jobs` prints) agree byte for
  // byte, per job.
  EXPECT_EQ(stats.jobs.at("alpha").store_bytes, SurveyJob(*store, "alpha").total_bytes());
  EXPECT_EQ(stats.jobs.at("beta").store_bytes, SurveyJob(*store, "beta").total_bytes());

  // Reconciliation is idempotent: a second pass seeds nothing.
  EXPECT_EQ(restarted.maintenance().ReconcileAll(), 0u);
}

TEST(Maintenance, ReconciliationFeedsTheQuotaCheck) {
  auto store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(store, SmallService());
    PopulateJob(service, "old", /*fulls=*/1);
  }
  const std::uint64_t occupied = store->TotalBytes();

  // A restarted service whose quota is below the pre-existing occupancy must
  // reject new writes (nothing stale to evict: the one lineage is live).
  ServiceConfig cfg = SmallService();
  cfg.shared_quota_bytes = occupied + 16;  // room for nothing
  CheckpointService service(store, cfg);
  auto handle = service.OpenJob(RawJob("new"));
  auto f = handle->SubmitRaw(MakeRequest("new", 1));
  EXPECT_THROW(f.get(), storage::QuotaExceeded);
}

// ------------------------------------------------------------- eviction -----

TEST(Maintenance, EvictionOrderIsPriorityThenStaleness) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  PopulateJob(service, "low", /*fulls=*/3, /*priority=*/1);   // stale: 1, 2
  PopulateJob(service, "high", /*fulls=*/3, /*priority=*/5);  // stale: 1, 2

  auto& maintenance = service.maintenance();
  // Evicting one byte removes exactly the first candidate: the
  // lowest-priority job's OLDEST stale checkpoint.
  EXPECT_GT(maintenance.EvictForQuota(1, "test"), 0u);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("low", 1)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("low", 2)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("high", 1)));

  // Next round: the same job's next-oldest stale lineage goes first.
  EXPECT_GT(maintenance.EvictForQuota(1, "test"), 0u);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("low", 2)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("high", 1)));

  // Only once the low-priority job has no stale lineages left does the
  // higher-priority job's staleness get touched — oldest first again.
  EXPECT_GT(maintenance.EvictForQuota(1, "test"), 0u);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("high", 1)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("high", 2)));

  // Live chains are sacred: with every stale lineage gone, eviction frees
  // nothing rather than touching a live baseline.
  EXPECT_GT(maintenance.EvictForQuota(1, "test"), 0u);  // evicts high/2
  EXPECT_EQ(maintenance.EvictForQuota(1, "test"), 0u);
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("low", 3)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("high", 3)));

  EXPECT_EQ(service.stats().jobs.at("low").evicted_checkpoints, 2u);
  EXPECT_EQ(service.stats().jobs.at("high").evicted_checkpoints, 2u);
}

// Eviction orders what is stored now: a job another service wrote on the
// same tier, which this service never opened, has priority 0 and goes first.
TEST(Maintenance, EvictionFollowsPriorityAfterAnotherWriter) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  PopulateJob(service, "a", /*fulls=*/3, /*priority=*/1);  // stale: a/1, a/2
  auto& maintenance = service.maintenance();
  EXPECT_GT(maintenance.EvictForQuota(1, "test"), 0u);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("a", 1)));

  {
    CheckpointService other(store, SmallService());
    PopulateJob(other, "x", /*fulls=*/3);  // stale: x/1, x/2
  }

  EXPECT_GT(maintenance.EvictForQuota(1, "test"), 0u);
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("x", 1)))
      << "x is unknown to this service (priority 0), so it is evicted first";
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("a", 2)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("x", 2)));
}

TEST(Maintenance, QuotaPressureEvictsStaleLineagesInsteadOfFailingTheSubmit) {
  auto store = std::make_shared<storage::InMemoryStore>();
  std::uint64_t one_full = 0;
  {
    CheckpointService probe(store, SmallService());
    PopulateJob(probe, "probe", 1);
    one_full = store->TotalBytes();
  }
  {  // reset the store for the real run
    for (const auto& key : store->List("")) store->Delete(key);
  }

  // Quota fits ~2.5 full checkpoints. The victim job writes two lineages
  // (one stale); the latecomer's full checkpoint then needs the stale one's
  // bytes to be admitted.
  ServiceConfig cfg = SmallService();
  cfg.shared_quota_bytes = one_full * 5 / 2;
  CheckpointService service(store, cfg);
  PopulateJob(service, "victim", /*fulls=*/2, /*priority=*/0);

  auto handle = service.OpenJob(RawJob("latecomer", /*priority=*/3));
  WriteResult result;
  ASSERT_NO_THROW(result = handle->SubmitRaw(MakeRequest("latecomer", 1)).get())
      << "quota pressure must evict, not fail the submit";
  EXPECT_GT(result.bytes_written, 0u);

  // The victim lost its stale lineage but kept its live chain.
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("victim", 1)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("victim", 2)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("latecomer", 1)));
  EXPECT_EQ(service.stats().jobs.at("victim").evicted_checkpoints, 1u);

  // With eviction disabled the same pressure fails the checkpoint instead.
  ServiceConfig strict = cfg;
  strict.evict_on_quota = false;
  auto store2 = std::make_shared<storage::InMemoryStore>();
  CheckpointService service2(store2, strict);
  PopulateJob(service2, "victim", /*fulls=*/2, /*priority=*/0);
  auto handle2 = service2.OpenJob(RawJob("latecomer", /*priority=*/3));
  auto f = handle2->SubmitRaw(MakeRequest("latecomer", 1));
  EXPECT_THROW(f.get(), storage::QuotaExceeded);
}

// ------------------------------------------------------------------- gc -----

TEST(Maintenance, GcDryRunReportsWithoutDeleting) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  PopulateJob(service, "alpha", /*fulls=*/3);

  const auto dry = service.Gc({.dry_run = true});
  EXPECT_TRUE(dry.dry_run);
  ASSERT_EQ(dry.jobs.size(), 1u);
  EXPECT_EQ(dry.jobs[0].evicted, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_GT(dry.bytes_freed, 0u);
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("alpha", 1)))
      << "a dry run must not delete";

  const auto real = service.Gc();
  EXPECT_EQ(real.checkpoints_evicted(), 2u);
  EXPECT_EQ(real.bytes_freed, dry.bytes_freed) << "the dry run must predict the real run";
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("alpha", 1)));
  EXPECT_FALSE(store->Exists(storage::Manifest::ManifestKey("alpha", 2)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("alpha", 3)));

  // Occupancy stays truthful: the deletes went through the accounting view.
  EXPECT_EQ(service.stats().store_bytes, store->TotalBytes());

  // Nothing left to collect.
  EXPECT_TRUE(service.Gc({.dry_run = true}).jobs.empty());
}

TEST(Maintenance, GcHonorsAJobsRetention) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  JobConfig cfg = RawJob("keeper");
  cfg.keep_checkpoints = 2;  // the job wants two lineages retained
  auto handle = service.OpenJob(std::move(cfg));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    handle->SubmitRaw(MakeRequest("keeper", id)).get();
  }
  handle->Drain();

  const auto report = service.Gc();  // keep_lineages=1, overridden upward
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].evicted, (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("keeper", 2)));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("keeper", 3)));
}

TEST(Maintenance, OfflineGcStoreRemovesOrphansOnRequest) {
  auto store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(store, SmallService());
    PopulateJob(service, "alpha", /*fulls=*/1);
  }
  store->Put("jobs/alpha/ckpt/000000000009/t0/s0/c000000", {1, 2, 3});

  const auto kept = GcStore(*store, {.dry_run = true, .remove_orphans = true});
  ASSERT_EQ(kept.jobs.size(), 1u);
  EXPECT_EQ(kept.jobs[0].orphans_removed, 1u);
  EXPECT_EQ(kept.jobs[0].orphan_bytes, 3u);

  GcStore(*store, {.remove_orphans = true});
  EXPECT_FALSE(store->Exists("jobs/alpha/ckpt/000000000009/t0/s0/c000000"));
  EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("alpha", 1)));
}

// ---------------------------------------------------------------- scrub -----

TEST(Maintenance, ParallelScrubMatchesSerialVerdicts) {
  auto store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(store, SmallService());
    auto handle = service.OpenJob(RawJob("scrubbed"));
    handle->SubmitRaw(MakeRequest("scrubbed", 1, /*rows=*/128)).get();
    CheckpointRequest inc = MakeRequest("scrubbed", 2, /*rows=*/128);
    inc.plan.kind = storage::CheckpointKind::kIncremental;
    inc.plan.parent_id = 1;
    inc.plan.rows.resize(1);
    inc.plan.rows[0].emplace_back(128);
    inc.plan.rows[0].emplace_back(128);
    inc.plan.rows[0][0].Set(3);
    inc.plan.rows[0][1].Set(70);
    handle->SubmitRaw(std::move(inc)).get();
    handle->Drain();
  }

  // Clean store: both scrubbers agree it is clean, byte for byte.
  const auto serial_clean = pipeline::ScrubChain(*store, "scrubbed", 2);
  const auto parallel_clean = pipeline::ScrubChainParallel(*store, "scrubbed", 2);
  EXPECT_TRUE(serial_clean.clean());
  EXPECT_TRUE(parallel_clean.clean());
  EXPECT_EQ(parallel_clean.chain, serial_clean.chain);
  EXPECT_EQ(parallel_clean.chunks_checked, serial_clean.chunks_checked);
  EXPECT_EQ(parallel_clean.rows_checked, serial_clean.rows_checked);
  EXPECT_EQ(parallel_clean.bytes_checked, serial_clean.bytes_checked);

  // Damage three objects three ways: flip a byte in one chunk (CRC), delete
  // another chunk (missing), truncate the dense blob (size).
  const auto m1 =
      storage::Manifest::Decode(*store->Get(storage::Manifest::ManifestKey("scrubbed", 1)));
  ASSERT_GE(m1.chunks.size(), 2u);
  auto rotten = *store->Get(m1.chunks[0].key);
  rotten[rotten.size() / 2] ^= 0x40;
  store->Put(m1.chunks[0].key, std::move(rotten));
  store->Delete(m1.chunks[1].key);
  store->Put(m1.dense_key, {9, 9});

  const auto serial = pipeline::ScrubChain(*store, "scrubbed", 2);
  const auto parallel = pipeline::ScrubChainParallel(*store, "scrubbed", 2);
  EXPECT_FALSE(serial.clean());
  ASSERT_EQ(parallel.issues, serial.issues)
      << "parallel scrub must reach verdicts identical to serial ScrubChain";
  EXPECT_EQ(parallel.chunks_checked, serial.chunks_checked);
  EXPECT_EQ(parallel.rows_checked, serial.rows_checked);
  EXPECT_EQ(parallel.bytes_checked, serial.bytes_checked);
}

// Scheduled scrubs run as a stage on the caller's executor; a manager given
// a clock but no executor has nowhere to run them.
TEST(Maintenance, ClockWithoutExecutorThrows) {
  auto store = std::make_shared<storage::InMemoryStore>();
  auto accounting = std::make_shared<storage::AccountingStore>(store, 0);
  util::SimClock clock;
  MaintenanceConfig cfg;
  cfg.clock = &clock;
  EXPECT_THROW(MaintenanceManager(accounting, store, cfg), std::invalid_argument);
}

TEST(Maintenance, SimClockScheduleFiresBackgroundScrubs) {
  auto store = std::make_shared<storage::InMemoryStore>();
  util::SimClock clock;
  ServiceConfig cfg = SmallService();
  cfg.maintenance_clock = &clock;
  CheckpointService service(store, cfg);

  JobConfig job = RawJob("scheduled");
  job.scrub_interval = util::kHour;
  auto handle = service.OpenJob(std::move(job));
  handle->SubmitRaw(MakeRequest("scheduled", 1)).get();
  handle->Drain();

  const auto wait_for_scrubs = [&](std::uint64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (handle->stats().scrubs_run < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    return handle->stats().scrubs_run;
  };

  EXPECT_EQ(handle->stats().scrubs_run, 0u) << "nothing is due at sim time 0";
  clock.Advance(util::kHour);  // one interval elapses
  EXPECT_EQ(wait_for_scrubs(1), 1u);
  EXPECT_EQ(handle->stats().scrub_issues, 0u);

  // A compressed jump over many intervals runs ONE catch-up scrub.
  clock.Advance(24 * util::kHour);
  EXPECT_EQ(wait_for_scrubs(2), 2u);

  // Rot a chunk; the next scheduled scrub reports it through stats().
  const auto m =
      storage::Manifest::Decode(*store->Get(storage::Manifest::ManifestKey("scheduled", 1)));
  auto rotten = *store->Get(m.chunks[0].key);
  rotten[rotten.size() / 2] ^= 0x01;
  store->Put(m.chunks[0].key, std::move(rotten));
  clock.Advance(util::kHour);
  EXPECT_EQ(wait_for_scrubs(3), 3u);
  EXPECT_GT(handle->stats().scrub_issues, 0u)
      << "a scheduled scrub must surface the damaged chain";
  EXPECT_FALSE(service.maintenance().job_stats("scheduled").last_scrub_clean);

  // On-demand scrub shares the kernel and the counters.
  const auto report = service.maintenance().ScrubJobNow("scheduled");
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(handle->stats().scrubs_run, 4u);
}

// ---------------------------------------------------- coordinated cuts ------

dlrm::ModelConfig ShardedModelConfig() {
  dlrm::ModelConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  cfg.table_rows = {128, 64};
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.num_shards = 4;
  cfg.seed = 5;
  return cfg;
}

// Trains `model` and writes `cuts` coordinated cuts of sharded job `name`.
void WriteShardedCuts(CheckpointService& service, const std::string& name,
                      dlrm::DlrmModel& model, int cuts, PolicyKind policy,
                      std::uint32_t keep_cuts = 1) {
  data::DatasetConfig dcfg;
  dcfg.seed = 6;
  dcfg.num_dense = 4;
  dcfg.tables = {{128, 2, 1.1}, {64, 1, 1.05}};
  data::SyntheticDataset ds(dcfg);

  ShardedJobConfig cfg;
  cfg.name = name;
  cfg.policy = policy;
  cfg.quantize = false;
  cfg.chunk_rows = 16;
  cfg.gc = false;  // explicit Gc()/EvictForQuota are under test
  cfg.keep_cuts = keep_cuts;
  ShardedJobHandle handle(service, model, cfg);
  int batch = 0;
  for (int c = 1; c <= cuts; ++c) {
    for (int b = 0; b < 2; ++b, ++batch) {
      model.TrainBatch(ds.GetBatch(batch, static_cast<std::uint64_t>(batch) * 32, 32));
    }
    ASSERT_TRUE(handle
                    .WriteCut(static_cast<std::uint64_t>(batch),
                              static_cast<std::uint64_t>(batch) * 32)
                    .committed);
  }
}

// Occupancy parity extends to coordinated manifests: a restarted service's
// reconciled per-job accounting must attribute a sharded job's cut objects
// (COORD manifest + cut dense blob) exactly as the offline survey does.
TEST(Maintenance, ShardedJobOccupancyParityAfterRestart) {
  auto store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(store, SmallService());
    dlrm::DlrmModel model(ShardedModelConfig());
    WriteShardedCuts(service, "shardy", model, /*cuts=*/2, PolicyKind::kOneShot,
                     /*keep_cuts=*/2);
  }
  const auto puts_before = store->Stats().puts;

  CheckpointService restarted(store, SmallService());
  EXPECT_EQ(store->Stats().puts, puts_before)
      << "reconciliation must not write a single object";
  const auto stats = restarted.stats();
  ASSERT_TRUE(stats.jobs.contains("shardy"));

  const JobSurvey survey = SurveyJob(*store, "shardy");
  ASSERT_EQ(survey.cuts.size(), 2u);
  EXPECT_GT(survey.cuts[1].object_bytes(), 0u) << "COORD + dense must be surveyed";
  EXPECT_EQ(stats.jobs.at("shardy").store_bytes, survey.total_bytes());
  EXPECT_EQ(stats.store_bytes, store->TotalBytes())
      << "cut objects must be part of reconciled occupancy";
  EXPECT_TRUE(survey.orphans.empty())
      << "cut objects must not be misread as orphans";
}

// A coordinated cut is one lineage unit to the maintenance plane: retention
// GC and quota eviction remove a stale cut's COORD manifest, dense blob, and
// sub-checkpoints together — never leaving a half-cut — and the surviving
// cut stays restorable bit for bit.
TEST(Maintenance, GcAndQuotaEvictionTreatCutsAsUnits) {
  auto store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(store, SmallService());
  dlrm::DlrmModel live(ShardedModelConfig());
  // kAlwaysFull: each cut's sub-checkpoints are self-contained, so the stale
  // cuts own (and eviction must take) their whole chains.
  WriteShardedCuts(service, "cuts", live, /*cuts=*/3, PolicyKind::kAlwaysFull);

  {
    const JobSurvey before = SurveyJob(*store, "cuts");
    ASSERT_EQ(before.cuts.size(), 3u);
    const auto units = PlanRetention(before, /*keep_lineages=*/1).units;
    ASSERT_EQ(units.size(), 2u);
    EXPECT_EQ(units[0].epoch, 1u);  // oldest first
    EXPECT_EQ(units[1].epoch, 2u);
    EXPECT_FALSE(units[0].ids.empty()) << "full cuts own their sub-checkpoints";
    EXPECT_GT(units[0].bytes, 0u);
  }

  // Retention GC (keep_cuts=1): cuts 1 and 2 go as whole units.
  const auto report = service.Gc();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].evicted_cuts, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(store->List(storage::Manifest::CutPrefix("cuts", 1)).empty());
  EXPECT_TRUE(store->List(storage::Manifest::CutPrefix("cuts", 2)).empty());

  const JobSurvey after_gc = SurveyJob(*store, "cuts");
  ASSERT_EQ(after_gc.cuts.size(), 1u);
  EXPECT_EQ(after_gc.cuts[0].epoch, 3u);
  EXPECT_TRUE(after_gc.stale.empty()) << "no orphaned half-cut may remain";
  EXPECT_TRUE(after_gc.orphans.empty());

  dlrm::DlrmModel restored(ShardedModelConfig());
  (void)RestoreShardedModel(*store, "cuts", restored);
  EXPECT_TRUE(restored.StateEquals(live));

  // Quota pressure takes the same units: one trip removes the stale cut of a
  // fresh two-cut job in full — COORD, dense, and sub-checkpoints together.
  auto store2 = std::make_shared<storage::InMemoryStore>();
  CheckpointService service2(store2, SmallService());
  dlrm::DlrmModel live2(ShardedModelConfig());
  WriteShardedCuts(service2, "q", live2, /*cuts=*/2, PolicyKind::kAlwaysFull);
  ASSERT_EQ(SurveyJob(*store2, "q").cuts.size(), 2u);

  EXPECT_GT(service2.maintenance().EvictForQuota(1, "test"), 0u);
  const JobSurvey after_evict = SurveyJob(*store2, "q");
  ASSERT_EQ(after_evict.cuts.size(), 1u);
  EXPECT_EQ(after_evict.cuts[0].epoch, 2u);
  EXPECT_TRUE(store2->List(storage::Manifest::CutPrefix("q", 1)).empty());
  EXPECT_TRUE(after_evict.stale.empty()) << "no half-cut after quota eviction";
  EXPECT_TRUE(after_evict.orphans.empty());
  EXPECT_EQ(service2.stats().jobs.at("q").evicted_checkpoints, 4u)
      << "the cut's four sub-checkpoints count as evicted";

  dlrm::DlrmModel restored2(ShardedModelConfig());
  (void)RestoreShardedModel(*store2, "q", restored2);
  EXPECT_TRUE(restored2.StateEquals(live2));
}

// ------------------------------------------------- one retention rule -------

CheckpointRequest IncrementalRequest(const std::string& job, std::uint64_t id,
                                     std::uint64_t parent) {
  CheckpointRequest req = MakeRequest(job, id);
  req.plan.kind = storage::CheckpointKind::kIncremental;
  req.plan.parent_id = parent;
  req.plan.rows.resize(1);
  req.plan.rows[0].emplace_back(64);
  req.plan.rows[0].emplace_back(64);
  req.plan.rows[0][0].Set(3);
  return req;
}

// Fulls 1 <- 2 and 3 <- 4 of `job`, then manifest 3 overwritten with
// garbage: the newest lineage (4 -> 3) is unrestorable, and 1 <- 2 is the
// only restorable state the job has left.
void WriteRottedLineage(CheckpointService& service, const std::string& job) {
  auto handle = service.OpenJob(RawJob(job));
  handle->SubmitRaw(MakeRequest(job, 1)).get();
  handle->SubmitRaw(IncrementalRequest(job, 2, 1)).get();
  handle->SubmitRaw(MakeRequest(job, 3)).get();
  handle->SubmitRaw(IncrementalRequest(job, 4, 3)).get();
  handle->Drain();
  service.store().Put(storage::Manifest::ManifestKey(job, 3), {0xde, 0xad, 0xbe, 0xef});
}

void ExpectRestorable(storage::ObjectStore& store, const std::string& job, std::uint64_t id,
                      const std::vector<std::uint64_t>& chain) {
  const auto scrub = pipeline::ScrubChainParallel(store, job, id);
  EXPECT_TRUE(scrub.clean()) << job << "/" << id << ": " << scrub.issues.size() << " issue(s)";
  EXPECT_EQ(scrub.chain, chain);
}

// When a job's newest lineage does not reach a full checkpoint, no deleter
// may touch its older lineages: they may be all recovery has. Gc() reports
// the refusal, quota eviction takes nothing, and the post-commit path
// publishes the checkpoint, fails its future, and re-baselines the policy.
TEST(Maintenance, GcNeverDeletesTheLastRestorableLineage) {
  {
    auto store = std::make_shared<storage::InMemoryStore>();
    CheckpointService service(store, SmallService());
    WriteRottedLineage(service, "rot");
    const GcReport report = service.Gc();
    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_NE(report.jobs[0].refused.find("checkpoint 3"), std::string::npos)
        << report.jobs[0].refused;
    EXPECT_TRUE(report.jobs[0].evicted.empty());
    EXPECT_EQ(report.bytes_freed, 0u);
    ExpectRestorable(*store, "rot", 2, {1, 2});
  }
  {
    auto store = std::make_shared<storage::InMemoryStore>();
    CheckpointService service(store, SmallService());
    WriteRottedLineage(service, "rot");
    EXPECT_EQ(service.maintenance().EvictForQuota(std::uint64_t{1} << 40, "test"), 0u);
    ExpectRestorable(*store, "rot", 2, {1, 2});
  }
  {
    auto store = std::make_shared<storage::InMemoryStore>();
    CheckpointService service(store, SmallService());
    JobConfig cfg = RawJob("rot");
    cfg.policy = PolicyKind::kOneShot;
    cfg.quantize = false;
    cfg.chunk_rows = 16;
    cfg.total_rows = 128;
    cfg.gc = true;
    cfg.keep_checkpoints = 3;  // the setup's own GCs keep both lineages
    auto handle = service.OpenJob(std::move(cfg));
    const auto submit = [&handle](std::function<ModelSnapshot()> snapshot_fn =
                                      [] { return MakeSnapshot(); }) {
      IntervalSubmission sub;
      sub.snapshot_fn = std::move(snapshot_fn);
      sub.interval_dirty.resize(1);
      sub.interval_dirty[0].emplace_back(64);
      sub.interval_dirty[0].emplace_back(64);
      sub.interval_dirty[0][0].Set(1);
      return handle->Submit(std::move(sub));
    };
    submit().future.get();  // 1, full
    submit().future.get();  // 2, incremental over 1
    // 3 never exists (its snapshot fails), so the policy re-baselines.
    EXPECT_THROW(submit([]() -> ModelSnapshot { throw std::runtime_error("no snapshot"); }),
                 std::runtime_error);
    auto s4 = submit();
    ASSERT_EQ(s4.kind, storage::CheckpointKind::kFull);
    s4.future.get();
    submit().future.get();  // 5, incremental over 4
    service.store().Put(storage::Manifest::ManifestKey("rot", 4), {0xde, 0xad});

    auto s6 = submit();  // incremental over the rotted 4
    ASSERT_EQ(s6.kind, storage::CheckpointKind::kIncremental);
    EXPECT_THROW(s6.future.get(), std::runtime_error);
    EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("rot", 6)))
        << "the GC refusal cannot un-publish the checkpoint";
    ExpectRestorable(*store, "rot", 2, {1, 2});
    auto s7 = submit();
    EXPECT_EQ(s7.kind, storage::CheckpointKind::kFull) << "the policy must re-baseline";
    EXPECT_NO_THROW(s7.future.get());
  }
}

// A committed cut GCs its own job only: a neighbour opened with gc = false
// keeps every lineage, and the cut's GC Lists nothing outside the sharded
// job's prefix.
TEST(Maintenance, CutGcLeavesOtherJobsAlone) {
  auto store =
      std::make_shared<ListRecordingStore>(std::make_shared<storage::InMemoryStore>());
  CheckpointService service(store, SmallService());
  PopulateJob(service, "neighbour", /*fulls=*/3);

  dlrm::DlrmModel model(ShardedModelConfig());
  ShardedJobConfig cfg;
  cfg.name = "sharded";
  cfg.quantize = false;
  cfg.chunk_rows = 16;  // gc = true, keep_cuts = 1
  ShardedJobHandle handle(service, model, cfg);
  store->TakeListed();
  ASSERT_TRUE(handle.WriteCut(2, 64).committed);

  const auto listed = store->TakeListed();
  EXPECT_FALSE(listed.empty()) << "the cut's GC must survey its own job";
  for (const auto& prefix : listed) {
    EXPECT_TRUE(prefix.starts_with(storage::Manifest::JobPrefix("sharded"))) << prefix;
  }
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_TRUE(store->Exists(storage::Manifest::ManifestKey("neighbour", id))) << id;
  }
}

// Until a sharded job's first COORD lands, the survey cannot tell its
// sub-checkpoints from a plain job's stale lineages. A single quota trip on
// the first cut's dense Put, with nothing else evictable, must take none of
// them: the pins hold, eviction frees nothing, and the retry loop's final
// attempt publishes the cut.
TEST(Maintenance, QuotaTripOnTheFirstCutEvictsNoneOfItsShards) {
  auto backing = std::make_shared<storage::InMemoryStore>();
  auto store =
      std::make_shared<QuotaTripStore>(backing, storage::Manifest::CutDenseKey("first", 1));
  CheckpointService service(store, SmallService());

  data::DatasetConfig dcfg;
  dcfg.seed = 6;
  dcfg.num_dense = 4;
  dcfg.tables = {{128, 2, 1.1}, {64, 1, 1.05}};
  data::SyntheticDataset ds(dcfg);
  dlrm::DlrmModel live(ShardedModelConfig());
  for (int b = 0; b < 2; ++b) {
    live.TrainBatch(ds.GetBatch(b, static_cast<std::uint64_t>(b) * 32, 32));
  }

  ShardedJobConfig cfg;
  cfg.name = "first";
  cfg.quantize = false;
  cfg.chunk_rows = 16;
  ShardedJobHandle handle(service, live, cfg);
  const CutResult cut = handle.WriteCut(2, 64);
  EXPECT_TRUE(store->tripped());
  ASSERT_TRUE(cut.committed);
  ASSERT_EQ(cut.shard_map.size(), 4u);
  for (const auto& e : cut.shard_map) {
    EXPECT_TRUE(backing->Exists(storage::Manifest::ManifestKey("first", e.checkpoint_id)))
        << "sub-checkpoint " << e.checkpoint_id << " of the cut was evicted";
  }
  EXPECT_EQ(service.stats().jobs.at("first").evicted_checkpoints, 0u);

  dlrm::DlrmModel restored(ShardedModelConfig());
  (void)RestoreShardedModel(*backing, "first", restored);
  EXPECT_TRUE(restored.StateEquals(live));
}

}  // namespace
}  // namespace cnr::core
