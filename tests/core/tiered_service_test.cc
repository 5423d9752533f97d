// CheckpointService with tiered write-back storage (ServiceConfig::
// near_store): commits land in the near tier and drain asynchronously, a
// restore of the latest checkpoint is served entirely from the near tier
// (zero far-tier Gets — the paper's common recovery case never touches the
// remote link), ServiceStats surfaces the tier counters, and per-tier
// occupancy parity (live stats == offline survey) holds across clean
// eviction and commit-thread GC.
#include "core/service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/recovery.h"
#include "core/snapshot.h"
#include "data/reader.h"
#include "dlrm/model.h"
#include "storage/object_store.h"
#include "storage/tiered_store.h"

namespace cnr::core {
namespace {

dlrm::ModelConfig SmallModelConfig() {
  dlrm::ModelConfig mcfg;
  mcfg.num_dense = 4;
  mcfg.embedding_dim = 8;
  mcfg.table_rows = {128, 64};
  mcfg.bottom_hidden = {16};
  mcfg.top_hidden = {16};
  mcfg.num_shards = 2;
  return mcfg;
}

CheckpointRequest ModelRequest(const std::string& job, std::uint64_t id,
                               const dlrm::DlrmModel& model) {
  CheckpointRequest req;
  req.checkpoint_id = id;
  req.writer.job = job;
  req.writer.chunk_rows = 16;
  req.writer.quant.method = quant::Method::kNone;
  req.plan.kind = storage::CheckpointKind::kFull;
  data::ReaderState reader_state;
  reader_state.next_batch_id = 10 * id;
  reader_state.next_sample = 320 * id;
  req.reader_state = reader_state.Encode();
  req.snapshot_fn = [&model, id] {
    return CreateSnapshot(model, /*batches_trained=*/10 * id,
                          /*samples_trained=*/320 * id, /*pool=*/nullptr);
  };
  return req;
}

JobConfig RawJob(const std::string& name) {
  JobConfig job;
  job.name = name;
  job.max_inflight_checkpoints = 1;
  job.gc = false;  // raw submissions; the GC test calls GcJob itself
  return job;
}

ServiceConfig TieredService(std::shared_ptr<storage::ObjectStore> near_tier,
                            std::uint64_t near_capacity = 0) {
  ServiceConfig cfg;
  cfg.encode_threads = 2;
  cfg.store_threads = 2;
  cfg.near_store = std::move(near_tier);
  cfg.tiered.near_capacity_bytes = near_capacity;
  return cfg;
}

void ExpectTierParity(const storage::TierStats& live, storage::TieredStore& tiered) {
  const storage::TierSurvey near_survey = storage::SurveyTier(tiered.near_tier());
  const storage::TierSurvey far_survey = storage::SurveyTier(tiered.far_tier());
  EXPECT_EQ(live.near_objects, near_survey.objects);
  EXPECT_EQ(live.near_bytes, near_survey.bytes);
  EXPECT_EQ(live.dirty_objects, near_survey.dirty_objects);
  EXPECT_EQ(live.dirty_bytes, near_survey.dirty_bytes);
  EXPECT_EQ(live.far_objects, far_survey.objects);
  EXPECT_EQ(live.far_bytes, far_survey.bytes);
}

TEST(TieredServiceTest, UntieredServiceReportsTieredFalse) {
  auto store = std::make_shared<storage::InMemoryStore>();
  ServiceConfig cfg;
  cfg.encode_threads = 1;
  cfg.store_threads = 1;
  CheckpointService service(store, cfg);
  EXPECT_EQ(service.tiered_store(), nullptr);
  EXPECT_FALSE(service.stats().tiered);
}

TEST(TieredServiceTest, RestoreOfLatestCheckpointNeverTouchesFarTier) {
  auto near_tier = std::make_shared<storage::InMemoryStore>();
  auto far_tier = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModelConfig());

  CheckpointService service(far_tier, TieredService(near_tier));
  auto handle = service.OpenJob(RawJob("tiered"));
  handle->SubmitRaw(ModelRequest("tiered", 1, model)).get();

  ASSERT_NE(service.tiered_store(), nullptr);
  service.tiered_store()->FlushDrains();
  const auto stats = service.stats();
  EXPECT_TRUE(stats.tiered);
  EXPECT_EQ(stats.tier.dirty_objects, 0u);
  EXPECT_GT(stats.tier.drained_objects, 0u);
  // Every checkpoint object is replicated far and still resident near.
  EXPECT_EQ(stats.tier.near_objects, stats.tier.far_objects);

  // The gate: restoring the *latest* checkpoint reads only the near tier.
  const std::uint64_t far_gets_before = far_tier->Stats().gets;
  dlrm::DlrmModel restored(SmallModelConfig());
  const auto rr = RestoreModel(service.store(), "tiered", restored);
  EXPECT_EQ(far_tier->Stats().gets, far_gets_before);
  EXPECT_EQ(rr.checkpoint_id, 1u);
  EXPECT_EQ(rr.batches_trained, 10u);
  EXPECT_TRUE(restored.DenseEquals(model));
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    for (std::size_t s = 0; s < model.table(t).num_shards(); ++s) {
      EXPECT_EQ(restored.table(t).Shard(s), model.table(t).Shard(s));
    }
  }
  const auto after = service.stats();
  EXPECT_GT(after.tier.near_hits, 0u);
  EXPECT_EQ(after.tier.far_hits, 0u);
  EXPECT_EQ(after.tier.NearHitRatio(), 1.0);
  ExpectTierParity(after.tier, *service.tiered_store());
}

// Eviction + commit-thread GC, then parity: a tight near tier evicts clean
// objects to the far tier, GC deletes superseded checkpoints through the
// decorator, and the live counters still match the offline survey of both
// tiers. Restores stay correct when chunks must come from the far tier.
TEST(TieredServiceTest, ParityHoldsAcrossEvictionAndGc) {
  auto near_tier = std::make_shared<storage::InMemoryStore>();
  auto far_tier = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModelConfig());

  // Capacity far below one checkpoint's footprint: clean chunks are evicted
  // near-continuously, so restores exercise the far-tier read path.
  CheckpointService service(far_tier, TieredService(near_tier, /*near_capacity=*/2048));
  auto handle = service.OpenJob(RawJob("evict"));
  handle->SubmitRaw(ModelRequest("evict", 1, model)).get();
  handle->SubmitRaw(ModelRequest("evict", 2, model)).get();
  // GC through the service's store view: deletes traverse the decorator,
  // cancelling pending drains and tombstoning in-flight replications.
  GcJob(service.store(), "evict");  // keeps one lineage
  service.tiered_store()->FlushDrains();

  const auto stats = service.stats();
  EXPECT_EQ(stats.tier.dirty_objects, 0u);
  EXPECT_GT(stats.tier.evicted_objects, 0u);
  EXPECT_LE(stats.tier.near_bytes, 2048u);
  ExpectTierParity(stats.tier, *service.tiered_store());

  // GC (keep_checkpoints=1) deleted checkpoint 1 in both tiers.
  EXPECT_EQ(LatestCheckpointId(service.store(), "evict"), 2u);
  EXPECT_FALSE(
      service.store().Exists(storage::Manifest::ManifestKey("evict", 1)));
  EXPECT_FALSE(far_tier->Exists(storage::Manifest::ManifestKey("evict", 1)));

  dlrm::DlrmModel restored(SmallModelConfig());
  const auto rr = RestoreModel(service.store(), "evict", restored);
  EXPECT_EQ(rr.checkpoint_id, 2u);
  EXPECT_TRUE(restored.DenseEquals(model));
  const auto after = service.stats();
  EXPECT_GT(after.tier.far_hits, 0u);  // eviction forced far reads
  ExpectTierParity(after.tier, *service.tiered_store());
}

// Shutdown with a healthy far tier drains the backlog: a service restart
// over the same tiers recovers with nothing dirty and full far replication.
TEST(TieredServiceTest, CleanShutdownDrainsBacklog) {
  auto near_tier = std::make_shared<storage::InMemoryStore>();
  auto far_tier = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModelConfig());
  {
    CheckpointService service(far_tier, TieredService(near_tier));
    auto handle = service.OpenJob(RawJob("restart"));
    handle->SubmitRaw(ModelRequest("restart", 1, model)).get();
    // No explicit flush: the service shutdown drains the tier backlog.
  }
  EXPECT_TRUE(near_tier->List(storage::TieredStore::kDirtyPrefix).empty());
  EXPECT_TRUE(far_tier->Exists(storage::Manifest::ManifestKey("restart", 1)));

  CheckpointService service(far_tier, TieredService(near_tier));
  const auto stats = service.stats();
  EXPECT_TRUE(stats.tiered);
  EXPECT_EQ(stats.tier.dirty_objects, 0u);
  ExpectTierParity(stats.tier, *service.tiered_store());
  dlrm::DlrmModel restored(SmallModelConfig());
  EXPECT_EQ(RestoreModel(service.store(), "restart", restored).checkpoint_id, 1u);
  EXPECT_TRUE(restored.DenseEquals(model));
}

}  // namespace
}  // namespace cnr::core
