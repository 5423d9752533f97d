#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/recovery.h"
#include "core/service.h"
#include "core/tracking.h"
#include "core/writer.h"
#include "data/synthetic.h"

namespace cnr::core {
namespace {

dlrm::ModelConfig SmallModel() {
  dlrm::ModelConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  cfg.table_rows = {128, 64};
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.num_shards = 2;
  cfg.seed = 5;
  return cfg;
}

data::DatasetConfig MatchingDataset() {
  data::DatasetConfig cfg;
  cfg.seed = 6;
  cfg.num_dense = 4;
  cfg.tables = {{128, 2, 1.1}, {64, 1, 1.05}};
  return cfg;
}

WriterConfig PlainWriter() {
  WriterConfig cfg;
  cfg.job = "test";
  cfg.chunk_rows = 16;
  cfg.quant.method = quant::Method::kNone;
  return cfg;
}

data::ReaderState SomeReaderState() {
  data::ReaderState rs;
  rs.next_batch_id = 9;
  rs.next_sample = 9 * 32;
  return rs;
}

// Trains a few batches and returns the model.
dlrm::DlrmModel TrainedModel(int batches) {
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  for (int b = 0; b < batches; ++b) {
    model.TrainBatch(ds.GetBatch(b, static_cast<std::uint64_t>(b) * 32, 32));
  }
  return model;
}

void ExpectModelsEqual(const dlrm::DlrmModel& a, const dlrm::DlrmModel& b) {
  // StateEquals is the authoritative parity predicate; the per-shard loop
  // only localizes a failure for the test log.
  EXPECT_TRUE(a.StateEquals(b));
  for (std::size_t t = 0; t < a.num_tables(); ++t) {
    for (std::size_t s = 0; s < a.table(t).num_shards(); ++s) {
      EXPECT_EQ(a.table(t).Shard(s), b.table(t).Shard(s)) << "table " << t << " shard " << s;
    }
  }
}

TEST(WriterRecovery, FullCheckpointRoundTripBitExact) {
  dlrm::DlrmModel model = TrainedModel(8);
  storage::InMemoryStore store;

  const ModelSnapshot snap = CreateSnapshot(model, 8, 256, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  const auto result =
      WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());

  EXPECT_EQ(result.rows_written, 128u + 64u);
  EXPECT_GT(result.bytes_written, 0u);

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreModel(store, "test", restored);
  EXPECT_EQ(rr.checkpoint_id, 1u);
  EXPECT_EQ(rr.batches_trained, 8u);
  EXPECT_EQ(rr.samples_trained, 256u);
  EXPECT_EQ(rr.reader_state, SomeReaderState());
  EXPECT_EQ(rr.checkpoints_applied, 1u);
  ExpectModelsEqual(model, restored);
}

TEST(WriterRecovery, IncrementalRestoresModifiedRows) {
  storage::InMemoryStore store;
  data::SyntheticDataset ds(MatchingDataset());

  dlrm::DlrmModel model(SmallModel());
  ModifiedRowTracker tracker(model);

  // Interval 1: train, full checkpoint.
  for (int b = 0; b < 4; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  (void)tracker.HarvestInterval();
  {
    const ModelSnapshot snap = CreateSnapshot(model, 4, 128, nullptr);
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());
  }

  // Interval 2: more training, incremental over baseline.
  for (int b = 4; b < 8; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  {
    const ModelSnapshot snap = CreateSnapshot(model, 8, 256, nullptr);
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kIncremental;
    plan.parent_id = 1;
    plan.rows = tracker.HarvestInterval();
    const auto result = WriteCheckpoint(store, snap, plan, PlainWriter(), 2,
                                        SomeReaderState().Encode());
    // Incremental writes strictly fewer rows than the full model.
    EXPECT_LT(result.rows_written, 128u + 64u);
    EXPECT_GT(result.rows_written, 0u);
  }

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreModel(store, "test", restored);
  EXPECT_EQ(rr.checkpoints_applied, 2u);
  ExpectModelsEqual(model, restored);
}

TEST(WriterRecovery, ConsecutiveChainRestores) {
  storage::InMemoryStore store;
  data::SyntheticDataset ds(MatchingDataset());
  dlrm::DlrmModel model(SmallModel());
  ModifiedRowTracker tracker(model);

  // Full baseline at id 1, then three consecutive incrementals 2..4, each
  // holding only its own interval's rows.
  {
    const ModelSnapshot snap = CreateSnapshot(model, 0, 0, nullptr);
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());
  }
  for (std::uint64_t id = 2; id <= 4; ++id) {
    for (int b = 0; b < 3; ++b) {
      const auto g = (id - 2) * 3 + b;
      model.TrainBatch(ds.GetBatch(g, g * 32ull, 32));
    }
    const ModelSnapshot snap = CreateSnapshot(model, (id - 1) * 3, (id - 1) * 96, nullptr);
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kIncremental;
    plan.parent_id = id - 1;
    plan.rows = tracker.HarvestInterval();
    WriteCheckpoint(store, snap, plan, PlainWriter(), id, SomeReaderState().Encode());
  }

  const auto chain = ResolveChain(store, "test", 4);
  EXPECT_EQ(chain, (std::vector<std::uint64_t>{1, 2, 3, 4}));

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreModel(store, "test", restored);
  EXPECT_EQ(rr.checkpoints_applied, 4u);
  ExpectModelsEqual(model, restored);
}

TEST(WriterRecovery, QuantizedRestoreWithinGridError) {
  dlrm::DlrmModel model = TrainedModel(6);
  storage::InMemoryStore store;

  WriterConfig wcfg = PlainWriter();
  wcfg.quant.method = quant::Method::kAsymmetric;
  wcfg.quant.bits = 8;

  const ModelSnapshot snap = CreateSnapshot(model, 6, 192, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  WriteCheckpoint(store, snap, plan, wcfg, 1, SomeReaderState().Encode());

  dlrm::DlrmModel restored(SmallModel());
  RestoreModel(store, "test", restored);

  // Every weight within half a quantization step of its row's range.
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    for (std::size_t s = 0; s < model.table(t).num_shards(); ++s) {
      const auto& orig = model.table(t).Shard(s);
      const auto& back = restored.table(t).Shard(s);
      for (std::size_t r = 0; r < orig.num_rows(); ++r) {
        const auto p = quant::AsymmetricParams(orig.Row(r));
        const float step = (p.xmax - p.xmin) / 255.0f;
        for (std::size_t d = 0; d < orig.dim(); ++d) {
          EXPECT_LE(std::fabs(orig.Row(r)[d] - back.Row(r)[d]), step * 0.5f + 1e-7f);
        }
        // Optimizer state is never quantized.
        EXPECT_EQ(orig.AdagradState(r), back.AdagradState(r));
      }
    }
  }
}

TEST(WriterRecovery, QuantizationShrinksCheckpoint) {
  // Use a wider embedding dim so the sparse layer dominates the checkpoint
  // (at paper scale embeddings are >99% of the model; at dim 8 the fp32
  // dense blob and adagrad state would mask the savings).
  dlrm::ModelConfig wide = SmallModel();
  wide.embedding_dim = 32;
  dlrm::DlrmModel model(wide);
  data::SyntheticDataset ds(MatchingDataset());
  for (int b = 0; b < 4; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  const ModelSnapshot snap = CreateSnapshot(model, 4, 128, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;

  std::uint64_t sizes[2];
  int i = 0;
  for (const int bits : {32, 4}) {
    storage::InMemoryStore store;
    WriterConfig wcfg = PlainWriter();
    if (bits != 32) {
      wcfg.quant.method = quant::Method::kAsymmetric;
      wcfg.quant.bits = bits;
    }
    const auto result =
        WriteCheckpoint(store, snap, plan, wcfg, 1, SomeReaderState().Encode());
    sizes[i++] = result.bytes_written;
  }
  // 4-bit embeddings ~8x smaller; with adagrad + params overhead expect >2x.
  EXPECT_GT(sizes[0], sizes[1] * 2);
}

TEST(WriterRecovery, MixedQuantChainUsesPerManifestConfig) {
  storage::InMemoryStore store;
  data::SyntheticDataset ds(MatchingDataset());
  dlrm::DlrmModel model(SmallModel());
  ModifiedRowTracker tracker(model);

  // Baseline at 4 bits.
  for (int b = 0; b < 4; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  (void)tracker.HarvestInterval();
  WriterConfig w4 = PlainWriter();
  w4.quant.method = quant::Method::kAsymmetric;
  w4.quant.bits = 4;
  {
    const ModelSnapshot snap = CreateSnapshot(model, 4, 128, nullptr);
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    WriteCheckpoint(store, snap, plan, w4, 1, SomeReaderState().Encode());
  }
  // Incremental at 8 bits (fallback scenario).
  for (int b = 4; b < 8; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  WriterConfig w8 = PlainWriter();
  w8.quant.method = quant::Method::kAsymmetric;
  w8.quant.bits = 8;
  {
    const ModelSnapshot snap = CreateSnapshot(model, 8, 256, nullptr);
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kIncremental;
    plan.parent_id = 1;
    plan.rows = tracker.HarvestInterval();
    WriteCheckpoint(store, snap, plan, w8, 2, SomeReaderState().Encode());
  }

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreModel(store, "test", restored);
  EXPECT_EQ(rr.checkpoints_applied, 2u);
  // Coarse sanity: restored weights within each row's full range of original.
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    for (std::size_t s = 0; s < model.table(t).num_shards(); ++s) {
      const auto& orig = model.table(t).Shard(s);
      const auto& back = restored.table(t).Shard(s);
      for (std::size_t r = 0; r < orig.num_rows(); ++r) {
        const auto p = quant::AsymmetricParams(orig.Row(r));
        for (std::size_t d = 0; d < orig.dim(); ++d) {
          EXPECT_LE(std::fabs(orig.Row(r)[d] - back.Row(r)[d]),
                    (p.xmax - p.xmin) * 0.5f + 1e-6f);
        }
      }
    }
  }
}

TEST(WriterRecovery, LatestCheckpointIdFindsNewest) {
  storage::InMemoryStore store;
  EXPECT_FALSE(LatestCheckpointId(store, "test").has_value());

  dlrm::DlrmModel model = TrainedModel(2);
  const ModelSnapshot snap = CreateSnapshot(model, 2, 64, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  for (const std::uint64_t id : {3ull, 12ull, 7ull}) {
    WriteCheckpoint(store, snap, plan, PlainWriter(), id, SomeReaderState().Encode());
  }
  EXPECT_EQ(LatestCheckpointId(store, "test"), 12u);
  EXPECT_FALSE(LatestCheckpointId(store, "otherjob").has_value());
}

TEST(WriterRecovery, MissingChunkFailsRecovery) {
  dlrm::DlrmModel model = TrainedModel(2);
  storage::InMemoryStore store;
  const ModelSnapshot snap = CreateSnapshot(model, 2, 64, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  const auto result =
      WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());
  ASSERT_FALSE(result.manifest.chunks.empty());
  store.Delete(result.manifest.chunks[0].key);

  dlrm::DlrmModel restored(SmallModel());
  EXPECT_THROW(RestoreModel(store, "test", restored), std::runtime_error);
}

TEST(WriterRecovery, CorruptedChunkDetectedByChecksum) {
  dlrm::DlrmModel model = TrainedModel(3);
  storage::InMemoryStore store;
  const ModelSnapshot snap = CreateSnapshot(model, 3, 96, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  const auto result =
      WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());

  // Flip one bit in the middle of a chunk (simulated storage-tier bit rot).
  const auto& key = result.manifest.chunks[0].key;
  auto blob = *store.Get(key);
  blob[blob.size() / 2] ^= 0x01;
  store.Put(key, std::move(blob));

  dlrm::DlrmModel restored(SmallModel());
  try {
    RestoreModel(store, "test", restored);
    FAIL() << "corruption not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(WriterRecovery, TruncatedChunkDetected) {
  dlrm::DlrmModel model = TrainedModel(2);
  storage::InMemoryStore store;
  const ModelSnapshot snap = CreateSnapshot(model, 2, 64, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  const auto result =
      WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());

  const auto& key = result.manifest.chunks[0].key;
  auto blob = *store.Get(key);
  blob.resize(blob.size() - 10);  // lost tail (e.g. partial replication)
  store.Put(key, std::move(blob));

  dlrm::DlrmModel restored(SmallModel());
  EXPECT_THROW(RestoreModel(store, "test", restored), std::runtime_error);
}

TEST(WriterRecovery, RestoreWithNoCheckpointsThrows) {
  storage::InMemoryStore store;
  dlrm::DlrmModel model(SmallModel());
  EXPECT_THROW(RestoreModel(store, "test", model), std::runtime_error);
}

// The serial reference writer and the service's staged write path store the
// same checkpoint byte for byte: the same keys, the same chunk and dense
// objects, and manifests equal once their wall-clock timings are cleared.
// Covers a full and an incremental plan with the adaptive 4-bit codec, whose
// per-chunk encode must not depend on which worker ran it or in what order.
TEST(WriterRecovery, ServiceWritesTheReferenceWritersBytes) {
  data::SyntheticDataset ds(MatchingDataset());
  dlrm::DlrmModel model(SmallModel());
  ModifiedRowTracker tracker(model);
  for (int b = 0; b < 4; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  (void)tracker.HarvestInterval();
  const ModelSnapshot full_snap = CreateSnapshot(model, 4, 128);
  for (int b = 4; b < 8; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  const ModelSnapshot incr_snap = CreateSnapshot(model, 8, 256);

  CheckpointPlan full;
  full.kind = storage::CheckpointKind::kFull;
  CheckpointPlan incr;
  incr.kind = storage::CheckpointKind::kIncremental;
  incr.parent_id = 1;
  incr.rows = tracker.HarvestInterval();
  const std::vector<std::pair<const ModelSnapshot*, const CheckpointPlan*>> checkpoints = {
      {&full_snap, &full}, {&incr_snap, &incr}};

  WriterConfig wcfg = PlainWriter();
  wcfg.quant.method = quant::Method::kAdaptiveAsymmetric;
  wcfg.quant.bits = 4;
  const std::vector<std::uint8_t> reader_state = SomeReaderState().Encode();

  storage::InMemoryStore reference;
  auto staged = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(staged);
    JobConfig job;
    job.name = wcfg.job;
    job.gc = false;
    const auto handle = service.OpenJob(job);
    for (std::uint64_t id = 1; id <= checkpoints.size(); ++id) {
      const auto [snap, plan] = checkpoints[id - 1];
      WriteCheckpoint(reference, *snap, *plan, wcfg, id, reader_state);

      CheckpointRequest req;
      req.checkpoint_id = id;
      req.writer = wcfg;
      req.plan = *plan;
      req.reader_state = reader_state;
      req.snapshot_fn = [snap] { return *snap; };
      handle->SubmitRaw(std::move(req)).get();
    }
  }

  const auto keys = reference.List("");
  ASSERT_EQ(keys, staged->List(""));
  for (const auto& key : keys) {
    const auto ref_bytes = *reference.Get(key);
    const auto staged_bytes = *staged->Get(key);
    if (!key.ends_with("/MANIFEST")) {
      EXPECT_EQ(ref_bytes, staged_bytes) << key;
      continue;
    }
    storage::Manifest ref_manifest = storage::Manifest::Decode(ref_bytes);
    storage::Manifest staged_manifest = storage::Manifest::Decode(staged_bytes);
    ref_manifest.timings = {};
    staged_manifest.timings = {};
    EXPECT_EQ(ref_manifest.Encode(), staged_manifest.Encode()) << key;
  }
}

TEST(WriterRecovery, ChunkRowsDoNotAffectResult) {
  dlrm::DlrmModel model = TrainedModel(5);
  const ModelSnapshot snap = CreateSnapshot(model, 5, 160, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;

  for (const std::size_t chunk_rows : {1u, 7u, 64u, 100000u}) {
    storage::InMemoryStore store;
    WriterConfig wcfg = PlainWriter();
    wcfg.chunk_rows = chunk_rows;
    WriteCheckpoint(store, snap, plan, wcfg, 1, SomeReaderState().Encode());
    dlrm::DlrmModel restored(SmallModel());
    RestoreModel(store, "test", restored);
    ExpectModelsEqual(model, restored);
  }
}

TEST(WriterRecovery, ZeroChunkRowsThrows) {
  dlrm::DlrmModel model = TrainedModel(1);
  const ModelSnapshot snap = CreateSnapshot(model, 1, 32, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  storage::InMemoryStore store;
  WriterConfig wcfg = PlainWriter();
  wcfg.chunk_rows = 0;
  EXPECT_THROW(
      WriteCheckpoint(store, snap, plan, wcfg, 1, SomeReaderState().Encode()),
      std::invalid_argument);
}

}  // namespace
}  // namespace cnr::core
