#include "core/snapshot.h"

#include <gtest/gtest.h>

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

TEST(Snapshot, CapturesExactState) {
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  for (std::uint64_t b = 0; b < 5; ++b) model.TrainBatch(ds.GetBatch(b, b * 32, 32));

  const ModelSnapshot snap = CreateSnapshot(model, 5, 160, nullptr);
  EXPECT_EQ(snap.batches_trained, 5u);
  EXPECT_EQ(snap.samples_trained, 160u);
  EXPECT_EQ(snap.TotalRows(), 128u + 64u);

  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    for (std::size_t s = 0; s < model.table(t).num_shards(); ++s) {
      const auto& shard = model.table(t).Shard(s);
      const auto& ss = snap.shards[t][s];
      EXPECT_EQ(ss.table_id, t);
      EXPECT_EQ(ss.shard_id, s);
      EXPECT_EQ(ss.num_rows, shard.num_rows());
      EXPECT_EQ(ss.dim, shard.dim());
      for (std::size_t r = 0; r < shard.num_rows(); ++r) {
        const auto want = shard.Row(r);
        const auto got = ss.Row(r);
        for (std::size_t d = 0; d < shard.dim(); ++d) EXPECT_EQ(got[d], want[d]);
        EXPECT_EQ(ss.adagrad[r], shard.AdagradState(r));
      }
    }
  }
  EXPECT_FALSE(snap.dense_blob.empty());
}

TEST(Snapshot, ImmutableUnderFurtherTraining) {
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  model.TrainBatch(ds.GetBatch(0, 0, 32));

  const ModelSnapshot snap = CreateSnapshot(model, 1, 32, nullptr);
  const auto frozen = snap.shards[0][0].weights;

  for (std::uint64_t b = 1; b < 10; ++b) model.TrainBatch(ds.GetBatch(b, b * 32, 32));
  EXPECT_EQ(snap.shards[0][0].weights, frozen);  // the copy is detached
}

TEST(Snapshot, StateBytesAccounting) {
  dlrm::DlrmModel model(SmallModel());
  const ModelSnapshot snap = CreateSnapshot(model, 0, 0, nullptr);
  const std::size_t embedding_bytes =
      (128 + 64) * 8 * sizeof(float) + (128 + 64) * sizeof(float);
  EXPECT_EQ(snap.StateBytes(), embedding_bytes + snap.dense_blob.size());
}

TEST(Snapshot, StallWallMeasured) {
  dlrm::DlrmModel model(SmallModel());
  const ModelSnapshot snap = CreateSnapshot(model, 0, 0, nullptr);
  EXPECT_GE(snap.stall_wall.count(), 0);
}

}  // namespace
}  // namespace cnr::core
