#include "storage/manifest.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace cnr::storage {
namespace {

Manifest SampleManifest() {
  Manifest m;
  m.checkpoint_id = 42;
  m.kind = CheckpointKind::kIncremental;
  m.parent_id = 40;
  m.batches_trained = 1000;
  m.samples_trained = 128000;
  m.quant.method = quant::Method::kAdaptiveAsymmetric;
  m.quant.bits = 4;
  m.quant.num_bins = 45;
  m.quant.ratio = 0.8;
  m.reader_state = {1, 2, 3, 4};
  m.dense_key = "jobs/j/ckpt/000000000042/dense";
  m.dense_bytes = 5555;
  ChunkInfo c1;
  c1.key = "jobs/j/ckpt/000000000042/t0/s1/c0";
  c1.table_id = 0;
  c1.shard_id = 1;
  c1.num_rows = 100;
  c1.bytes = 2048;
  ChunkInfo c2;
  c2.key = "jobs/j/ckpt/000000000042/t3/s0/c7";
  c2.table_id = 3;
  c2.shard_id = 0;
  c2.num_rows = 7;
  c2.bytes = 99;
  m.chunks = {c1, c2};
  return m;
}

TEST(Manifest, EncodeDecodeRoundTrip) {
  const Manifest m = SampleManifest();
  const auto bytes = m.Encode();
  const Manifest back = Manifest::Decode(bytes);

  EXPECT_EQ(back.checkpoint_id, m.checkpoint_id);
  EXPECT_EQ(back.kind, m.kind);
  EXPECT_EQ(back.parent_id, m.parent_id);
  EXPECT_EQ(back.batches_trained, m.batches_trained);
  EXPECT_EQ(back.samples_trained, m.samples_trained);
  EXPECT_EQ(back.quant.method, m.quant.method);
  EXPECT_EQ(back.quant.bits, m.quant.bits);
  EXPECT_EQ(back.quant.num_bins, m.quant.num_bins);
  EXPECT_EQ(back.quant.ratio, m.quant.ratio);
  EXPECT_EQ(back.reader_state, m.reader_state);
  EXPECT_EQ(back.dense_key, m.dense_key);
  EXPECT_EQ(back.dense_bytes, m.dense_bytes);
  ASSERT_EQ(back.chunks.size(), 2u);
  EXPECT_EQ(back.chunks[0].key, m.chunks[0].key);
  EXPECT_EQ(back.chunks[1].num_rows, m.chunks[1].num_rows);
  EXPECT_EQ(back.chunks[1].bytes, m.chunks[1].bytes);
}

TEST(Manifest, StageTimingsRoundTrip) {
  Manifest m = SampleManifest();
  m.timings.snapshot_us = 11;
  m.timings.plan_us = 22;
  m.timings.encode_us = 33;
  m.timings.store_us = 44;
  m.timings.commit_us = 55;
  m.timings.encode_queue_us = 66;
  m.timings.store_queue_us = 77;
  const Manifest back = Manifest::Decode(m.Encode());
  EXPECT_EQ(back.timings.snapshot_us, 11u);
  EXPECT_EQ(back.timings.plan_us, 22u);
  EXPECT_EQ(back.timings.encode_us, 33u);
  EXPECT_EQ(back.timings.store_us, 44u);
  EXPECT_EQ(back.timings.commit_us, 55u);
  EXPECT_EQ(back.timings.encode_queue_us, 66u);
  EXPECT_EQ(back.timings.store_queue_us, 77u);
}

TEST(Manifest, DecodesVersion1WithoutTimings) {
  // A v1 manifest is a v3 manifest minus the trailing StageTimings block and
  // the v3 cut fields (cut_epoch + empty shard_map count); decoding it must
  // succeed with all-zero timings.
  Manifest m = SampleManifest();
  m.timings.encode_us = 123;  // must NOT survive the downgrade
  auto bytes = m.Encode();
  bytes.resize(bytes.size() - 7 * sizeof(std::uint64_t)   // StageTimings (v2)
               - 2 * sizeof(std::uint64_t));              // cut fields (v3)
  bytes[0] = 1;  // little-endian version field
  const Manifest back = Manifest::Decode(bytes);
  EXPECT_EQ(back.checkpoint_id, m.checkpoint_id);
  ASSERT_EQ(back.chunks.size(), 2u);
  EXPECT_EQ(back.timings.encode_us, 0u);
  EXPECT_EQ(back.timings.snapshot_us, 0u);
}

TEST(Manifest, DecodesVersion2WithoutCutFields) {
  // A v2 manifest ends after StageTimings; v3 decode must accept it with
  // cut_epoch == 0 and an empty shard_map.
  Manifest m = SampleManifest();
  m.cut_epoch = 9;  // must NOT survive the downgrade
  m.shard_map.push_back({0, 41});
  auto bytes = m.Encode();
  bytes.resize(bytes.size() - 2 * sizeof(std::uint64_t)          // cut header
               - (sizeof(std::uint32_t) + sizeof(std::uint64_t)));  // 1 entry
  bytes[0] = 2;
  const Manifest back = Manifest::Decode(bytes);
  EXPECT_EQ(back.checkpoint_id, m.checkpoint_id);
  EXPECT_EQ(back.cut_epoch, 0u);
  EXPECT_TRUE(back.shard_map.empty());
}

TEST(Manifest, CoordinatedCutRoundTrips) {
  Manifest m;
  m.checkpoint_id = 3;
  m.kind = CheckpointKind::kCoordinated;
  m.cut_epoch = 3;
  m.batches_trained = 77;
  m.samples_trained = 7700;
  m.dense_key = "jobs/j/cut/000000000003/dense";
  m.dense_bytes = 1234;
  m.shard_map = {{0, 9}, {1, 10}, {2, 11}, {3, 12}};
  const Manifest back = Manifest::Decode(m.Encode());
  EXPECT_EQ(back.kind, CheckpointKind::kCoordinated);
  EXPECT_EQ(back.cut_epoch, 3u);
  ASSERT_EQ(back.shard_map.size(), 4u);
  EXPECT_EQ(back.shard_map[1].shard_id, 1u);
  EXPECT_EQ(back.shard_map[1].checkpoint_id, 10u);
  EXPECT_EQ(back.shard_map[3].checkpoint_id, 12u);
  EXPECT_TRUE(back.chunks.empty());
}

TEST(ManifestKeys, CutKeysAreSiblingsOfCkpt) {
  EXPECT_EQ(Manifest::CutPrefix("j1", 5), "jobs/j1/cut/000000000005/");
  EXPECT_EQ(Manifest::CutKey("j1", 5), "jobs/j1/cut/000000000005/COORD");
  EXPECT_EQ(Manifest::CutDenseKey("j1", 5), "jobs/j1/cut/000000000005/dense");
  // Cut keys must never collide with checkpoint-id scans over */MANIFEST.
  EXPECT_EQ(Manifest::CutKey("j1", 5).find("/MANIFEST"), std::string::npos);
  EXPECT_EQ(Manifest::CutPrefix("j1", 5).find(Manifest::JobPrefix("j1")), 0u);
}

TEST(Manifest, TotalBytesSumsChunksAndDense) {
  const Manifest m = SampleManifest();
  EXPECT_EQ(m.TotalBytes(), 5555u + 2048u + 99u);
}

TEST(Manifest, BadVersionRejected) {
  auto bytes = SampleManifest().Encode();
  bytes[0] = 0xFF;  // corrupt the version field
  EXPECT_THROW(Manifest::Decode(bytes), util::SerializeError);
}

TEST(Manifest, TruncatedRejected) {
  auto bytes = SampleManifest().Encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(Manifest::Decode(bytes), util::SerializeError);
}

TEST(ManifestKeys, StableAndSortable) {
  EXPECT_EQ(Manifest::JobPrefix("j1"), "jobs/j1/");
  EXPECT_EQ(Manifest::ManifestKey("j1", 5), "jobs/j1/ckpt/000000000005/MANIFEST");
  EXPECT_EQ(Manifest::DenseKey("j1", 5), "jobs/j1/ckpt/000000000005/dense");
  EXPECT_EQ(Manifest::ChunkKey("j1", 5, 2, 3, 4), "jobs/j1/ckpt/000000000005/t2/s3/c4");
  // Zero-padded ids sort lexicographically in numeric order.
  EXPECT_LT(Manifest::ManifestKey("j1", 9), Manifest::ManifestKey("j1", 10));
  EXPECT_LT(Manifest::ManifestKey("j1", 99), Manifest::ManifestKey("j1", 100));
}

TEST(ManifestKeys, CheckpointPrefixCoversItsObjects) {
  const auto prefix = Manifest::CheckpointPrefix("job", 7);
  EXPECT_EQ(Manifest::ManifestKey("job", 7).find(prefix), 0u);
  EXPECT_EQ(Manifest::DenseKey("job", 7).find(prefix), 0u);
  EXPECT_EQ(Manifest::ChunkKey("job", 7, 0, 0, 0).find(prefix), 0u);
}

TEST(ManifestKeys, ParseIdInvertsTheKeyFunctions) {
  using Id = std::optional<std::uint64_t>;
  const std::string ckpt = Manifest::JobPrefix("j") + "ckpt/";
  EXPECT_EQ(Manifest::ParseId(Manifest::ManifestKey("j", 7), ckpt), Id(7));
  EXPECT_EQ(Manifest::ParseId(Manifest::ChunkKey("j", 7, 1, 2, 3), ckpt), Id(7));
  EXPECT_EQ(Manifest::ParseId(Manifest::CutKey("j", 12), Manifest::JobPrefix("j") + "cut/"),
            Id(12));
  EXPECT_EQ(Manifest::ParseId(Manifest::DeltaSegmentKey("j", 3, 9), Manifest::DeltaLogRoot("j")),
            Id(3));
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/42", ckpt), Id(42));  // ended by the key's end
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/notanid/MANIFEST", ckpt), std::nullopt);
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt//MANIFEST", ckpt), std::nullopt);
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/", ckpt), std::nullopt);
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/12x/MANIFEST", ckpt), std::nullopt);
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/-1/MANIFEST", ckpt), std::nullopt);
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/+1/MANIFEST", ckpt), std::nullopt);
  EXPECT_EQ(Manifest::ParseId("jobs/j/ckpt/18446744073709551616/MANIFEST", ckpt),
            std::nullopt);  // 2^64 overflows
  EXPECT_EQ(Manifest::ParseId("jobs/jj/ckpt/000000000001/MANIFEST", ckpt), std::nullopt);
}

TEST(Manifest, EmptyManifestRoundTrips) {
  Manifest m;
  const Manifest back = Manifest::Decode(m.Encode());
  EXPECT_EQ(back.checkpoint_id, 0u);
  EXPECT_EQ(back.kind, CheckpointKind::kFull);
  EXPECT_TRUE(back.chunks.empty());
  EXPECT_TRUE(back.reader_state.empty());
}

}  // namespace
}  // namespace cnr::storage
