// Staged restore pipeline (core/pipeline/restore.h): parity with the
// synchronous facade, chain-order apply, and fault behavior mid-restore.
// Runs in the TSan CI job — the fetch/decode/apply workers and the feeder's
// admission gate are the concurrency under test.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/pipeline/chunk_codec.h"
#include "core/pipeline/restore.h"
#include "core/recovery.h"
#include "core/tracking.h"
#include "core/writer.h"
#include "data/synthetic.h"
#include "storage/fault_injection.h"

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

// Writes a full baseline (id 1) + `incrementals` consecutive incrementals
// into `store`, training between checkpoints. Returns the trained model.
dlrm::DlrmModel WriteChain(storage::ObjectStore& store, const WriterConfig& base_cfg,
                           int incrementals,
                           const std::vector<WriterConfig>* per_ckpt_cfg = nullptr) {
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  ModifiedRowTracker tracker(model);
  for (std::uint64_t id = 1; id <= 1 + static_cast<std::uint64_t>(incrementals); ++id) {
    for (int b = 0; b < 3; ++b) {
      const auto g = (id - 1) * 3 + b;
      model.TrainBatch(ds.GetBatch(g, g * 32ull, 32));
    }
    CheckpointPlan plan;
    if (id == 1) {
      plan.kind = storage::CheckpointKind::kFull;
      (void)tracker.HarvestInterval();
    } else {
      plan.kind = storage::CheckpointKind::kIncremental;
      plan.parent_id = id - 1;
      plan.rows = tracker.HarvestInterval();
    }
    const WriterConfig& cfg = per_ckpt_cfg ? (*per_ckpt_cfg)[id - 1] : base_cfg;
    const ModelSnapshot snap = CreateSnapshot(model, id * 3, id * 96, nullptr);
    WriteCheckpoint(store, snap, plan, cfg, id, SomeReaderState().Encode());
  }
  return model;
}

TEST(RestorePipeline, MatchesFacadeOnChain) {
  storage::InMemoryStore store;
  const dlrm::DlrmModel model = WriteChain(store, PlainWriter(), 3);

  dlrm::DlrmModel facade(SmallModel());
  const auto fr = RestoreModel(store, "test", facade);
  dlrm::DlrmModel pipelined(SmallModel());
  const auto pr = RestoreModelPipelined(store, "test", pipelined);

  ExpectModelsEqual(model, facade);
  ExpectModelsEqual(facade, pipelined);
  EXPECT_EQ(pr.checkpoint_id, fr.checkpoint_id);
  EXPECT_EQ(pr.checkpoints_applied, 4u);
  EXPECT_EQ(pr.rows_applied, fr.rows_applied);
  EXPECT_EQ(pr.bytes_read, fr.bytes_read);
  EXPECT_EQ(pr.batches_trained, fr.batches_trained);
  EXPECT_EQ(pr.samples_trained, fr.samples_trained);
  EXPECT_EQ(pr.reader_state, fr.reader_state);
  EXPECT_GT(pr.timings.restore_wall_us, 0u);
}

TEST(RestorePipeline, MixedQuantChainUsesPerManifestConfig) {
  // Baseline at 4 bits, incrementals at 8 (the §6.2.1 fallback scenario);
  // each decode must use its own manifest's quant config.
  std::vector<WriterConfig> cfgs(4, PlainWriter());
  cfgs[0].quant.method = quant::Method::kAsymmetric;
  cfgs[0].quant.bits = 4;
  for (int i = 1; i < 4; ++i) {
    cfgs[i].quant.method = quant::Method::kAsymmetric;
    cfgs[i].quant.bits = 8;
  }
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3, &cfgs);

  dlrm::DlrmModel facade(SmallModel());
  RestoreModel(store, "test", facade);
  dlrm::DlrmModel pipelined(SmallModel());
  RestoreModelPipelined(store, "test", pipelined);
  ExpectModelsEqual(facade, pipelined);
}

TEST(RestorePipeline, ChainOrderHoldsUnderTinyQueuesAndManyWorkers) {
  // Capacity-1 queues + more workers than chunks maximize reordering inside
  // each stage; cross-checkpoint apply order must still hold (newer rows win).
  storage::InMemoryStore store;
  const dlrm::DlrmModel model = WriteChain(store, PlainWriter(), 3);

  pipeline::RestoreConfig cfg;
  cfg.fetch_threads = 4;
  cfg.decode_threads = 4;
  cfg.queue_capacity = 1;
  for (const std::size_t inflight : {1u, 2u, 8u}) {
    cfg.max_inflight_checkpoints = inflight;
    dlrm::DlrmModel restored(SmallModel());
    RestoreModelPipelined(store, "test", restored, {}, cfg);
    ExpectModelsEqual(model, restored);
  }
}

TEST(RestorePipeline, EmptyIncrementalInChain) {
  // An interval with no dirty rows produces a chunk-less checkpoint; the
  // apply stage must advance past it instead of waiting forever.
  storage::InMemoryStore store;
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  ModifiedRowTracker tracker(model);

  for (int b = 0; b < 3; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  (void)tracker.HarvestInterval();
  {
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    const ModelSnapshot snap = CreateSnapshot(model, 3, 96, nullptr);
    WriteCheckpoint(store, snap, plan, PlainWriter(), 1, SomeReaderState().Encode());
  }
  {
    // No training in interval 2: empty dirty sets, zero chunks.
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kIncremental;
    plan.parent_id = 1;
    plan.rows = tracker.HarvestInterval();
    const ModelSnapshot snap = CreateSnapshot(model, 3, 96, nullptr);
    WriteCheckpoint(store, snap, plan, PlainWriter(), 2, SomeReaderState().Encode());
  }
  {
    for (int b = 3; b < 6; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kIncremental;
    plan.parent_id = 2;
    plan.rows = tracker.HarvestInterval();
    const ModelSnapshot snap = CreateSnapshot(model, 6, 192, nullptr);
    WriteCheckpoint(store, snap, plan, PlainWriter(), 3, SomeReaderState().Encode());
  }

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreModelPipelined(store, "test", restored);
  EXPECT_EQ(rr.checkpoints_applied, 3u);
  ExpectModelsEqual(model, restored);
}

TEST(RestorePipeline, TransientFetchFailuresAreRetried) {
  // Chain written cleanly, then the storage tier turns flaky for reads:
  // ~20% of Gets throw StoreUnavailable. The pipeline's RetryingStore must
  // absorb them (P(8 consecutive failures) = 0.2^8 ~ 2.6e-6 per Get).
  auto inner = std::make_shared<storage::InMemoryStore>();
  const dlrm::DlrmModel model = WriteChain(*inner, PlainWriter(), 3);

  storage::FaultConfig fc;
  fc.get_failure_probability = 0.2;
  fc.seed = 11;
  storage::FaultInjectionStore flaky(inner, fc);

  pipeline::RestoreConfig cfg;
  cfg.get_attempts = 8;
  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreModelPipelined(flaky, "test", restored, {}, cfg);
  EXPECT_GT(flaky.injected_get_failures(), 0u) << "fault injection never fired";
  EXPECT_EQ(rr.checkpoints_applied, 4u);
  ExpectModelsEqual(model, restored);
}

TEST(RestorePipeline, PersistentFetchFailureFailsRestore) {
  // Storage tier down hard: retries exhaust, the pipeline shuts its stages
  // down and rethrows instead of hanging.
  auto inner = std::make_shared<storage::InMemoryStore>();
  WriteChain(*inner, PlainWriter(), 3);

  storage::FaultConfig fc;
  fc.get_failure_probability = 1.0;
  storage::FaultInjectionStore dead(inner, fc);

  dlrm::DlrmModel restored(SmallModel());
  EXPECT_THROW(RestoreModelPipelined(dead, "test", restored), storage::StoreUnavailable);
}

TEST(RestorePipeline, CorruptChunkPoisonsRestore) {
  // Bit rot in a mid-chain chunk: the decode stage's CRC check must fail the
  // whole restore (never silently restore garbage), and the poison must
  // drain the other stages cleanly.
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);

  const auto mid = LoadManifest(store, "test", 2);
  ASSERT_FALSE(mid.chunks.empty());
  auto blob = *store.Get(mid.chunks[0].key);
  blob[blob.size() / 2] ^= 0x01;
  store.Put(mid.chunks[0].key, std::move(blob));

  dlrm::DlrmModel restored(SmallModel());
  try {
    RestoreModelPipelined(store, "test", restored);
    FAIL() << "corruption not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(RestorePipeline, MissingChunkFailsRestore) {
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);
  const auto baseline = LoadManifest(store, "test", 1);
  ASSERT_FALSE(baseline.chunks.empty());
  store.Delete(baseline.chunks[0].key);

  dlrm::DlrmModel restored(SmallModel());
  EXPECT_THROW(RestoreModelPipelined(store, "test", restored), std::runtime_error);
}

TEST(RestorePipeline, RestoreWithNoCheckpointsThrows) {
  storage::InMemoryStore store;
  dlrm::DlrmModel model(SmallModel());
  EXPECT_THROW(RestoreModelPipelined(store, "test", model), std::runtime_error);
}

TEST(RestorePipeline, ChunkCodecRoundTrips) {
  // The read direction of the codec: EncodeChunkTask -> DecodeChunkBlob is
  // lossless for unquantized rows, field by field.
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  for (int b = 0; b < 4; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));
  const ModelSnapshot snap = CreateSnapshot(model, 4, 128, nullptr);

  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  const auto tasks = pipeline::BuildChunkTasks(snap, plan, 16);
  ASSERT_FALSE(tasks.empty());

  quant::QuantConfig qc;
  qc.method = quant::Method::kNone;
  util::Rng rng(7);
  for (const auto& task : tasks) {
    const auto bytes = pipeline::EncodeChunkTask(task, qc, rng);
    const auto chunk = pipeline::DecodeChunkBlob(bytes, qc, "roundtrip");
    EXPECT_EQ(chunk.table_id, task.shard->table_id);
    EXPECT_EQ(chunk.shard_id, task.shard->shard_id);
    EXPECT_EQ(chunk.num_rows, task.NumRows());
    EXPECT_EQ(chunk.dim, task.shard->dim);
    ASSERT_EQ(chunk.weights.size(), task.NumRows() * task.shard->dim);
    for (std::size_t i = 0; i < task.NumRows(); ++i) {
      const std::size_t src = task.explicit_indices ? task.rows[i] : task.start_row + i;
      EXPECT_EQ(chunk.RowIndex(i), src);
      EXPECT_EQ(chunk.adagrad[i], task.shard->adagrad[src]);
      for (std::size_t d = 0; d < chunk.dim; ++d) {
        EXPECT_EQ(chunk.Row(i)[d], task.shard->Row(src)[d]);
      }
    }
  }
}

TEST(RestorePipeline, DrillApplierSeesEveryChunkInChainOrder) {
  // A ChunkApplier observes chunks grouped by chain position, oldest
  // checkpoint first — the invariant cnr_inspect's drill and any future
  // appliers (e.g. a serving replica) rely on.
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);

  struct OrderApplier : pipeline::ChunkApplier {
    std::vector<std::uint64_t> rows_per_call;
    bool saw_incremental = false;  // incremental chunks use explicit indices
    bool dense_applied = false;
    void ApplyChunk(const pipeline::DecodedChunk& chunk) override {
      ASSERT_FALSE(dense_applied) << "chunk after dense";
      // Chain order: every baseline (contiguous) chunk applies before any
      // incremental (explicit-index) chunk.
      if (chunk.explicit_indices) {
        saw_incremental = true;
      } else {
        ASSERT_FALSE(saw_incremental) << "baseline chunk after incremental chunk";
      }
      rows_per_call.push_back(chunk.num_rows);
    }
    void ApplyDense(std::span<const std::uint8_t> dense_blob) override {
      dense_applied = true;
      EXPECT_FALSE(dense_blob.empty());
    }
  };

  OrderApplier applier;
  pipeline::RestoreConfig cfg;
  cfg.fetch_threads = 4;
  cfg.decode_threads = 4;
  cfg.queue_capacity = 2;
  const auto out = pipeline::RunRestorePipeline(store, "test", 4, applier, cfg);
  EXPECT_TRUE(applier.dense_applied);
  EXPECT_EQ(out.chain, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  std::uint64_t total = 0;
  for (const auto r : applier.rows_per_call) total += r;
  EXPECT_EQ(total, out.rows_applied);
  EXPECT_EQ(out.newest.checkpoint_id, 4u);
}

// ------------------------------------------------------------------ scrub ---

TEST(ScrubChain, CleanChainReportsNoIssues) {
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);

  const auto report = pipeline::ScrubChain(store, "test", 4);
  EXPECT_TRUE(report.clean()) << (report.issues.empty() ? "" : report.issues[0].what);
  EXPECT_EQ(report.chain, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_GT(report.chunks_checked, 0u);
  EXPECT_GT(report.rows_checked, 0u);
  EXPECT_GT(report.bytes_checked, 0u);
}

TEST(ScrubChain, DetectsBitRotSizeDriftAndMissingDense) {
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);

  // Bit rot in a mid-chain chunk: the CRC cross-check must flag it.
  const auto mid = LoadManifest(store, "test", 2);
  ASSERT_FALSE(mid.chunks.empty());
  auto blob = *store.Get(mid.chunks[0].key);
  blob[blob.size() / 2] ^= 0x01;
  store.Put(mid.chunks[0].key, std::move(blob));

  // A truncated chunk elsewhere: size + CRC both drift.
  const auto base = LoadManifest(store, "test", 1);
  auto short_blob = *store.Get(base.chunks[0].key);
  short_blob.pop_back();
  store.Put(base.chunks[0].key, std::move(short_blob));

  // And the newest dense blob goes missing entirely.
  const auto newest = LoadManifest(store, "test", 4);
  store.Delete(newest.dense_key);

  const auto report = pipeline::ScrubChain(store, "test", 4);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.issues.size(), 3u);
  auto has_issue = [&](const std::string& key, const std::string& what_substr) {
    for (const auto& issue : report.issues) {
      if (issue.key == key && issue.what.find(what_substr) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_issue(mid.chunks[0].key, "checksum"));
  EXPECT_TRUE(has_issue(base.chunks[0].key, "size"));
  EXPECT_TRUE(has_issue(newest.dense_key, "missing"));

  // A scrub never repairs or applies anything: the store is untouched.
  EXPECT_FALSE(store.Exists(newest.dense_key));
}

// One flipped byte in one chunk is one defect: both scrubbers report it
// once, keyed to that chunk, and never blame the checkpoint's intact
// MANIFEST for the rows the chunk no longer decodes to.
TEST(ScrubChain, RottedChunkIsOneIssueKeyedToTheChunk) {
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);
  const auto newest = LoadManifest(store, "test", 4);
  ASSERT_FALSE(newest.chunks.empty());
  const std::string rotted = newest.chunks[0].key;
  auto blob = *store.Get(rotted);
  blob[blob.size() / 2] ^= 0x40;
  store.Put(rotted, std::move(blob));

  const auto serial = pipeline::ScrubChain(store, "test", 4);
  const auto parallel = pipeline::ScrubChainParallel(store, "test", 4);
  for (const auto* report : {&serial, &parallel}) {
    EXPECT_EQ(report->issues.size(), 1u);
    for (const auto& issue : report->issues) {
      EXPECT_EQ(issue.key, rotted) << issue.what;
      EXPECT_NE(issue.what.find("checksum"), std::string::npos) << issue.what;
    }
  }
}

TEST(ScrubChain, UnresolvableChainIsOneChainLevelIssue) {
  storage::InMemoryStore store;
  WriteChain(store, PlainWriter(), 3);
  store.Delete(storage::Manifest::ManifestKey("test", 2));  // hole mid-chain

  const auto report = pipeline::ScrubChain(store, "test", 4);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].key, "");
  EXPECT_NE(report.issues[0].what.find("chain unresolvable"), std::string::npos);
}

}  // namespace
}  // namespace cnr::core
