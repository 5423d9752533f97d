// Coordinated sharded checkpointing (core/sharded_checkpoint.h): the
// differential guarantee (a sharded cut restored in full is bit-identical to
// the single-job write path over the same snapshot), CPR-style partial
// restore of a shard subset, torn-commit atomicity under injected storage
// faults (a half-written cut is never observable; the previous cut stays
// restorable), empty-shard handling, resume of id/epoch numbering, every
// policy kind keeping each shard's own lineage, and a cut admitted as one
// unit (snapshot after the grant, no store on the submitter's path).
// Run in CI both plain and with -fsanitize=thread.
#include "core/sharded_checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/maintenance.h"
#include "core/recovery.h"
#include "core/writer.h"
#include "data/reader.h"
#include "data/synthetic.h"
#include "storage/fault_injection.h"
#include "storage/object_store.h"

namespace cnr::core {
namespace {

dlrm::ModelConfig SmallModel(std::size_t shards = 4) {
  dlrm::ModelConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 8;
  cfg.table_rows = {128, 64};
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.num_shards = shards;
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

void TrainBatches(dlrm::DlrmModel& model, int from, int to) {
  data::SyntheticDataset ds(MatchingDataset());
  for (int b = from; b < to; ++b) {
    model.TrainBatch(ds.GetBatch(b, static_cast<std::uint64_t>(b) * 32, 32));
  }
}

ShardedJobConfig ShardedConfig(const std::string& name, bool quantize) {
  ShardedJobConfig cfg;
  cfg.name = name;
  cfg.quantize = quantize;
  cfg.quant.method = quant::Method::kAsymmetric;  // linear: rng-independent
  cfg.quant.bits = 8;
  cfg.chunk_rows = 16;
  cfg.gc = false;  // tests inspect the full history
  return cfg;
}

void ExpectModelsEqual(const dlrm::DlrmModel& a, const dlrm::DlrmModel& b) {
  EXPECT_TRUE(a.StateEquals(b));
  for (std::size_t t = 0; t < a.num_tables(); ++t) {
    for (std::size_t s = 0; s < a.table(t).num_shards(); ++s) {
      EXPECT_EQ(a.table(t).Shard(s), b.table(t).Shard(s)) << "table " << t << " shard " << s;
    }
  }
}

// Routes puts under a settable key prefix through a FaultInjectionStore that
// always fails, leaving every other key untouched — targeted torn-commit
// injection (one shard's sub-checkpoint dies, the rest land).
class TargetedFaultStore : public storage::ObjectStore {
 public:
  TargetedFaultStore()
      : inner_(std::make_shared<storage::InMemoryStore>()),
        faulty_(inner_, storage::FaultConfig{.put_failure_probability = 1.0}) {}

  void FailPutsUnder(std::string prefix) {
    std::lock_guard lock(mu_);
    prefix_ = std::move(prefix);
  }

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    {
      std::lock_guard lock(mu_);
      if (!prefix_.empty() && key.starts_with(prefix_)) {
        faulty_.Put(key, std::move(data));  // always throws StoreUnavailable
        return;
      }
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

 private:
  std::shared_ptr<storage::InMemoryStore> inner_;
  storage::FaultInjectionStore faulty_;
  std::mutex mu_;
  std::string prefix_;
};

// Holds every Put until Open(): a far link that is shut, so a test can see
// what a submitter waits for. Everything else passes straight through.
class GatedPutStore : public storage::ObjectStore {
 public:
  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    }
    inner_.Put(key, std::move(data));
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

  void Open() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  storage::InMemoryStore inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Records the keys it Gets and the prefixes it Lists: the probe for what a
// cut's GC and a restore read back.
class ReadRecordingStore : public storage::ObjectStore {
 public:
  struct Reads {
    std::vector<std::string> gets;
    std::vector<std::string> lists;
  };

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    inner_.Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    {
      std::lock_guard lock(mu_);
      reads_.gets.push_back(key);
    }
    return inner_.Get(key);
  }
  bool Exists(const std::string& key) override { return inner_.Exists(key); }
  bool Delete(const std::string& key) override { return inner_.Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    {
      std::lock_guard lock(mu_);
      reads_.lists.push_back(prefix);
    }
    return inner_.List(prefix);
  }
  std::uint64_t TotalBytes() override { return inner_.TotalBytes(); }
  storage::StoreStats Stats() override { return inner_.Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return inner_.SizeOf(key);
  }

  // What was read since the last call.
  Reads Take() {
    std::lock_guard lock(mu_);
    return std::exchange(reads_, {});
  }

 private:
  storage::InMemoryStore inner_;
  std::mutex mu_;
  Reads reads_;
};

// The tentpole differential: one consistent cut written as 4 shard
// sub-checkpoints under a coordinated manifest, restored in full, must be
// bit-identical to the same snapshot written through the single-job writer —
// including under (linear) quantization, where both paths must quantize
// identically because chunk boundaries are per (table, shard) in both.
TEST(ShardedCheckpoint, CoordinatedCutRestoresBitIdenticalToSingleJobPath) {
  dlrm::DlrmModel model(SmallModel());
  TrainBatches(model, 0, 8);
  data::ReaderState rs;
  rs.next_batch_id = 8;
  rs.next_sample = 256;
  const std::vector<std::uint8_t> reader_state = rs.Encode();

  // Sharded path.
  auto sharded_store = std::make_shared<storage::InMemoryStore>();
  {
    CheckpointService service(sharded_store);
    ShardedJobHandle handle(service, model, ShardedConfig("sharded", /*quantize=*/true));
    EXPECT_EQ(handle.num_shards(), 4u);
    const CutResult cut = handle.WriteCut(8, 256, reader_state);
    ASSERT_TRUE(cut.committed);
    EXPECT_EQ(cut.cut_epoch, 1u);
    ASSERT_EQ(cut.shard_map.size(), 4u);
    EXPECT_TRUE(cut.failed_shards.empty());
    EXPECT_GT(cut.rows_written, 0u);
  }

  // Single-job path: same snapshot, same codec settings, one checkpoint.
  storage::InMemoryStore plain_store;
  {
    const ModelSnapshot snap = CreateSnapshot(model, 8, 256, nullptr);
    WriterConfig wc;
    wc.job = "plain";
    wc.chunk_rows = 16;
    wc.quant.method = quant::Method::kAsymmetric;
    wc.quant.bits = 8;
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    WriteCheckpoint(plain_store, snap, plan, wc, 1, reader_state);
  }

  dlrm::DlrmModel from_sharded(SmallModel());
  const ShardedRestoreResult sr = RestoreShardedModel(*sharded_store, "sharded", from_sharded);
  EXPECT_EQ(sr.cut_epoch, 1u);
  EXPECT_EQ(sr.batches_trained, 8u);
  EXPECT_EQ(sr.samples_trained, 256u);
  EXPECT_EQ(sr.reader_state, reader_state);
  EXPECT_EQ(sr.shards_restored.size(), 4u);
  EXPECT_EQ(sr.checkpoints_applied, 4u);  // one sub-checkpoint per shard

  dlrm::DlrmModel from_plain(SmallModel());
  (void)RestoreModel(plain_store, "plain", from_plain);

  ExpectModelsEqual(from_sharded, from_plain);
}

// Per-shard incremental lineage across cuts: cut 1 baselines every shard,
// cut 2 stores only rows dirtied in between, and a full restore of cut 2
// replays each shard's chain back to the training state (quant off, so the
// restored state is exactly the trained one).
TEST(ShardedCheckpoint, IncrementalCutsRestoreAcrossChain) {
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModel());
  CheckpointService service(store);
  ShardedJobConfig cfg = ShardedConfig("incr", /*quantize=*/false);
  cfg.policy = PolicyKind::kOneShot;  // deterministic: never re-baselines
  ShardedJobHandle handle(service, model, cfg);

  TrainBatches(model, 0, 4);
  const CutResult cut1 = handle.WriteCut(4, 128);
  ASSERT_TRUE(cut1.committed);

  TrainBatches(model, 4, 8);
  const CutResult cut2 = handle.WriteCut(8, 256);
  ASSERT_TRUE(cut2.committed);
  EXPECT_EQ(cut2.cut_epoch, 2u);
  // The second cut's sub-checkpoints extend the first's per-shard chains.
  EXPECT_LT(cut2.rows_written, cut1.rows_written);

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = RestoreShardedModel(*store, "incr", restored);
  EXPECT_EQ(rr.cut_epoch, 2u);
  EXPECT_GE(rr.checkpoints_applied, 8u);  // 4 shards x a 2-link chain
  ExpectModelsEqual(model, restored);

  // Cut 1 stays independently restorable (keep_cuts is maintenance's call,
  // GC is off here).
  dlrm::DlrmModel at_cut1(SmallModel());
  EXPECT_EQ(RestoreShardedModel(*store, "incr", at_cut1, 1).cut_epoch, 1u);
}

// CPR-style partial recovery: only the lost shards' chains are replayed;
// survivors' rows and the dense layers are untouched. The recovered shards
// are bit-identical to what a full restore produces.
TEST(ShardedCheckpoint, PartialRestoreTouchesOnlyLostShards) {
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModel());
  CheckpointService service(store);
  ShardedJobHandle handle(service, model, ShardedConfig("partial", /*quantize=*/false));
  TrainBatches(model, 0, 8);
  ASSERT_TRUE(handle.WriteCut(8, 256).committed);

  dlrm::DlrmModel full(SmallModel());
  (void)RestoreShardedModel(*store, "partial", full);

  dlrm::DlrmModel partial(SmallModel());  // fresh init = the "surviving" state
  const dlrm::DlrmModel fresh(SmallModel());
  const auto pr = RestorePartial(*store, "partial", partial, {1, 3});
  EXPECT_EQ(pr.shards_restored, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(pr.checkpoints_applied, 2u);
  EXPECT_GT(pr.bytes_read, 0u);

  // Lost shards match the full restore; survivors and dense are untouched.
  for (std::size_t t = 0; t < partial.num_tables(); ++t) {
    for (std::size_t s = 0; s < partial.table(t).num_shards(); ++s) {
      if (s == 1 || s == 3) {
        EXPECT_EQ(partial.table(t).Shard(s), full.table(t).Shard(s))
            << "lost shard not recovered: table " << t << " shard " << s;
      } else {
        EXPECT_EQ(partial.table(t).Shard(s), fresh.table(t).Shard(s))
            << "surviving shard was modified: table " << t << " shard " << s;
      }
    }
  }
  EXPECT_TRUE(partial.DenseEquals(fresh));  // partial restore fetches no dense

  EXPECT_THROW(RestorePartial(*store, "partial", partial, {17}), std::invalid_argument);
}

// Torn-commit atomicity: one shard's sub-checkpoint is killed by the fault
// injector, so the cut must publish NOTHING — the previous coordinated cut
// stays the newest restorable one and the torn epoch is invisible to the
// survey (what `cnr_inspect shards` renders). After the store heals, the
// next cut commits and recovery moves forward.
TEST(ShardedCheckpoint, TornCommitLeavesPreviousCutRestorable) {
  auto store = std::make_shared<TargetedFaultStore>();
  dlrm::DlrmModel model(SmallModel());
  ServiceConfig sc;
  sc.put_attempts = 2;
  CheckpointService service(store, sc);
  ShardedJobHandle handle(service, model, ShardedConfig("torn", /*quantize=*/false));

  TrainBatches(model, 0, 4);
  ASSERT_TRUE(handle.WriteCut(4, 128).committed);
  dlrm::DlrmModel at_cut1(SmallModel());
  (void)RestoreShardedModel(*store, "torn", at_cut1);

  // Cut 2 would use sub-checkpoint ids 5..8 (4 shards per cut); kill shard
  // 2's (id 7) puts so exactly one shard fails.
  TrainBatches(model, 4, 8);
  store->FailPutsUnder(storage::Manifest::CheckpointPrefix("torn", 7));
  const CutResult torn = handle.WriteCut(8, 256);
  EXPECT_FALSE(torn.committed);
  EXPECT_EQ(torn.failed_shards, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(torn.shard_map.empty());

  // The torn epoch is not observable: no COORD object, the survey lists only
  // cut 1, and a restore still lands on cut 1's state.
  EXPECT_EQ(LatestCutEpoch(*store, "torn"), std::optional<std::uint64_t>{1});
  const JobSurvey survey = SurveyJob(*store, "torn", /*measure_orphans=*/false);
  ASSERT_EQ(survey.cuts.size(), 1u);
  EXPECT_EQ(survey.cuts[0].epoch, 1u);
  dlrm::DlrmModel after_torn(SmallModel());
  const auto rr = RestoreShardedModel(*store, "torn", after_torn);
  EXPECT_EQ(rr.cut_epoch, 1u);
  ExpectModelsEqual(after_torn, at_cut1);

  // Healed: the next cut commits (failed shard re-baselines via its policy)
  // and restores the current training state.
  store->FailPutsUnder("");
  const CutResult cut3 = handle.WriteCut(8, 256);
  ASSERT_TRUE(cut3.committed);
  EXPECT_EQ(cut3.cut_epoch, 3u);  // epoch 2 was consumed by the torn attempt
  dlrm::DlrmModel healed(SmallModel());
  EXPECT_EQ(RestoreShardedModel(*store, "torn", healed).cut_epoch, 3u);
  ExpectModelsEqual(healed, model);
}

// Every policy kind keeps each shard's own lineage across cuts: after three
// cuts with training in between, both a full restore and a partial restore
// of every shard reproduce the trained model bit for bit (quantization off).
// A consecutive incremental must chain to its own shard's previous
// sub-checkpoint, not to "id - 1", which in a sharded job is another shard's.
TEST(ShardedCheckpoint, EveryPolicyRestoresTheTrainedModelAcrossCuts) {
  for (const PolicyKind kind : {PolicyKind::kAlwaysFull, PolicyKind::kOneShot,
                                PolicyKind::kConsecutive, PolicyKind::kIntermittent}) {
    SCOPED_TRACE(PolicyName(kind));
    auto store = std::make_shared<storage::InMemoryStore>();
    dlrm::DlrmModel model(SmallModel());
    CheckpointService service(store);
    ShardedJobConfig cfg = ShardedConfig("policy", /*quantize=*/false);
    cfg.policy = kind;
    ShardedJobHandle handle(service, model, cfg);

    constexpr int kCuts = 4;
    for (int c = 0; c < kCuts; ++c) {
      TrainBatches(model, c * 4, (c + 1) * 4);
      ASSERT_TRUE(handle.WriteCut((c + 1) * 4, (c + 1) * 128).committed);
    }

    dlrm::DlrmModel full(SmallModel());
    EXPECT_EQ(RestoreShardedModel(*store, "policy", full).cut_epoch,
              static_cast<std::uint64_t>(kCuts));
    ExpectModelsEqual(model, full);

    dlrm::DlrmModel partial(SmallModel());
    const auto pr = RestorePartial(*store, "policy", partial, {0, 1, 2, 3});
    EXPECT_EQ(pr.shards_restored.size(), 4u);
    for (std::size_t t = 0; t < model.num_tables(); ++t) {
      for (std::size_t s = 0; s < model.table(t).num_shards(); ++s) {
        EXPECT_EQ(partial.table(t).Shard(s), model.table(t).Shard(s))
            << "table " << t << " shard " << s;
      }
    }
  }
}

// A cut is ONE admission unit: at the default service-wide cap (4), an
// 8-shard SubmitCut takes one grant, snapshots, and returns while every
// far-tier Put is still held shut. Counted per shard, shards 5-8 would wait
// for shards 1-4 to store.
TEST(ShardedCheckpoint, EightShardCutReturnsWithoutWaitingForAnyStore) {
  auto store = std::make_shared<GatedPutStore>();
  dlrm::DlrmModel model(SmallModel(8));
  CheckpointService service(store);
  ASSERT_EQ(service.config().max_inflight_checkpoints, 4u);
  ShardedJobHandle handle(service, model, ShardedConfig("gated", /*quantize=*/false));
  ASSERT_EQ(handle.num_shards(), 8u);
  TrainBatches(model, 0, 4);

  std::optional<CutTicket> ticket;
  std::promise<void> returned;
  std::thread trainer([&] {
    ticket.emplace(handle.SubmitCut(4, 128));
    returned.set_value();
  });
  const bool in_time =
      returned.get_future().wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(in_time) << "SubmitCut waited for the (shut) store";
  EXPECT_EQ(service.stats().admitted, 1u);  // the whole cut holds one grant
  store->Open();
  trainer.join();

  const CutResult cut = ticket->Wait();
  ASSERT_TRUE(cut.committed);
  EXPECT_EQ(cut.shard_map.size(), 8u);
  service.DrainAll();
  EXPECT_EQ(service.stats().admitted, 0u);
  EXPECT_EQ(service.stats().admitted_peak, 1u);
  dlrm::DlrmModel restored(SmallModel(8));
  (void)RestoreShardedModel(*store, "gated", restored);
  ExpectModelsEqual(model, restored);
}

// The cut's snapshot (and harvest, split and plan) run only after the cut is
// granted: while the submitter waits at a full gate the model keeps
// training, and the committed cut holds the state at grant time, not at
// call time.
TEST(ShardedCheckpoint, CutSnapshotIsTakenOnlyAfterItsGrant) {
  auto store = std::make_shared<GatedPutStore>();
  ServiceConfig sc;
  sc.max_inflight_checkpoints = 1;
  CheckpointService service(store, sc);

  // The first job's cut takes the only grant and keeps it: its Puts wait.
  dlrm::DlrmModel holder_model(SmallModel());
  ShardedJobHandle holder(service, holder_model, ShardedConfig("holder", false));
  CutTicket held = holder.SubmitCut(0, 0);
  ASSERT_EQ(service.stats().admitted, 1u);

  dlrm::DlrmModel model(SmallModel());
  ShardedJobHandle handle(service, model, ShardedConfig("late", false));
  TrainBatches(model, 0, 4);
  std::optional<CutTicket> ticket;
  std::thread trainer([&] { ticket.emplace(handle.SubmitCut(8, 256)); });
  while (service.stats().admission_waiters != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The submitter is parked at the gate, so its snapshot is not taken yet:
  // what the model learns now must show up in the cut.
  TrainBatches(model, 4, 8);
  store->Open();
  trainer.join();

  ASSERT_TRUE(held.Wait().committed);
  ASSERT_TRUE(ticket->Wait().committed);
  EXPECT_EQ(service.stats().admitted_peak, 1u);
  dlrm::DlrmModel restored(SmallModel());
  (void)RestoreShardedModel(*store, "late", restored);
  ExpectModelsEqual(model, restored);
}

// A global shard no table reaches (tables clamp their shard count to their
// rows) submits nothing and gets no shard-map entry; the cut still commits
// and restores.
TEST(ShardedCheckpoint, EmptyGlobalShardIsSkipped) {
  dlrm::ModelConfig mc = SmallModel(4);
  mc.table_rows = {128, 3};  // table 1 clamps to 3 shards: global shard 3 only in table 0
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(mc);
  CheckpointService service(store);
  ShardedJobHandle handle(service, model, ShardedConfig("clamped", /*quantize=*/false));

  data::DatasetConfig dc = MatchingDataset();
  dc.tables = {{128, 2, 1.1}, {3, 1, 1.05}};
  data::SyntheticDataset ds(dc);
  for (int b = 0; b < 4; ++b) model.TrainBatch(ds.GetBatch(b, b * 32ull, 32));

  const CutResult cut = handle.WriteCut(4, 128);
  ASSERT_TRUE(cut.committed);
  EXPECT_EQ(cut.shard_map.size(), 4u);  // all four global shards reach table 0

  dlrm::DlrmModel restored(mc);
  const auto rr = RestoreShardedModel(*store, "clamped", restored);
  EXPECT_EQ(rr.shards_restored.size(), 4u);
  ExpectModelsEqual(model, restored);
}

// Truly-empty global shards: a single-row table under many shards leaves the
// high shards with no tables at all — they must not appear in the shard map.
TEST(ShardedCheckpoint, ShardWithNoTablesGetsNoMapEntry) {
  dlrm::ModelConfig mc;
  mc.num_dense = 4;
  mc.embedding_dim = 8;
  mc.table_rows = {2, 3};
  mc.bottom_hidden = {16};
  mc.top_hidden = {16};
  mc.num_shards = 4;  // tables clamp to 2 and 3 shards: global shard 3 is empty
  mc.seed = 5;
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(mc);
  CheckpointService service(store);
  ShardedJobHandle handle(service, model, ShardedConfig("tiny", /*quantize=*/false));

  const CutResult cut = handle.WriteCut(1, 32);
  ASSERT_TRUE(cut.committed);
  ASSERT_EQ(cut.shard_map.size(), 3u);
  for (const auto& e : cut.shard_map) EXPECT_LT(e.shard_id, 3u);

  dlrm::DlrmModel restored(mc);
  const auto rr = RestoreShardedModel(*store, "tiny", restored);
  EXPECT_EQ(rr.shards_restored.size(), 3u);
  ExpectModelsEqual(model, restored);
}

// A re-attached handle (service restart) resumes both counters past the
// store's contents, so new sub-checkpoints and cuts never collide with or
// sort below existing ones.
TEST(ShardedCheckpoint, ReattachResumesIdAndEpochNumbering) {
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModel());
  TrainBatches(model, 0, 4);
  {
    CheckpointService service(store);
    ShardedJobHandle handle(service, model, ShardedConfig("resume", /*quantize=*/false));
    ASSERT_TRUE(handle.WriteCut(4, 128).committed);
  }
  {
    CheckpointService service(store);
    ShardedJobHandle handle(service, model, ShardedConfig("resume", /*quantize=*/false));
    TrainBatches(model, 4, 8);
    const CutResult cut = handle.WriteCut(8, 256);
    ASSERT_TRUE(cut.committed);
    EXPECT_EQ(cut.cut_epoch, 2u);
    for (const auto& e : cut.shard_map) EXPECT_GT(e.checkpoint_id, 4u);
  }
  dlrm::DlrmModel restored(SmallModel());
  EXPECT_EQ(RestoreShardedModel(*store, "resume", restored).cut_epoch, 2u);
  ExpectModelsEqual(model, restored);
}

// Stray objects under a job's ckpt/ and cut/ prefixes (a foreign tool's
// temp file, a hand-copied directory) are not checkpoints: the id and
// epoch scans skip them instead of throwing, so the newest checkpoint still
// restores and a sharded handle still opens and cuts on the job.
TEST(ShardedCheckpoint, StrayKeysUnderCkptAndCutAreSkipped) {
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel model(SmallModel());
  TrainBatches(model, 0, 4);
  {
    WriterConfig wc;
    wc.job = "stray";
    wc.chunk_rows = 16;
    wc.quant.method = quant::Method::kNone;
    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    WriteCheckpoint(*store, CreateSnapshot(model, 4, 128), plan, wc, 1,
                    data::ReaderState{}.Encode());
  }
  store->Put("jobs/stray/ckpt/notanid/MANIFEST", {1, 2, 3});
  store->Put("jobs/stray/cut/notanepoch/COORD", {1, 2, 3});

  std::optional<std::uint64_t> latest, latest_cut;
  EXPECT_NO_THROW(latest = LatestCheckpointId(*store, "stray"));
  EXPECT_EQ(latest, std::optional<std::uint64_t>(1));
  dlrm::DlrmModel restored(SmallModel());
  EXPECT_NO_THROW(RestoreModel(*store, "stray", restored));
  ExpectModelsEqual(model, restored);
  EXPECT_NO_THROW(latest_cut = LatestCutEpoch(*store, "stray"));
  EXPECT_EQ(latest_cut, std::nullopt);

  CheckpointService service(store);
  std::optional<ShardedJobHandle> handle;
  EXPECT_NO_THROW(handle.emplace(service, model, ShardedConfig("stray", /*quantize=*/false)));
  ASSERT_TRUE(handle.has_value());
  const CutResult cut = handle->WriteCut(4, 128);
  ASSERT_TRUE(cut.committed);
  EXPECT_EQ(cut.cut_epoch, 1u);
  for (const auto& e : cut.shard_map) EXPECT_GT(e.checkpoint_id, 1u);
}

// A committed cut's GC plans from what the service wrote plus one List of
// the job's prefix: on an 8-shard intermittent job (the benchmark's
// shard-failover shape), Wait() reads no MANIFEST or COORD back from the
// third cut on. Before the service's store view indexed the lineage it
// writes, every cut's GC Got each MANIFEST and COORD of the job.
TEST(ShardedCheckpoint, CutGcReadsNoManifest) {
  auto store = std::make_shared<ReadRecordingStore>();
  dlrm::DlrmModel model(SmallModel(8));
  CheckpointService service(store);
  ShardedJobConfig cfg = ShardedConfig("gc", /*quantize=*/false);
  cfg.gc = true;  // intermittent, keep_cuts = 1
  ShardedJobHandle handle(service, model, cfg);
  ASSERT_EQ(handle.num_shards(), 8u);
  const std::string prefix = storage::Manifest::JobPrefix("gc");
  for (int c = 1; c <= 8; ++c) {
    TrainBatches(model, 2 * (c - 1), 2 * c);
    CutTicket ticket = handle.SubmitCut(static_cast<std::uint64_t>(2 * c),
                                        static_cast<std::uint64_t>(64 * c));
    store->Take();
    const CutResult cut = ticket.Wait();
    const auto reads = store->Take();
    ASSERT_TRUE(cut.committed) << "cut " << c;
    if (c < 3) continue;
    EXPECT_TRUE(reads.gets.empty())
        << "cut " << c << "'s GC Got " << reads.gets.size() << " object(s), the first "
        << reads.gets.front();
    EXPECT_EQ(std::count(reads.lists.begin(), reads.lists.end(), prefix), 1) << "cut " << c;
  }
  // Retention ran all along: one cut left, and it restores the model.
  EXPECT_EQ(SurveyJob(*store, "gc").cuts.size(), 1u);
  dlrm::DlrmModel restored(SmallModel(8));
  (void)RestoreShardedModel(*store, "gc", restored);
  ExpectModelsEqual(model, restored);
}

// A full restore reads the cut's COORD once and shares it with the shard
// restores (it used to load it again through RestorePartial: two Gets).
TEST(ShardedCheckpoint, FullRestoreReadsTheCoordOnce) {
  auto store = std::make_shared<ReadRecordingStore>();
  dlrm::DlrmModel model(SmallModel());
  {
    CheckpointService service(store);
    ShardedJobHandle handle(service, model, ShardedConfig("once", /*quantize=*/false));
    TrainBatches(model, 0, 4);
    ASSERT_TRUE(handle.WriteCut(4, 128).committed);
  }
  const std::string coord = storage::Manifest::CutKey("once", 1);
  for (const bool newest : {true, false}) {
    store->Take();
    dlrm::DlrmModel restored(SmallModel());
    (void)RestoreShardedModel(*store, "once", restored,
                              newest ? std::nullopt : std::optional<std::uint64_t>(1));
    const auto gets = store->Take().gets;
    EXPECT_EQ(std::count(gets.begin(), gets.end(), coord), 1) << "newest " << newest;
    ExpectModelsEqual(model, restored);
  }
}

}  // namespace
}  // namespace cnr::core
