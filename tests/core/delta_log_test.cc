// Delta-log test suite: the differential replay + crash-consistency pins of
// the per-iteration delta streaming plane (core/delta_log.h).
//
//   - Differential replay: base checkpoint + delta-log tail restores
//     bit-identically to a dense checkpoint taken at the same iteration, for
//     every deterministic codec family and bit width, with overlapping
//     touched-row sets from real training.
//   - Replay determinism + compaction equivalence: a trace with MIXED
//     per-iteration quant configs (including k-means) replays the same way
//     twice, and a compacted log restores bit-identically to the
//     pre-compaction replay (record-preserving compaction never re-encodes).
//   - Crash consistency: the stream is killed at EVERY segment boundary and
//     mid-segment (torn write) via storage::FaultInjectionStore; recovery
//     must truncate to the last sealed segment, never observe a torn byte,
//     and report the exact RPO per injection point.
//   - PR-7 follow-on: survivors keep streaming deltas while a peer restores
//     the same job concurrently (run under TSan in CI), with lineage and
//     occupancy parity asserted afterward.
//   - On-demand scrub: every scrub fetches every chunk, dense blob and delta
//     segment again, so rot between two scrubs of an idle job is flagged.
//   - Maintenance lineage unit: survey attribution, GC, and quota accounting
//     treat base + delta segments as one unit.
#include "core/delta_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/maintenance.h"
#include "core/recovery.h"
#include "core/service.h"
#include "core/snapshot.h"
#include "core/tracking.h"
#include "core/writer.h"
#include "data/synthetic.h"
#include "dlrm/model.h"
#include "quant/quantizer.h"
#include "storage/fault_injection.h"
#include "storage/manifest.h"
#include "storage/object_store.h"
#include "util/sim_clock.h"
#include "util/sync.h"

namespace cnr::core {
namespace {

constexpr char kJob[] = "dlog-job";
constexpr int kWarmupBatches = 3;

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

// One deterministic training step. Warmup batches use indices
// 0..kWarmupBatches-1; iteration t (1-based) replays batch kWarmupBatches+t-1
// — so any two models fed the same step sequence are bit-identical.
void TrainStep(dlrm::DlrmModel& model, data::SyntheticDataset& ds, int index) {
  model.TrainBatch(ds.GetBatch(index, static_cast<std::uint64_t>(index) * 32, 32));
}

// Reference: a fresh model trained through warmup + `iterations` steps.
dlrm::DlrmModel ReferenceModel(std::uint64_t iterations) {
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  for (int b = 0; b < kWarmupBatches + static_cast<int>(iterations); ++b) {
    TrainStep(model, ds, b);
  }
  return model;
}

WriterConfig MakeWriter(const quant::QuantConfig& quant, const std::string& job = kJob) {
  WriterConfig cfg;
  cfg.job = job;
  cfg.chunk_rows = 16;
  cfg.quant = quant;
  return cfg;
}

void WriteFullCheckpoint(storage::ObjectStore& store, const dlrm::DlrmModel& model,
                         std::uint64_t id, const quant::QuantConfig& quant,
                         const std::string& job = kJob) {
  const ModelSnapshot snap = CreateSnapshot(model, id, id * 32, nullptr);
  CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  data::ReaderState rs;
  rs.next_batch_id = id;
  rs.next_sample = id * 32;
  WriteCheckpoint(store, snap, plan, MakeWriter(quant, job), id, rs.Encode());
}

quant::QuantConfig Quant(quant::Method method, int bits = 4) {
  quant::QuantConfig q;
  q.method = method;
  q.bits = bits;
  return q;
}

void ExpectModelsEqual(const dlrm::DlrmModel& a, const dlrm::DlrmModel& b) {
  EXPECT_TRUE(a.StateEquals(b));
  for (std::size_t t = 0; t < a.num_tables(); ++t) {
    for (std::size_t s = 0; s < a.table(t).num_shards(); ++s) {
      EXPECT_EQ(a.table(t).Shard(s), b.table(t).Shard(s)) << "table " << t << " shard " << s;
    }
  }
}

// Store decorator recording the keys it Gets — the probe for "did the scrub
// fetch every object again" and for "did maintenance download an object
// just to size it" (SizeOf is a stat, forwarded unrecorded).
class GetRecordingStore : public storage::ObjectStore {
 public:
  explicit GetRecordingStore(std::shared_ptr<storage::ObjectStore> inner)
      : inner_(std::move(inner)) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    inner_->Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    {
      util::MutexLock lock(mu_);
      got_.push_back(key);
    }
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

  // Keys fetched since the last call.
  std::vector<std::string> TakeGot() {
    util::MutexLock lock(mu_);
    return std::exchange(got_, {});
  }

 private:
  std::shared_ptr<storage::ObjectStore> inner_;
  util::Mutex mu_;
  std::vector<std::string> got_;
};

// Trains warmup + `iterations` steps, writing the base checkpoint after the
// warmup and streaming every iteration's dirty set through a DeltaLog with
// `quant` (or, when `per_iteration` is non-empty, config i % size per
// iteration). Returns the live model for reference comparison.
dlrm::DlrmModel StreamTrace(storage::ObjectStore& base_store,
                            std::shared_ptr<storage::ObjectStore> log_store,
                            std::uint64_t iterations, const quant::QuantConfig& quant,
                            const std::vector<quant::QuantConfig>& per_iteration = {},
                            std::size_t group_commit = 1) {
  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  ModifiedRowTracker tracker(model);
  for (int b = 0; b < kWarmupBatches; ++b) TrainStep(model, ds, b);
  (void)tracker.HarvestInterval();  // warmup dirt belongs to the base
  WriteFullCheckpoint(base_store, model, 1, quant);

  pipeline::StageExecutor exec;
  DeltaLogConfig cfg;
  cfg.job = kJob;
  cfg.base_checkpoint_id = 1;
  cfg.quant = quant;
  cfg.group_commit_iterations = group_commit;
  DeltaLog log(std::move(log_store), exec, cfg);
  for (std::uint64_t t = 1; t <= iterations; ++t) {
    TrainStep(model, ds, kWarmupBatches + static_cast<int>(t) - 1);
    const DirtySets dirty = tracker.HarvestInterval();
    if (per_iteration.empty()) {
      log.Append(model, dirty, t);
    } else {
      log.Append(model, dirty, t, per_iteration[(t - 1) % per_iteration.size()]);
    }
  }
  log.Flush();
  const auto stats = log.stats();
  EXPECT_EQ(stats.iterations_appended, iterations);
  EXPECT_EQ(stats.iterations_durable, iterations);
  EXPECT_EQ(stats.segments_dropped, 0u);
  // The RPO contract: with the admission window at its default of 1, at most
  // one iteration was ever non-durable after an Append returned.
  EXPECT_LE(stats.max_unsynced_iterations, std::max<std::uint64_t>(group_commit, 1));
  return model;
}

// ----------------------------------------------------- differential ---------

// base + delta tail must be bit-identical to a dense checkpoint of the same
// iteration, for every deterministic codec family and bit width. The trace
// is real training over a zipfian dataset, so touched-row sets overlap
// across iterations (last-writer-wins is actually exercised).
TEST(DeltaLog, DifferentialReplayMatchesDenseRestore) {
  const std::vector<quant::QuantConfig> sweep = {
      Quant(quant::Method::kNone),
      Quant(quant::Method::kSymmetric, 4),
      Quant(quant::Method::kSymmetric, 8),
      Quant(quant::Method::kAsymmetric, 2),
      Quant(quant::Method::kAsymmetric, 4),
      Quant(quant::Method::kAdaptiveAsymmetric, 4),
      Quant(quant::Method::kAdaptiveAsymmetric, 8),
  };
  constexpr std::uint64_t kIters = 8;
  for (const auto& quant : sweep) {
    SCOPED_TRACE("method " + quant::MethodName(quant.method) + " bits " +
                 std::to_string(quant.bits));
    auto store = std::make_shared<storage::InMemoryStore>();
    dlrm::DlrmModel live = StreamTrace(*store, store, kIters, quant);

    // Dense reference: a full checkpoint of the SAME live model at the same
    // iteration, with the same codec.
    WriteFullCheckpoint(*store, live, 2, quant);

    dlrm::DlrmModel via_delta(SmallModel());
    const auto out = RestoreWithDeltaLog(*store, kJob, via_delta, /*base_id=*/1);
    EXPECT_EQ(out.base.checkpoint_id, 1u);
    EXPECT_EQ(out.replay.base_checkpoint_id, 1u);
    EXPECT_EQ(out.replay.last_iteration, kIters);
    EXPECT_EQ(out.replay.iterations_replayed, kIters);
    EXPECT_EQ(out.replay.segments_replayed, kIters);  // group commit of 1
    EXPECT_TRUE(out.replay.torn_keys.empty());
    EXPECT_GT(out.replay.rows_applied, 0u);

    dlrm::DlrmModel via_dense(SmallModel());
    RestoreModel(*store, kJob, via_dense, /*id=*/2);
    ExpectModelsEqual(via_dense, via_delta);
    // fp32 passthrough must equal the live trainer bit for bit.
    if (quant.method == quant::Method::kNone) ExpectModelsEqual(live, via_delta);
  }
}

// Group commit batches several iterations per segment; the differential
// guarantee is unchanged, only the segment count shrinks.
TEST(DeltaLog, GroupCommitBatchesAndStillMatchesDense) {
  constexpr std::uint64_t kIters = 10;
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel live = StreamTrace(*store, store, kIters, Quant(quant::Method::kNone),
                                     {}, /*group_commit=*/3);
  WriteFullCheckpoint(*store, live, 2, Quant(quant::Method::kNone));

  dlrm::DlrmModel via_delta(SmallModel());
  const auto out = RestoreWithDeltaLog(*store, kJob, via_delta, 1);
  EXPECT_EQ(out.replay.last_iteration, kIters);
  EXPECT_EQ(out.replay.segments_replayed, 4u);  // ceil(10 / 3): 3+3+3+1

  dlrm::DlrmModel via_dense(SmallModel());
  RestoreModel(*store, kJob, via_dense, 2);
  ExpectModelsEqual(via_dense, via_delta);
  ExpectModelsEqual(live, via_delta);
}

// A trace whose iterations mix codec families and bit widths — including
// k-means, whose rows are rng-dependent and therefore pinned by replay
// determinism rather than the cross-path sweep — must (a) replay the same
// way twice and (b) restore bit-identically before and after compaction:
// compaction copies encoded row bytes verbatim, it never re-encodes.
TEST(DeltaLog, MixedConfigReplayDeterministicAndCompactionEquivalent) {
  constexpr std::uint64_t kIters = 12;
  const std::vector<quant::QuantConfig> mixed = {
      Quant(quant::Method::kNone),
      Quant(quant::Method::kSymmetric, 8),
      Quant(quant::Method::kKMeans, 4),
      Quant(quant::Method::kAsymmetric, 2),
      Quant(quant::Method::kAdaptiveAsymmetric, 4),
  };
  auto store = std::make_shared<storage::InMemoryStore>();
  StreamTrace(*store, store, kIters, Quant(quant::Method::kNone), mixed);

  dlrm::DlrmModel first(SmallModel());
  const auto out_first = RestoreWithDeltaLog(*store, kJob, first, 1);
  EXPECT_EQ(out_first.replay.last_iteration, kIters);

  dlrm::DlrmModel second(SmallModel());
  RestoreWithDeltaLog(*store, kJob, second, 1);
  ExpectModelsEqual(first, second);  // replay is deterministic

  // Fold the whole log into one cover, then replay again.
  {
    pipeline::StageExecutor exec;
    DeltaLogConfig cfg;
    cfg.job = kJob;
    cfg.base_checkpoint_id = 1;
    DeltaLog log(store, exec, cfg);
    log.CompactNow();
    const auto stats = log.stats();
    EXPECT_EQ(stats.compactions, 1u);
    EXPECT_EQ(stats.segments_folded, kIters);
    EXPECT_GT(stats.rows_dropped, 0u);  // overlapping traces supersede rows
  }
  const auto infos = InspectDeltaLog(*store, kJob, 1);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].compacted);
  EXPECT_TRUE(infos[0].valid);
  EXPECT_EQ(infos[0].header.last_iteration, kIters);

  dlrm::DlrmModel compacted(SmallModel());
  const auto out_compact = RestoreWithDeltaLog(*store, kJob, compacted, 1);
  EXPECT_TRUE(out_compact.replay.used_compacted);
  EXPECT_EQ(out_compact.replay.last_iteration, kIters);
  ExpectModelsEqual(first, compacted);  // bit-identical to pre-compaction

  // Segments appended AFTER a compaction replay on top of the cover.
  {
    dlrm::DlrmModel live = ReferenceModel(kIters);
    data::SyntheticDataset ds(MatchingDataset());
    ModifiedRowTracker tracker(live);
    pipeline::StageExecutor exec;
    DeltaLogConfig cfg;
    cfg.job = kJob;
    cfg.base_checkpoint_id = 1;
    // Fresh log over the same prefix: sequencing restarts above the cover.
    // (A restarted trainer would instead write a new base; this exercises
    // the cover + raw-tail replay path directly.)
    TrainStep(live, ds, kWarmupBatches + static_cast<int>(kIters));
    // The existing cover holds seqs 1..kIters; continue the raw stream.
    DeltaLog log(store, exec, cfg);
    // NOTE: a brand-new DeltaLog starts at seq 1, which replay ignores at or
    // below the cover seq — so this append is intentionally NOT part of the
    // recovered state. Assert replay still ends at the cover.
    log.Append(live, tracker.HarvestInterval(), kIters + 1);
    log.Flush();
  }
  dlrm::DlrmModel after(SmallModel());
  const auto out_after = RestoreWithDeltaLog(*store, kJob, after, 1);
  EXPECT_EQ(out_after.replay.last_iteration, kIters);  // folded remnant ignored
  ExpectModelsEqual(first, after);
}

// --------------------------------------------------- crash consistency ------

// Kills the stream at every segment boundary (Put n never reaches the tier)
// and asserts, per injection point: recovery replays exactly the n-1 sealed
// segments, the restored model equals a reference trained to n-1, and the
// reported RPO is exactly one iteration (the admission-window bound).
TEST(DeltaLog, CrashAtEverySegmentBoundaryExactRpo) {
  constexpr std::uint64_t kIters = 6;
  for (std::uint64_t n = 1; n <= kIters; ++n) {
    SCOPED_TRACE("injected failure at segment put " + std::to_string(n));
    auto backing = std::make_shared<storage::InMemoryStore>();

    dlrm::DlrmModel model(SmallModel());
    data::SyntheticDataset ds(MatchingDataset());
    ModifiedRowTracker tracker(model);
    for (int b = 0; b < kWarmupBatches; ++b) TrainStep(model, ds, b);
    (void)tracker.HarvestInterval();
    // The base checkpoint is durable before any fault arms.
    WriteFullCheckpoint(*backing, model, 1, Quant(quant::Method::kNone));

    storage::FaultConfig faults;
    faults.fail_nth_put = n;  // segment seq n dies on the wire
    auto flaky = std::make_shared<storage::FaultInjectionStore>(backing, faults);

    std::uint64_t appended = 0;
    bool crashed = false;
    {
      pipeline::StageExecutor exec;
      DeltaLogConfig cfg;
      cfg.job = kJob;
      cfg.base_checkpoint_id = 1;
      cfg.quant = Quant(quant::Method::kNone);
      DeltaLog log(flaky, exec, cfg);
      try {
        for (std::uint64_t t = 1; t <= kIters; ++t) {
          TrainStep(model, ds, kWarmupBatches + static_cast<int>(t) - 1);
          const DirtySets dirty = tracker.HarvestInterval();
          log.Append(model, dirty, t);
          appended = t;
        }
        log.Flush();
      } catch (const storage::StoreUnavailable&) {
        crashed = true;
      }
      EXPECT_TRUE(crashed);
      EXPECT_EQ(flaky->injected_put_failures(), 1u);  // one Put per segment
      const auto stats = log.stats();
      EXPECT_EQ(stats.iterations_durable, n - 1);
      // Exact RPO at the crash: everything appended beyond the last durable
      // segment is lost, and the admission window kept that to <= 1 sealed
      // segment (+ the iteration whose Append observed the latched failure).
      EXPECT_LE(stats.iterations_appended - stats.iterations_durable, 2u);
    }

    // Recovery from the tier's surviving state.
    dlrm::DlrmModel restored(SmallModel());
    const auto out = RestoreWithDeltaLog(*backing, kJob, restored, 1);
    EXPECT_EQ(out.replay.last_iteration, n - 1);
    EXPECT_EQ(out.replay.iterations_replayed, n - 1);
    EXPECT_EQ(out.replay.segments_replayed, n - 1);
    EXPECT_TRUE(out.replay.torn_keys.empty());  // nothing landed, no tear
    // Exact RPO: recovery replays exactly n-1 iterations at every injection
    // point (asserted above); the trainer completed n-1 or n Appends
    // depending on whether segment n's failure latched before or after
    // Append(n) returned — either way at most ONE appended iteration is
    // lost, the admission-window bound.
    EXPECT_GE(appended + 1, n);
    EXPECT_LE(appended, n);
    EXPECT_LE(appended - out.replay.last_iteration, 1u);
    ExpectModelsEqual(restored, ReferenceModel(n - 1));
  }
}

// Torn write: a truncated prefix of segment n lands in the tier before the
// writer dies. Recovery must detect the tear (trailing CRC), refuse to apply
// a single byte of it, replay exactly n-1 iterations, and — with
// truncate_torn — delete the torn object so the log ends sealed.
TEST(DeltaLog, CrashMidSegmentTornWriteTruncates) {
  constexpr std::uint64_t kIters = 6;
  for (std::uint64_t n = 1; n <= kIters; ++n) {
    SCOPED_TRACE("torn write at segment put " + std::to_string(n));
    auto backing = std::make_shared<storage::InMemoryStore>();

    dlrm::DlrmModel model(SmallModel());
    data::SyntheticDataset ds(MatchingDataset());
    ModifiedRowTracker tracker(model);
    for (int b = 0; b < kWarmupBatches; ++b) TrainStep(model, ds, b);
    (void)tracker.HarvestInterval();
    WriteFullCheckpoint(*backing, model, 1, Quant(quant::Method::kNone));

    storage::FaultConfig faults;
    faults.fail_nth_put = n;
    faults.torn_put = true;
    auto flaky = std::make_shared<storage::FaultInjectionStore>(backing, faults);

    bool crashed = false;
    {
      pipeline::StageExecutor exec;
      DeltaLogConfig cfg;
      cfg.job = kJob;
      cfg.base_checkpoint_id = 1;
      cfg.quant = Quant(quant::Method::kNone);
      DeltaLog log(flaky, exec, cfg);
      try {
        for (std::uint64_t t = 1; t <= kIters; ++t) {
          TrainStep(model, ds, kWarmupBatches + static_cast<int>(t) - 1);
          log.Append(model, tracker.HarvestInterval(), t);
        }
        log.Flush();
      } catch (const storage::StoreUnavailable&) {
        crashed = true;
      }
      EXPECT_TRUE(crashed);
      EXPECT_EQ(flaky->injected_torn_puts(), 1u);
    }
    const std::string torn_key = storage::Manifest::DeltaSegmentKey(kJob, 1, n);
    ASSERT_TRUE(backing->Exists(torn_key));  // the torn prefix IS in the tier

    // First recovery: detect, refuse, report — but leave the tier alone.
    dlrm::DlrmModel restored(SmallModel());
    const auto out = RestoreWithDeltaLog(*backing, kJob, restored, 1);
    EXPECT_EQ(out.replay.last_iteration, n - 1);
    EXPECT_EQ(out.replay.iterations_replayed, n - 1);
    ASSERT_EQ(out.replay.torn_keys.size(), 1u);
    EXPECT_EQ(out.replay.torn_keys[0], torn_key);
    EXPECT_FALSE(out.replay.truncated);
    ExpectModelsEqual(restored, ReferenceModel(n - 1));
    EXPECT_TRUE(backing->Exists(torn_key));

    // Second recovery with truncation: the torn tail is deleted and the log
    // ends at its last sealed segment.
    dlrm::DlrmModel truncated(SmallModel());
    const auto out2 =
        RestoreWithDeltaLog(*backing, kJob, truncated, 1, /*truncate_torn=*/true);
    EXPECT_EQ(out2.replay.last_iteration, n - 1);
    EXPECT_TRUE(out2.replay.truncated);
    EXPECT_FALSE(backing->Exists(torn_key));
    ExpectModelsEqual(truncated, restored);

    // The truncated log is sealed: scrub agrees it is clean.
    pipeline::ScrubReport report;
    ScrubDeltaLog(*backing, kJob, 1, report);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.delta_segments_checked, n - 1);
  }
}

// ------------------------------------------- concurrent write/restore -------

// PR-7 follow-on: a peer restores base + delta tail from the tier while the
// survivor keeps training and streaming — concurrent write/restore on one
// job (TSan-clean in the CI tsan matrix job). Afterward the lineage is
// sound (final restore equals the live trainer) and occupancy parity holds:
// the accounting view and the survey kernel agree byte for byte, delta
// segments included.
TEST(DeltaLog, SurvivorStreamsWhilePeerRestores) {
  constexpr std::uint64_t kIters = 32;
  auto base_store = std::make_shared<storage::InMemoryStore>();
  CheckpointService service(base_store);
  JobConfig jc;
  jc.name = kJob;
  jc.gc = false;
  auto handle = service.OpenJob(jc);

  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  ModifiedRowTracker tracker(model);
  for (int b = 0; b < kWarmupBatches; ++b) TrainStep(model, ds, b);
  (void)tracker.HarvestInterval();
  {
    CheckpointRequest req;
    req.checkpoint_id = 1;
    req.writer = MakeWriter(Quant(quant::Method::kNone));
    req.plan.kind = storage::CheckpointKind::kFull;
    const ModelSnapshot snap = CreateSnapshot(model, kWarmupBatches, kWarmupBatches * 32,
                                              nullptr);
    req.snapshot_fn = [&snap] { return snap; };
    req.reader_state = data::ReaderState{kWarmupBatches, kWarmupBatches * 32}.Encode();
    handle->SubmitRaw(std::move(req)).get();
  }

  DeltaLogConfig dcfg;
  dcfg.base_checkpoint_id = 1;
  dcfg.quant = Quant(quant::Method::kNone);
  auto log = handle->OpenDeltaLog(dcfg);
  EXPECT_EQ(log->config().job, std::string(kJob));

  // The peer: repeated full recoveries racing the survivor's appends. Each
  // replay must land on a consistent prefix — never a torn segment, never a
  // gap (the store stage never puts seq k before k-1 landed).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> restores{0};
  util::Thread peer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      dlrm::DlrmModel replica(SmallModel());
      const auto out = RestoreWithDeltaLog(service.store(), kJob, replica, 1);
      EXPECT_TRUE(out.replay.torn_keys.empty());
      EXPECT_EQ(out.replay.iterations_replayed, out.replay.last_iteration);
      restores.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (std::uint64_t t = 1; t <= kIters; ++t) {
    TrainStep(model, ds, kWarmupBatches + static_cast<int>(t) - 1);
    log->Append(model, tracker.HarvestInterval(), t);
  }
  log->Flush();
  // Make sure at least one full restore raced the appends before stopping.
  while (restores.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  peer = util::Thread();  // join

  // Lineage: a final peer restore sees every iteration and equals the live
  // trainer bit for bit (fp32 passthrough).
  dlrm::DlrmModel replica(SmallModel());
  const auto out = RestoreWithDeltaLog(service.store(), kJob, replica, 1);
  EXPECT_EQ(out.replay.last_iteration, kIters);
  ExpectModelsEqual(model, replica);

  // Occupancy parity: the accounting view (which saw every segment Put) and
  // the survey kernel (which attributes dlog objects to their base) agree.
  log.reset();  // close the stream's stages before surveying
  const JobSurvey survey = SurveyJob(service.store(), kJob);
  EXPECT_GT(survey.dlog_bytes_by_base.at(1), 0u);
  EXPECT_TRUE(survey.orphans.empty());
  const auto stats = service.stats();
  ASSERT_TRUE(stats.jobs.contains(kJob));
  EXPECT_EQ(stats.jobs.at(kJob).store_bytes, survey.total_bytes());
}

// ---------------------------------------------------- on-demand scrub -------

// An on-demand scrub reads the store, not a memo of an earlier scrub: rot
// that lands between two scrubs of an idle job, with no other call, is
// flagged by the next one, because it fetches every chunk, the dense blob
// and every delta segment again.
TEST(DeltaLog, OnDemandScrubReadsEveryObject) {
  auto backing = std::make_shared<storage::InMemoryStore>();
  auto recording = std::make_shared<GetRecordingStore>(backing);

  StreamTrace(*recording, recording, 5, Quant(quant::Method::kSymmetric, 8));

  auto accounting = std::make_shared<storage::AccountingStore>(recording, 0);
  MaintenanceManager manager(accounting, recording);
  manager.ReconcileJob(kJob);

  const auto first = manager.ScrubJobNow(kJob);
  EXPECT_TRUE(first.clean());
  EXPECT_GT(first.chunks_checked, 0u);
  EXPECT_EQ(first.delta_segments_checked, 5u);
  (void)recording->TakeGot();

  // Flip one byte of a chunk and one byte of a delta segment, in place.
  const auto manifest =
      storage::Manifest::Decode(*backing->Get(storage::Manifest::ManifestKey(kJob, 1)));
  ASSERT_FALSE(manifest.chunks.empty());
  ASSERT_FALSE(manifest.dense_key.empty());
  const std::string rotten_chunk = manifest.chunks[0].key;
  const std::string rotten_segment = storage::Manifest::DeltaSegmentKey(kJob, 1, 3);
  for (const std::string& key : {rotten_chunk, rotten_segment}) {
    auto blob = backing->Get(key);
    ASSERT_TRUE(blob.has_value()) << key;
    (*blob)[blob->size() / 2] ^= 0x40;
    backing->Put(key, std::move(*blob));
  }

  const auto second = manager.ScrubJobNow(kJob);
  EXPECT_FALSE(second.clean());
  bool chunk_flagged = false, segment_flagged = false;
  for (const auto& issue : second.issues) {
    chunk_flagged |= issue.key == rotten_chunk;
    segment_flagged |= issue.key == rotten_segment;
  }
  EXPECT_TRUE(chunk_flagged);
  EXPECT_TRUE(segment_flagged);
  EXPECT_FALSE(manager.job_stats(kJob).last_scrub_clean);

  // Every object of the live chain and its log was fetched again.
  const std::vector<std::string> got = recording->TakeGot();
  const auto fetched = [&got](const std::string& key) {
    return std::find(got.begin(), got.end(), key) != got.end();
  };
  for (const auto& chunk : manifest.chunks) EXPECT_TRUE(fetched(chunk.key)) << chunk.key;
  EXPECT_TRUE(fetched(manifest.dense_key));
  const auto segments = backing->List(storage::Manifest::DeltaLogPrefix(kJob, 1));
  EXPECT_EQ(segments.size(), 5u);
  for (const auto& key : segments) EXPECT_TRUE(fetched(key)) << key;
}

// ---------------------------------------------- maintenance lineage ---------

// Base + delta segments are one lineage unit everywhere maintenance looks:
// the survey attributes segment bytes to the base checkpoint (and its
// live/stale fate), GC deletes the log with its base and counts its bytes,
// and a log whose base manifest is gone is orphan debris.
TEST(DeltaLog, MaintenanceTreatsBasePlusLogAsOneLineageUnit) {
  auto store = std::make_shared<storage::InMemoryStore>();
  dlrm::DlrmModel live = StreamTrace(*store, store, 4, Quant(quant::Method::kNone));

  // A second full checkpoint makes lineage 1 (base + its log) stale.
  WriteFullCheckpoint(*store, live, 2, Quant(quant::Method::kNone));

  const JobSurvey survey = SurveyJob(*store, kJob);
  ASSERT_TRUE(survey.dlog_bytes_by_base.contains(1));
  const std::uint64_t dlog_bytes = survey.dlog_bytes_by_base.at(1);
  EXPECT_GT(dlog_bytes, 0u);
  EXPECT_TRUE(survey.orphans.empty());  // referenced, not debris
  EXPECT_EQ(survey.stale, std::vector<std::uint64_t>{1});
  // The stale lineage's footprint includes its delta log.
  EXPECT_GE(survey.bytes_by_checkpoint.at(1), dlog_bytes);
  EXPECT_EQ(survey.stale_bytes, survey.bytes_by_checkpoint.at(1));

  // GC evicts checkpoint 1 — and its delta log goes in the same breath,
  // counted in bytes_freed.
  const GcReport report = GcStore(*store);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].evicted, std::vector<std::uint64_t>{1});
  EXPECT_EQ(report.jobs[0].bytes_freed, survey.bytes_by_checkpoint.at(1));
  EXPECT_TRUE(store->List(storage::Manifest::DeltaLogPrefix(kJob, 1)).empty());
  EXPECT_TRUE(ListDeltaLogBases(*store, kJob).empty());

  // A delta log without a base manifest is debris: surveyed as orphan bytes.
  store->Put(storage::Manifest::DeltaSegmentKey(kJob, 99, 1), {1, 2, 3, 4});
  const JobSurvey after = SurveyJob(*store, kJob);
  ASSERT_EQ(after.orphans.size(), 1u);
  EXPECT_EQ(after.orphans[0], storage::Manifest::DeltaSegmentKey(kJob, 99, 1));
  EXPECT_EQ(after.orphan_bytes, 4u);
}

// Maintenance sizes delta-log segments and orphans with a stat, never a
// download: SurveyJob, startup reconciliation, and a post-commit GC that
// evicts a base together with its log issue no Get of a dlog/ key or of an
// orphan.
TEST(DeltaLog, MaintenanceNeverDownloadsLogsOrOrphansToSizeThem) {
  auto recording = std::make_shared<GetRecordingStore>(std::make_shared<storage::InMemoryStore>());
  dlrm::DlrmModel live = StreamTrace(*recording, recording, 4, Quant(quant::Method::kNone));
  const std::string orphan = storage::Manifest::ChunkKey(kJob, 9, 0, 0, 0);
  recording->Put(orphan, {1, 2, 3});
  const auto downloaded_log_or_orphan = [&] {
    for (const auto& key : recording->TakeGot()) {
      if (key.starts_with(storage::Manifest::DeltaLogRoot(kJob)) || key == orphan) return key;
    }
    return std::string();
  };
  recording->TakeGot();

  const JobSurvey survey = SurveyJob(*recording, kJob);
  EXPECT_GT(survey.dlog_bytes_by_base.at(1), 0u);
  EXPECT_EQ(survey.orphans, std::vector<std::string>{orphan});
  EXPECT_EQ(survey.orphan_bytes, 3u);
  EXPECT_EQ(downloaded_log_or_orphan(), "");

  CheckpointService service(recording);  // reconciles on start
  EXPECT_EQ(service.stats().jobs.at(kJob).store_bytes, survey.total_bytes());
  EXPECT_EQ(downloaded_log_or_orphan(), "");

  // A new full strands base 1 and its log; the post-commit GC deletes both.
  JobConfig cfg;
  cfg.name = kJob;
  cfg.model = &live;
  cfg.quantize = false;
  auto handle = service.OpenJob(cfg);
  handle->SetNextCheckpointId(2);
  IntervalSubmission sub;
  sub.interval_dirty = handle->tracker().HarvestInterval();
  sub.snapshot_fn = [&live] { return CreateSnapshot(live, 9, 288, nullptr); };
  handle->Submit(std::move(sub)).future.get();
  EXPECT_FALSE(recording->Exists(storage::Manifest::ManifestKey(kJob, 1)));
  EXPECT_TRUE(recording->List(storage::Manifest::DeltaLogPrefix(kJob, 1)).empty());
  EXPECT_EQ(downloaded_log_or_orphan(), "");
}

// Scheduled compaction rides the SimClock subscriber machinery (the same
// idiom as the maintenance scrub schedule): advancing simulated time past
// the interval folds the raw segments in the background, and replay is
// unchanged.
TEST(DeltaLog, ScheduledCompactionOnSimClock) {
  constexpr std::uint64_t kIters = 8;
  auto store = std::make_shared<storage::InMemoryStore>();

  dlrm::DlrmModel model(SmallModel());
  data::SyntheticDataset ds(MatchingDataset());
  ModifiedRowTracker tracker(model);
  for (int b = 0; b < kWarmupBatches; ++b) TrainStep(model, ds, b);
  (void)tracker.HarvestInterval();
  WriteFullCheckpoint(*store, model, 1, Quant(quant::Method::kNone));

  util::SimClock clock;
  pipeline::StageExecutor exec;
  DeltaLogConfig cfg;
  cfg.job = kJob;
  cfg.base_checkpoint_id = 1;
  cfg.quant = Quant(quant::Method::kNone);
  cfg.compaction_clock = &clock;
  cfg.compaction_interval = 100;
  cfg.compaction_min_segments = 4;
  {
    DeltaLog log(store, exec, cfg);
    for (std::uint64_t t = 1; t <= kIters; ++t) {
      TrainStep(model, ds, kWarmupBatches + static_cast<int>(t) - 1);
      log.Append(model, tracker.HarvestInterval(), t);
    }
    log.Flush();
    clock.Advance(101);  // due: the subscriber enqueues a compaction
    // The fold runs on the shared executor's workers; wait for it to land.
    for (int i = 0; i < 100000 && log.stats().compactions == 0; ++i) {
      std::this_thread::yield();
    }
    const auto stats = log.stats();
    EXPECT_GE(stats.compactions, 1u);
    EXPECT_GE(stats.segments_folded, 4u);
  }
  dlrm::DlrmModel restored(SmallModel());
  const auto out = RestoreWithDeltaLog(*store, kJob, restored, 1);
  EXPECT_TRUE(out.replay.used_compacted);
  EXPECT_EQ(out.replay.last_iteration, kIters);
  ExpectModelsEqual(model, restored);
}

}  // namespace
}  // namespace cnr::core
