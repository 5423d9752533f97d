// Per-iteration delta streaming (core::DeltaLog) vs interval incremental
// checkpointing on the fig15-style workload: recovery-point objective and
// write amplification, from ONE shared training trace.
//
// The trade the paper's interval design leaves on the table (and the
// Checkmate/CPR line of work chases): streaming every iteration's touched
// rows shrinks the RPO from a full interval to ~1 iteration, at the cost of
// re-shipping hot rows every iteration instead of once per interval. This
// bench measures both sides and gates the regression corridor:
//
//   - measured RPO bound (stats().max_unsynced_iterations) <= 1 iteration
//   - delta-log bytes <= 2.5x the interval policy's incremental bytes
//   - replay recovers every streamed iteration, bit-identically (fp32)
//
// Exit code is non-zero when any gate fails, so CI's bench-smoke step is a
// real regression gate, not a print-and-forget.
//
// Usage: bench_delta_log [smoke]   ("smoke" = toy sizes, for CI)
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench_common.h"
#include "core/delta_log.h"
#include "core/pipeline/executor.h"
#include "core/recovery.h"
#include "core/snapshot.h"
#include "core/tracking.h"
#include "core/writer.h"
#include "data/reader.h"
#include "storage/object_store.h"

using namespace cnr;

namespace {

constexpr char kJob[] = "dlog";

core::WriterConfig PlainWriter() {
  core::WriterConfig cfg;
  cfg.job = kJob;
  cfg.chunk_rows = 1024;
  cfg.quant.method = quant::Method::kNone;  // isolate the streaming dimension
  return cfg;
}

std::uint64_t WriteSnapshot(storage::ObjectStore& store, const dlrm::DlrmModel& model,
                            std::uint64_t id, core::CheckpointPlan plan) {
  const core::ModelSnapshot snap = core::CreateSnapshot(model, id, id * 64, nullptr);
  data::ReaderState rs;
  rs.next_batch_id = id;
  rs.next_sample = id * 64;
  const auto result =
      core::WriteCheckpoint(store, snap, plan, PlainWriter(), id, rs.Encode());
  return result.bytes_written;
}

void MergeDirty(core::DirtySets& acc, const core::DirtySets& d) {
  if (acc.size() < d.size()) acc.resize(d.size());
  for (std::size_t t = 0; t < d.size(); ++t) {
    if (acc[t].size() < d[t].size()) acc[t].resize(d[t].size());
    for (std::size_t s = 0; s < d[t].size(); ++s) {
      if (acc[t][s].size() != d[t][s].size()) acc[t][s] = d[t][s];
      else acc[t][s] |= d[t][s];
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  const int iterations = smoke ? 60 : 240;
  // Iterations per interval checkpoint. The delta log re-ships a hot row on
  // every touch while the interval writer ships it once per interval, so
  // write amplification grows with the interval length; 10 iterations keeps
  // the comparison at a 10x RPO gap, which is what the gate corridors.
  const int interval = 10;
  const int warmup = 5;

  bench::PrintHeader(
      "Delta log", "per-iteration streaming vs interval incrementals (RPO / write amp)",
      "RPO <= 1 iteration; delta bytes <= 2.5x interval bytes; exact replay");

  dlrm::DlrmModel model(bench::BenchModel());
  data::SyntheticDataset ds(bench::BenchDataset());
  core::ModifiedRowTracker tracker(model);
  for (int b = 0; b < warmup; ++b) {
    model.TrainBatch(ds.GetBatch(b, static_cast<std::uint64_t>(b) * 64, 64));
  }
  (void)tracker.HarvestInterval();  // warmup dirt belongs to the base

  // Both paths extend the same base checkpoint (id 1) in separate stores.
  auto delta_store = std::make_shared<storage::InMemoryStore>();
  auto interval_store = std::make_shared<storage::InMemoryStore>();
  core::CheckpointPlan full;
  full.kind = storage::CheckpointKind::kFull;
  const std::uint64_t base_bytes = WriteSnapshot(*delta_store, model, 1, full);
  WriteSnapshot(*interval_store, model, 1, full);

  // One trace, two consumers: every iteration's harvest feeds the delta log
  // directly and accumulates into the current interval's dirty set.
  core::pipeline::StageExecutor exec;
  core::DeltaLogConfig cfg;
  cfg.job = kJob;
  cfg.base_checkpoint_id = 1;
  cfg.quant.method = quant::Method::kNone;
  core::DeltaLog log(delta_store, exec, cfg);

  std::uint64_t interval_bytes = 0;
  std::uint64_t prev_id = 1, next_id = 2;
  core::DirtySets acc;
  for (int t = 1; t <= iterations; ++t) {
    const int b = warmup + t - 1;
    model.TrainBatch(ds.GetBatch(b, static_cast<std::uint64_t>(b) * 64, 64));
    const core::DirtySets dirty = tracker.HarvestInterval();
    log.Append(model, dirty, static_cast<std::uint64_t>(t));
    MergeDirty(acc, dirty);
    if (t % interval == 0) {
      core::CheckpointPlan plan;
      plan.kind = storage::CheckpointKind::kIncremental;
      plan.parent_id = prev_id;
      plan.rows = std::move(acc);
      acc = core::DirtySets{};
      interval_bytes += WriteSnapshot(*interval_store, model, next_id, std::move(plan));
      prev_id = next_id++;
    }
  }
  log.Flush();
  const core::DeltaLogStats stats = log.stats();

  // Replay check: a fresh model recovered from base + log must reach the
  // live trainer bit for bit (fp32 passthrough), at the last iteration.
  dlrm::DlrmModel restored(bench::BenchModel());
  const auto out = core::RestoreWithDeltaLog(*delta_store, kJob, restored, 1);

  const double amp = interval_bytes
                         ? static_cast<double>(stats.segment_bytes) /
                               static_cast<double>(interval_bytes)
                         : 0.0;
  std::printf("trace: %d iterations, interval = %d, base checkpoint = %llu KiB\n\n",
              iterations, interval, static_cast<unsigned long long>(base_bytes / 1024));
  std::printf("  %-34s %12s %10s\n", "path", "bytes", "RPO");
  std::printf("  %-34s %12llu %7d it\n", "interval incrementals",
              static_cast<unsigned long long>(interval_bytes), interval);
  std::printf("  %-34s %12llu %7llu it   (%zu segments)\n", "delta log (streamed)",
              static_cast<unsigned long long>(stats.segment_bytes),
              static_cast<unsigned long long>(stats.max_unsynced_iterations),
              static_cast<std::size_t>(stats.segments_sealed));
  std::printf("\n  write amplification: %.2fx (gate <= 2.50x)\n", amp);
  std::printf("  replay: %llu/%d iterations, %llu rows, bit-identical: %s\n",
              static_cast<unsigned long long>(out.replay.iterations_replayed), iterations,
              static_cast<unsigned long long>(out.replay.rows_applied),
              model.StateEquals(restored) ? "yes" : "NO");

  bool ok = true;
  if (stats.max_unsynced_iterations > 1) {
    std::printf("FAIL: measured RPO bound %llu > 1 iteration\n",
                static_cast<unsigned long long>(stats.max_unsynced_iterations));
    ok = false;
  }
  if (amp > 2.5) {
    std::printf("FAIL: write amplification %.2fx > 2.50x\n", amp);
    ok = false;
  }
  if (out.replay.last_iteration != static_cast<std::uint64_t>(iterations) ||
      !model.StateEquals(restored)) {
    std::printf("FAIL: replay did not reproduce the trainer state\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("\nPASS\n");
  return 0;
}
