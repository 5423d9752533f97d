// Fig 12 reproduction: total checkpoint quantization latency with adaptive
// asymmetric quantization, as a function of the greedy algorithm's bin count
// (ratio = 1.0, single background CPU process).
//
// Expected shape: latency grows roughly linearly with bins (each bin adds a
// greedy iteration costing two trial quantizations per row); the naive
// asymmetric reference is at least ~2x cheaper than any adaptive setting.
// Absolute numbers are laptop-scale; the paper's checkpoint is ~6 orders of
// magnitude larger and peaks at ~600 s with 50 bins.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/snapshot.h"
#include "core/writer.h"
#include "storage/object_store.h"

using namespace cnr;

namespace {

double QuantizeLatencySeconds(const core::ModelSnapshot& snap, const quant::QuantConfig& qc) {
  storage::InMemoryStore store;
  core::CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  core::WriterConfig wcfg;
  wcfg.job = "lat";
  wcfg.chunk_rows = 1024;
  wcfg.quant = qc;
  const auto result = core::WriteCheckpoint(store, snap, plan, wcfg, 1, {});
  return static_cast<double>(result.timings.encode_us) / 1e6;
}

}  // namespace

int main() {
  bench::PrintHeader("Fig 12",
                     "checkpoint quantization latency vs num_bins (adaptive, 4-bit)",
                     "latency grows ~linearly with bins; adaptive >= 2x naive");

  const dlrm::DlrmModel model = bench::TrainedQuantModel(150);
  const core::ModelSnapshot snap = core::CreateSnapshot(model, 0, 0, nullptr);

  quant::QuantConfig naive;
  naive.method = quant::Method::kAsymmetric;
  naive.bits = 4;
  const double naive_s = QuantizeLatencySeconds(snap, naive);
  std::printf("naive asymmetric reference: %.3f s\n\n", naive_s);

  std::printf("%6s %14s %18s\n", "bins", "latency (s)", "vs naive");
  for (const int bins : {5, 10, 15, 20, 25, 30, 35, 40, 45, 50}) {
    quant::QuantConfig cfg;
    cfg.method = quant::Method::kAdaptiveAsymmetric;
    cfg.bits = 4;
    cfg.num_bins = bins;
    cfg.ratio = 1.0;
    const double s = QuantizeLatencySeconds(snap, cfg);
    std::printf("%6d %14.3f %17.1fx\n", bins, s, s / naive_s);
  }
  return 0;
}
