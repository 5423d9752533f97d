// Fig 13 reproduction: total checkpoint quantization latency with adaptive
// asymmetric quantization, as a function of the search ratio, at 25 and 45
// bins.
//
// Expected shape: latency grows with ratio (a wider search range means more
// greedy iterations); the 45-bin curve sits above the 25-bin curve.
#include <cstdio>

#include "bench_common.h"
#include "core/snapshot.h"
#include "core/writer.h"
#include "storage/object_store.h"

using namespace cnr;

namespace {

double QuantizeLatencySeconds(const core::ModelSnapshot& snap, int bins, double ratio) {
  storage::InMemoryStore store;
  core::CheckpointPlan plan;
  plan.kind = storage::CheckpointKind::kFull;
  core::WriterConfig wcfg;
  wcfg.job = "lat";
  wcfg.chunk_rows = 1024;
  wcfg.quant.method = quant::Method::kAdaptiveAsymmetric;
  wcfg.quant.bits = 4;
  wcfg.quant.num_bins = bins;
  wcfg.quant.ratio = ratio;
  const auto result = core::WriteCheckpoint(store, snap, plan, wcfg, 1, {});
  return static_cast<double>(result.timings.encode_us) / 1e6;
}

}  // namespace

int main() {
  bench::PrintHeader("Fig 13",
                     "checkpoint quantization latency vs ratio (25 and 45 bins)",
                     "latency grows with ratio; 45 bins above 25 bins");

  const dlrm::DlrmModel model = bench::TrainedQuantModel(150);
  const core::ModelSnapshot snap = core::CreateSnapshot(model, 0, 0, nullptr);

  std::printf("%8s %16s %16s\n", "ratio", "25 bins (s)", "45 bins (s)");
  for (const double ratio : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    std::printf("%8.1f %16.3f %16.3f\n", ratio, QuantizeLatencySeconds(snap, 25, ratio),
                QuantizeLatencySeconds(snap, 45, ratio));
  }
  std::printf("\n(note: in production this latency is hidden by pipelining — chunks are\n"
              " stored while later chunks quantize; see bench/ablation_pipeline)\n");
  return 0;
}
