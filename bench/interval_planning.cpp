// Checkpoint-interval planning (paper §4.3): the checkpoint frequency is
// bounded by the write bandwidth to remote storage; the interval in turn
// bounds the re-training work lost per failure. This bench sweeps the
// interval and reports both sides of the trade-off for a paper-scale model,
// with and without Check-N-Run's reductions — showing why the 6-17x
// bandwidth cut is what makes 30-minute (and shorter) intervals affordable
// at fleet scale.
#include <cstdio>

#include "bench_common.h"
#include "sim/cluster.h"
#include "sim/failure_trace.h"

using namespace cnr;

int main() {
  bench::PrintHeader("Planning",
                     "checkpoint interval vs bandwidth need and wasted work "
                     "(paper-scale analytic model)",
                     "shorter intervals need proportionally more bandwidth; "
                     "Check-N-Run's ~12x smaller checkpoints move the frontier");

  // A 10 TB model checkpointed over a shared per-job storage link.
  const double model_tb = 10.0;
  const double model_bytes = model_tb * 1e12;
  const double cnr_reduction = 12.0;  // Fig 17, L<=1 operating point

  util::Rng rng(3);
  std::printf("%10s %22s %22s %18s\n", "interval", "full-fp32 BW (GB/s)",
              "Check-N-Run BW (GB/s)", "wasted h / 72h job");
  for (const double minutes : {5.0, 10.0, 20.0, 30.0, 60.0, 120.0}) {
    // Bandwidth so that writing completes within one interval (non-overlap
    // rule: a checkpoint must finish before the next one starts).
    const double seconds = minutes * 60;
    const double full_bw = model_bytes / seconds / 1e9;
    const double cnr_bw = full_bw / cnr_reduction;
    util::Rng run_rng(rng.Next());
    const auto outcome =
        sim::SimulateRecovery(run_rng, 72.0, minutes / 60.0, 0.05, 0.1);
    std::printf("%7.0f min %22.2f %22.2f %18.2f\n", minutes, full_bw, cnr_bw,
                outcome.wasted_hours);
  }

  std::printf("\nfleet view: hundreds of concurrent jobs multiply these bandwidths;\n"
              "at 30-minute intervals a 10 TB model needs %.1f GB/s per job raw but\n"
              "only %.2f GB/s with Check-N-Run — the difference between saturating\n"
              "and comfortably fitting the storage tier (paper §4.3, §6.3).\n",
              model_bytes / 1800 / 1e9, model_bytes / 1800 / 1e9 / cnr_reduction);
  return 0;
}
