// Staged restore ablation: the Resolve → Fetch → Decode → Apply pipeline
// (core/pipeline/restore.h) against the synchronous facade (RestoreModel) on
// the same baseline + 3-consecutive-incremental chain.
//
// Expectation: the facade's restore wall equals the sum of its stage walls
// (it is serial by construction); the pipeline's wall is *less* than the sum
// of its stage walls because chunk fetches overlap de-quantization and
// apply. The gap is the recovery-time win — restore is on the critical path
// of resuming training after a failure (paper §5.1), so it shows up 1:1 in
// time-to-resume.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/recovery.h"
#include "core/tracking.h"
#include "core/writer.h"
#include "storage/latency_store.h"

using namespace cnr;

namespace {

double Ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

void PrintRun(const char* label, const core::RestoreResult& rr) {
  const auto& t = rr.timings;
  std::printf("%-9s: wall %8.2f ms | resolve %6.2f  fetch %8.2f  decode %7.2f  "
              "apply %6.2f | stage sum %8.2f ms\n",
              label, Ms(t.restore_wall_us), Ms(t.resolve_us), Ms(t.fetch_us), Ms(t.decode_us),
              Ms(t.apply_us), Ms(t.StageSumUs()));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "restore_pipeline", "staged restore (fetch -> decode -> apply) vs synchronous facade",
      "pipelined restore wall < sum of its stage walls (fetch overlaps decode+apply)");

  // Build the chain: full baseline + 3 consecutive incrementals, 4-bit
  // asymmetric (decode does real de-quantization work per row).
  dlrm::DlrmModel model(bench::BenchModel());
  data::SyntheticDataset ds(bench::BenchDataset());
  core::ModifiedRowTracker tracker(model);
  auto inner = std::make_shared<storage::InMemoryStore>();
  // Real sleeps per Get — the remote round-trip the pipeline hides behind
  // decode/apply work — so the walls printed below are honest.
  const auto link_latency = std::chrono::microseconds(300);
  storage::LatencyInjectedStore store(inner, link_latency);

  core::WriterConfig wcfg;
  wcfg.job = "bench";
  wcfg.chunk_rows = 512;
  wcfg.quant.method = quant::Method::kAsymmetric;
  wcfg.quant.bits = 4;

  for (std::uint64_t id = 1; id <= 4; ++id) {
    for (int b = 0; b < 6; ++b) {
      const auto g = (id - 1) * 6 + b;
      model.TrainBatch(ds.GetBatch(g, g * 64ull, 64));
    }
    core::CheckpointPlan plan;
    if (id == 1) {
      plan.kind = storage::CheckpointKind::kFull;
      (void)tracker.HarvestInterval();
    } else {
      plan.kind = storage::CheckpointKind::kIncremental;
      plan.parent_id = id - 1;
      plan.rows = tracker.HarvestInterval();
    }
    const core::ModelSnapshot snap = core::CreateSnapshot(model, id * 6, id * 6 * 64);
    core::WriteCheckpoint(*inner, snap, plan, wcfg, id, data::ReaderState{}.Encode());
  }

  std::size_t total_chunks = 0;
  for (const auto cid : core::ResolveChain(*inner, "bench", 4)) {
    total_chunks += core::LoadManifest(*inner, "bench", cid).chunks.size();
  }
  std::printf("chain: baseline + 3 consecutive incrementals, %zu chunks, "
              "link latency %lld us/get\n\n",
              total_chunks, static_cast<long long>(link_latency.count()));

  // Facade: serial fetch -> decode -> apply, one chunk at a time.
  dlrm::DlrmModel facade_model(bench::BenchModel());
  const auto facade = core::RestoreModel(store, "bench", facade_model);
  PrintRun("facade", facade);

  // Pipelined: fetches overlap decode and apply.
  core::pipeline::RestoreConfig rcfg;
  rcfg.fetch_threads = 4;
  rcfg.decode_threads = 2;
  dlrm::DlrmModel pipe_model(bench::BenchModel());
  const auto pipelined = core::RestoreModelPipelined(store, "bench", pipe_model, {}, rcfg);
  PrintRun("pipelined", pipelined);

  const bool parity = facade_model.StateEquals(pipe_model);
  const bool overlap = pipelined.timings.restore_wall_us < pipelined.timings.StageSumUs();
  std::printf("\nparity (pipelined == facade, bit-exact): %s\n", parity ? "yes" : "NO");
  std::printf("overlap (pipelined wall < its stage sum): %s (%.2fx)\n",
              overlap ? "yes" : "NO",
              static_cast<double>(pipelined.timings.StageSumUs()) /
                  static_cast<double>(pipelined.timings.restore_wall_us));
  std::printf("speedup over facade: %.2fx\n",
              static_cast<double>(facade.timings.restore_wall_us) /
                  static_cast<double>(pipelined.timings.restore_wall_us));
  return parity && overlap ? 0 : 1;
}
