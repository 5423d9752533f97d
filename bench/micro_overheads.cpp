// §6.1 microbenchmarks (google-benchmark): the overheads Check-N-Run claims
// are negligible, measured on the bench-scale system plus the paper-scale
// analytic model.
//
//   - snapshot stall (wall) and its fraction of a checkpoint interval,
//   - modified-row tracking overhead on the training loop (paper: < 1%),
//   - quantization throughput per method (k-means orders of magnitude
//     slower — why the paper rejects it),
//   - generic compression on embedding bytes (paper: Zstandard gained <= 7%).
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_common.h"
#include "core/snapshot.h"
#include "core/tracking.h"
#include "quant/quantizer.h"
#include "sim/cluster.h"
#include "storage/codec.h"

using namespace cnr;

namespace {

dlrm::DlrmModel& SharedModel() {
  static dlrm::DlrmModel model = bench::TrainedBenchModel(50);
  return model;
}

void BM_SnapshotStall(benchmark::State& state) {
  auto& model = SharedModel();
  for (auto _ : state) {
    auto snap = core::CreateSnapshot(model, 0, 0);
    benchmark::DoNotOptimize(snap.StateBytes());
  }
  state.counters["state_MB"] =
      static_cast<double>(core::CreateSnapshot(model, 0, 0, nullptr).StateBytes()) / 1e6;
}
BENCHMARK(BM_SnapshotStall)->Unit(benchmark::kMillisecond);

void BM_TrainBatch(benchmark::State& state) {
  const bool tracked = state.range(0) != 0;
  dlrm::DlrmModel model(bench::BenchModel());
  data::SyntheticDataset ds(bench::BenchDataset());
  std::unique_ptr<core::ModifiedRowTracker> tracker;
  if (tracked) tracker = std::make_unique<core::ModifiedRowTracker>(model);
  std::uint64_t b = 0;
  for (auto _ : state) {
    model.TrainBatch(ds.GetBatch(b, b * 64, 64));
    ++b;
  }
  state.SetLabel(tracked ? "with tracking (paper: <1% overhead)" : "no tracking");
}
BENCHMARK(BM_TrainBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_QuantizeRow(benchmark::State& state) {
  const auto method = static_cast<quant::Method>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  util::Rng rng(1);
  std::vector<float> row(64);
  for (auto& v : row) v = 0.1f * static_cast<float>(rng.NextGaussian());
  quant::QuantConfig cfg;
  cfg.method = method;
  cfg.bits = bits;
  cfg.num_bins = 25;
  cfg.ratio = 1.0;
  cfg.kmeans_iters = 15;
  for (auto _ : state) {
    util::Writer w;
    quant::EncodeRow(w, row, cfg, rng);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetLabel(quant::MethodName(method) + "/" + std::to_string(bits) + "b");
}
BENCHMARK(BM_QuantizeRow)
    ->Args({static_cast<int>(quant::Method::kSymmetric), 4})
    ->Args({static_cast<int>(quant::Method::kAsymmetric), 4})
    ->Args({static_cast<int>(quant::Method::kAdaptiveAsymmetric), 4})
    ->Args({static_cast<int>(quant::Method::kKMeans), 4})
    ->Args({static_cast<int>(quant::Method::kAsymmetric), 2})
    ->Args({static_cast<int>(quant::Method::kAdaptiveAsymmetric), 2});

void BM_GenericCompression(benchmark::State& state) {
  // The paper's negative result: byte-level lossless compression barely
  // shrinks trained fp32 embeddings (Zstandard managed <= 7%). Arg selects
  // the codec: 0 = delta+RLE, 1 = per-plane canonical Huffman.
  auto& model = SharedModel();
  const auto snap = core::CreateSnapshot(model, 0, 0, nullptr);
  std::vector<std::uint8_t> bytes(snap.shards[0][0].weights.size() * sizeof(float));
  std::memcpy(bytes.data(), snap.shards[0][0].weights.data(), bytes.size());
  storage::BytePlaneCodec rle;
  storage::HuffmanPlaneCodec huffman;
  storage::Codec& codec =
      state.range(0) == 0 ? static_cast<storage::Codec&>(rle) : huffman;
  std::size_t out_size = 0;
  for (auto _ : state) {
    const auto compressed = codec.Compress(bytes);
    out_size = compressed.size();
    benchmark::DoNotOptimize(compressed.data());
  }
  state.SetLabel(codec.Name());
  state.counters["reduction_%"] =
      100.0 * (1.0 - static_cast<double>(out_size) / static_cast<double>(bytes.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_GenericCompression)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Paper-scale analytics (§6.1): the bench-scale wall numbers above do not
  // transfer; these do.
  sim::ClusterModel cluster{sim::ClusterConfig{}};
  const std::uint64_t model_bytes = 10ull << 40;  // a 10 TB production model
  std::printf("\n--- paper-scale analytic model (16 nodes x 8 GPUs, 10 TB model) ---\n");
  std::printf("snapshot stall: %.1f s (paper: < 7 s)\n",
              static_cast<double>(cluster.SnapshotStall(model_bytes)) / util::kSecond);
  std::printf("stall fraction @ 30-min interval: %.3f%% (paper: < 0.4%%)\n",
              100.0 * cluster.StallFraction(model_bytes, 30 * util::kMinute));
  std::printf("tracking overhead: %.1f%% of iteration time (paper: ~1%%, hidden "
              "under AlltoAll)\n",
              100.0 * cluster.tracking_overhead_fraction());
  return 0;
}
