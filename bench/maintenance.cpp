// Maintenance-plane bench: parallel vs serial store scrub.
//
// The background self-scrub (core::MaintenanceManager) re-reads every chunk
// of a job's live chain and cross-checks CRCs, row counts, and sizes — on a
// remote tier that is fetch-latency-bound work, which is why ScrubChain was
// taught to run through the restore pipeline's fetch/decode worker shape
// (pipeline::ScrubChainParallel). This bench measures the wall-clock speedup
// on a latency-injected store and asserts the two scrubbers reach identical
// verdicts (the acceptance criterion of the maintenance PR): first on a
// clean chain, then with three kinds of planted damage (bit rot, a missing
// chunk, a truncated dense blob).
//
// A second row times post-commit GC: an 8-shard job writes coordinated
// cuts onto a far tier with a modeled round trip, and each cut's Wait()
// (which runs the job's GC) is printed with the far Gets it issued. It is a
// timing printout; ShardedCheckpoint.CutGcReadsNoManifest is the test that
// a cut's GC reads no manifest back.
//
// Exit code is non-zero on any verdict mismatch, so CI's bench-smoke step
// doubles as a parity check.
//
// Usage: bench_maintenance [smoke]   ("smoke" = toy sizes, for CI)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/maintenance.h"
#include "core/service.h"
#include "core/sharded_checkpoint.h"
#include "data/synthetic.h"
#include "dlrm/model.h"
#include "storage/latency_store.h"

using namespace cnr;
using namespace std::chrono_literals;

namespace {

core::ModelSnapshot MakeSnapshot(std::size_t rows) {
  core::ModelSnapshot snap;
  snap.batches_trained = 1;
  snap.samples_trained = 32;
  snap.shards.resize(1);
  for (std::uint32_t s = 0; s < 2; ++s) {
    core::ShardSnapshot shard;
    shard.table_id = 0;
    shard.shard_id = s;
    shard.num_rows = rows;
    shard.dim = 8;
    shard.weights.assign(shard.num_rows * shard.dim, 0.5f);
    shard.adagrad.assign(shard.num_rows, 1.0f);
    snap.shards[0].push_back(std::move(shard));
  }
  snap.dense_blob.assign(64, 3);
  return snap;
}

core::CheckpointRequest MakeRequest(const std::string& job, std::uint64_t id,
                                    std::size_t rows) {
  core::CheckpointRequest req;
  req.checkpoint_id = id;
  req.writer.job = job;
  req.writer.chunk_rows = 16;
  req.writer.quant.method = quant::Method::kNone;
  req.plan.kind = storage::CheckpointKind::kFull;
  req.snapshot_fn = [rows] { return MakeSnapshot(rows); };
  return req;
}

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(d).count();
}

bool ReportsAgree(const core::pipeline::ScrubReport& serial,
                  const core::pipeline::ScrubReport& parallel, const char* label) {
  const bool ok = serial.chain == parallel.chain &&
                  serial.chunks_checked == parallel.chunks_checked &&
                  serial.rows_checked == parallel.rows_checked &&
                  serial.bytes_checked == parallel.bytes_checked &&
                  serial.issues == parallel.issues;
  if (!ok) {
    std::fprintf(stderr,
                 "VERDICT MISMATCH (%s): serial %zu issue(s) / %zu chunks, parallel %zu "
                 "issue(s) / %zu chunks\n",
                 label, serial.issues.size(), serial.chunks_checked, parallel.issues.size(),
                 parallel.chunks_checked);
  }
  return ok;
}

// The post-commit GC row.
void PostCommitGcRow(bool smoke) {
  const auto far_latency = smoke ? 200us : 2000us;
  auto far = std::make_shared<storage::LatencyInjectedStore>(
      std::make_shared<storage::InMemoryStore>(), far_latency, far_latency);

  dlrm::ModelConfig mcfg;
  mcfg.num_dense = 4;
  mcfg.embedding_dim = 8;
  mcfg.table_rows = {1024, 512};
  mcfg.bottom_hidden = {16};
  mcfg.top_hidden = {16};
  mcfg.num_shards = 8;
  dlrm::DlrmModel model(mcfg);
  data::DatasetConfig dcfg;
  dcfg.num_dense = 4;
  dcfg.tables = {{1024, 2, 1.1}, {512, 1, 1.05}};
  data::SyntheticDataset ds(dcfg);

  core::ServiceConfig scfg;
  scfg.encode_threads = 2;
  scfg.store_threads = 2;
  core::CheckpointService service(far, scfg);
  core::ShardedJobConfig jcfg;  // intermittent policy, GC keeping one cut
  jcfg.name = "cuts";
  jcfg.quantize = false;
  jcfg.chunk_rows = 64;
  core::ShardedJobHandle handle(service, model, jcfg);

  const int cuts = smoke ? 6 : 12;
  std::printf("post-commit GC bench: %zu-shard job, %d cuts, far tier %lld us/op\n",
              handle.num_shards(), cuts, static_cast<long long>(far_latency.count()));
  for (int c = 1; c <= cuts; ++c) {
    const auto batch = static_cast<std::uint64_t>(c);
    model.TrainBatch(ds.GetBatch(batch, batch * 32, 32));
    core::CutTicket ticket = handle.SubmitCut(batch, batch * 32);
    const std::uint64_t gets_before = far->delayed_gets();
    const auto t0 = std::chrono::steady_clock::now();
    const core::CutResult cut = ticket.Wait();
    const auto wall = std::chrono::steady_clock::now() - t0;
    const std::uint64_t gets = far->delayed_gets() - gets_before;
    std::printf("  cut %2d: Wait() %8.2f ms | far gets %3llu%s\n", c, Ms(wall),
                static_cast<unsigned long long>(gets), cut.committed ? "" : " | NOT COMMITTED");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  // 2 shards x rows / 16 rows-per-chunk chunks per checkpoint; one full plus
  // `incrementals` fulls (gc off) leaves a multi-checkpoint store, chain of 1.
  const std::size_t rows = smoke ? 256 : 4096;
  const auto get_latency = smoke ? 100us : 300us;
  const std::string job = "scrubbed";

  auto base = std::make_shared<storage::InMemoryStore>();
  {
    core::ServiceConfig cfg;
    cfg.encode_threads = 4;
    cfg.store_threads = 4;
    core::CheckpointService service(base, cfg);
    core::JobConfig jc;
    jc.name = job;
    jc.gc = false;
    auto handle = service.OpenJob(std::move(jc));
    handle->SubmitRaw(MakeRequest(job, 1, rows)).get();
    handle->Drain();
  }
  const std::size_t chunks = 2 * rows / 16;

  // Scrub through a latency-injected view: every Get pays the simulated
  // remote round trip, so the serial scrubber pays them back to back while
  // the parallel one overlaps fetches across workers.
  storage::LatencyInjectedStore store(base, get_latency);
  core::pipeline::ScrubConfig fanout;
  fanout.fetch_threads = 8;
  fanout.decode_threads = 2;

  std::printf("maintenance scrub bench: %zu chunks, %lld us/get, fetch fan-out %zu\n",
              chunks, static_cast<long long>(get_latency.count()), fanout.fetch_threads);

  const auto t0 = std::chrono::steady_clock::now();
  const auto serial_clean = core::pipeline::ScrubChain(store, job, 1);
  const auto serial_wall = std::chrono::steady_clock::now() - t0;

  const auto t1 = std::chrono::steady_clock::now();
  const auto parallel_clean = core::pipeline::ScrubChainParallel(store, job, 1, fanout);
  const auto parallel_wall = std::chrono::steady_clock::now() - t1;

  if (!ReportsAgree(serial_clean, parallel_clean, "clean chain")) return 1;
  if (!serial_clean.clean()) {
    std::fprintf(stderr, "expected a clean chain before planting damage\n");
    return 1;
  }
  std::printf("  clean chain:    serial %8.2f ms | parallel %8.2f ms | speedup %.2fx\n",
              Ms(serial_wall), Ms(parallel_wall),
              Ms(serial_wall) / std::max(Ms(parallel_wall), 1e-9));

  // Plant three kinds of damage and re-compare verdicts.
  const auto manifest =
      storage::Manifest::Decode(*base->Get(storage::Manifest::ManifestKey(job, 1)));
  auto rotten = *base->Get(manifest.chunks[0].key);
  rotten[rotten.size() / 2] ^= 0x20;  // bit rot: CRC mismatch
  base->Put(manifest.chunks[0].key, std::move(rotten));
  base->Delete(manifest.chunks[1].key);  // missing chunk
  base->Put(manifest.dense_key, {1});    // truncated dense blob

  const auto t2 = std::chrono::steady_clock::now();
  const auto serial_rot = core::pipeline::ScrubChain(store, job, 1);
  const auto serial_rot_wall = std::chrono::steady_clock::now() - t2;
  const auto t3 = std::chrono::steady_clock::now();
  const auto parallel_rot = core::pipeline::ScrubChainParallel(store, job, 1, fanout);
  const auto parallel_rot_wall = std::chrono::steady_clock::now() - t3;

  if (!ReportsAgree(serial_rot, parallel_rot, "damaged chain")) return 1;
  if (serial_rot.clean()) {
    std::fprintf(stderr, "expected the planted damage to be found\n");
    return 1;
  }
  std::printf("  damaged chain:  serial %8.2f ms | parallel %8.2f ms | %zu issue(s) found"
              " by both\n",
              Ms(serial_rot_wall), Ms(parallel_rot_wall), serial_rot.issues.size());

  const double speedup = Ms(serial_wall) / std::max(Ms(parallel_wall), 1e-9);
  if (!smoke && speedup < 2.0) {
    // 8 fetch workers against a 300 us/get store should easily clear 2x;
    // failing loudly keeps the parallel path honest between PRs.
    std::fprintf(stderr, "parallel scrub speedup %.2fx < 2x — regression?\n", speedup);
    return 1;
  }
  std::printf("  verdict parity: OK (%zu chunks checked, reports identical)\n",
              serial_rot.chunks_checked);
  PostCommitGcRow(smoke);
  return 0;
}
