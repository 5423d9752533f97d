// End-to-end benchmark driver: trainer stall, time-to-valid, time-to-far-
// durable and recovery wall of the checkpointing system, on three workloads
// (README.md says why each exists and which layer moves which metric).
//
//   perfbench_driver --workload <interval-tiered|delta-stream|shard-failover>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>] [--trace-out <file.json>]
//                    [--rounds <n>] [--corrupt-restore]
//
// One process, one closed-loop trainer thread, no pacing. A run repeats
// rounds until --seconds have elapsed (or --rounds are done); each round sets
// the whole stack up from scratch (model, dataset, stores, service), trains a
// fixed number of durable units, drains, and restores several times. Timings
// pool across rounds and set-up time is the median round. Byte counts and
// the restored loss must repeat exactly in every round of a run — the same
// seed gives the same inputs — and a mismatch counts as a failure.
//
// The driver calls the system only through its public functions and times
// those calls from outside. Every restore is checked against an independent
// oracle. The last stdout line is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1).
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_log.h"
#include "core/recovery.h"
#include "core/service.h"
#include "core/sharded_checkpoint.h"
#include "core/snapshot.h"
#include "core/writer.h"
#include "data/reader.h"
#include "data/synthetic.h"
#include "harness.h"
#include "quant/quantizer.h"
#include "quant/selector.h"
#include "sim/cluster.h"
#include "sim/failure_trace.h"
#include "storage/file_store.h"
#include "storage/latency_store.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace fs = std::filesystem;
using namespace cnr;
using perfbench::Clock;
using perfbench::Ms;
using perfbench::RecordingStore;
using perfbench::Samples;
using perfbench::Tracer;

namespace {

constexpr char kJob[] = "bench";
// Set-up-only repetitions after each measured round (see main).
constexpr int kSetupsPerRound = 10;
constexpr double kMB = 1e6;
// Training-rate windows: batches per window on interval-tiered, iterations
// per window on delta-stream (shard-failover: one cut).
constexpr std::size_t kRateWindowBatches = 50;
constexpr std::size_t kRateWindowIterations = 40;

// ------------------------------------------------------------ options -------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir = ".bench_work";
  std::string trace_out;
  int max_rounds = 0;  // 0 = as many rounds as fit in --seconds
  bool corrupt_restore = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<interval-tiered|delta-stream|shard-failover> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-out <file>] [--rounds <n>] "
               "[--corrupt-restore]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--rounds") o.max_rounds = std::stoi(value());
    else if (a == "--corrupt-restore") o.corrupt_restore = true;
    else Usage("unknown argument " + a);
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (o.seconds <= 0) Usage("--seconds must be > 0");
  return o;
}

// ------------------------------------------------------------ workload shape

// Fixed shape of one workload's round. The seed changes the inputs (model
// init, which records are trained on, the failure trace), never the shape.
struct Spec {
  std::size_t num_shards = 4;
  std::size_t batch_size = 128;
  std::size_t units = 8;          // durable units per round
  std::size_t interval = 1;       // batches per unit
  std::size_t warmup = 0;         // batches before the base checkpoint
  std::size_t restores = 4;       // timed restores per round
  std::size_t compact_every = 0;  // delta-stream: iterations per compaction
  std::size_t full_every = 0;     // shard-failover: a full restore every n events
};

Spec SpecFor(const std::string& workload) {
  Spec s;
  if (workload == "interval-tiered") {
    s.units = 8;
    s.interval = 600;
    s.restores = 32;
  } else if (workload == "delta-stream") {
    s.batch_size = 32;
    s.warmup = 80;
    s.units = 480;
    s.restores = 12;
    s.compact_every = 240;
  } else if (workload == "shard-failover") {
    s.num_shards = 8;
    s.units = 8;
    s.interval = 30;
    s.restores = 10;
    s.full_every = 5;
  } else {
    Usage("unknown workload " + workload);
  }
  return s;
}

// Laptop-scale DLRM with 16 MB of embeddings (122880 rows of 32 floats), so
// a full checkpoint is 240 chunks. Model init and the dataset (teacher
// included) are fixed; the seed picks which records a run trains on, so
// losses stay comparable across seeds.
dlrm::ModelConfig ModelFor(const Spec& spec) {
  dlrm::ModelConfig cfg;
  cfg.num_dense = 8;
  cfg.embedding_dim = 32;
  cfg.table_rows = {65536, 32768, 16384, 8192};
  cfg.bottom_hidden = {64};
  cfg.top_hidden = {64};
  cfg.num_shards = spec.num_shards;
  cfg.seed = 1234;
  return cfg;
}

data::DatasetConfig Dataset() {
  data::DatasetConfig cfg;
  cfg.seed = 4321;
  cfg.num_dense = 8;
  cfg.tables = {{65536, 4, 1.1}, {32768, 3, 1.1}, {16384, 2, 1.05}, {8192, 1, 1.05}};
  return cfg;
}

data::ReaderState StartFor(std::uint64_t seed) {
  data::ReaderState s;
  s.next_sample = (seed % 1000003) * 100003;
  return s;
}

data::ReaderConfig ReaderFor(const Spec& spec) {
  data::ReaderConfig cfg;
  cfg.batch_size = spec.batch_size;
  cfg.num_workers = 1;
  cfg.queue_capacity = 8;
  return cfg;
}

// Fixed held-out records, far from any trained range.
constexpr std::uint64_t kHeldOutFirst = 1ull << 40;
constexpr std::size_t kHeldOutBatches = 8;

double HeldOutLoss(const dlrm::DlrmModel& model, const data::SyntheticDataset& ds,
                   std::size_t batch_size) {
  dlrm::BatchMetrics m;
  for (std::size_t b = 0; b < kHeldOutBatches; ++b) {
    m.Merge(model.EvalBatch(ds.GetBatch(b, kHeldOutFirst + b * batch_size, batch_size)));
  }
  return m.MeanLoss();
}

// Thread budget: the trainer, one reader worker, and nproc - 2 executor
// workers; snapshots copy on the trainer thread.
std::size_t ExecutorWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 3 ? n - 2 : 1;
}

// Far tier: a remote object store behind a 2 ms, 200 MB/s link.
storage::LatencyModel FarLink() {
  storage::LatencyModel m;
  m.get_latency = std::chrono::microseconds(2000);
  m.put_latency = std::chrono::microseconds(2000);
  m.read_bytes_per_sec = 200'000'000ull;
  m.write_bytes_per_sec = 200'000'000ull;
  return m;
}

// ------------------------------------------------------------ results -------

// One round's observations. Timings are raw samples; `layer` holds per-layer
// scalars (medianed across rounds); the deterministic fields must repeat.
struct Round {
  double setup_s = 0;
  double loop_s = 0;
  std::uint64_t samples = 0;
  Samples rate;  // samples/s of each window of the training loop
  Samples stall_ms, ttv_ms, ttfd_ms, recovery_ms;
  std::uint64_t bytes_written = 0;
  std::uint64_t units = 0;
  std::uint64_t far_peak_bytes = 0;
  std::uint64_t rpo_iters = 0;
  double restored_loss = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double trainer_covered_ms = 0;  // traced: top-level trainer spans in the loop
  std::map<std::string, double> layer;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

// Records trainer-thread spans and sums how much of the loop they cover.
class TrainerSpans {
 public:
  TrainerSpans(Tracer& tracer, Round& round) : tracer_(tracer), round_(round) {}
  std::uint64_t operator()(const char* name, Clock::time_point a, Clock::time_point b,
                           std::uint64_t unit, std::uint64_t parent = 0) {
    if (!tracer_.enabled()) return 0;
    if (parent == 0) round_.trainer_covered_ms += Ms(b - a);
    return tracer_.Record(name, a, b, parent, unit);
  }

 private:
  Tracer& tracer_;
  Round& round_;
};

struct Progress {
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
};

// Training rate over consecutive windows of the loop: samples trained per
// second of loop wall, checkpointing included. The run reports the p90
// window: the rate the loop sustains while the shared machine does not slow
// it. A whole-loop average or the median window moved by up to 40% between
// runs of the same code with the load other tenants put on the host.
class RateWindows {
 public:
  RateWindows(Samples& out, const Progress& p)
      : out_(out), p_(p), start_(Clock::now()), samples_(p.samples) {}
  void Close() {
    out_.Add(static_cast<double>(p_.samples - samples_) /
             std::chrono::duration<double>(Clock::now() - start_).count());
    Skip();
  }
  // Starts the next window without recording the one that ends here.
  void Skip() {
    start_ = Clock::now();
    samples_ = p_.samples;
  }

 private:
  Samples& out_;
  const Progress& p_;
  Clock::time_point start_;
  std::uint64_t samples_;
};

// Per-trainer-step observations shared by every workload.
struct StepStats {
  Samples train_ms, harvest_ms;
  double next_batch_wait_ms = 0;
};

// Trains `n` batches the reader was already allowed to produce.
void TrainBatches(data::ReaderMaster& reader, dlrm::DlrmModel& model, std::size_t n,
                  std::uint64_t unit, Progress& p, StepStats& steps, TrainerSpans& span) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = Clock::now();
    std::optional<data::Batch> batch = reader.NextBatch();
    const auto b = Clock::now();
    if (!batch) throw std::runtime_error("reader ran dry");
    model.TrainBatch(*batch);
    const auto c = Clock::now();
    span("data.next_batch", a, b, unit);
    span("dlrm.train_batch", b, c, unit);
    steps.next_batch_wait_ms += Ms(b - a);
    steps.train_ms.Add(Ms(c - b));
    ++p.batches;
    p.samples += batch->size();
  }
}

void AddStepLayer(Round& r, const StepStats& steps) {
  r.layer["data.next_batch_wait_ms_sum"] = steps.next_batch_wait_ms;
  r.layer["dlrm.train_batch_ms_p50"] = steps.train_ms.P50();
  if (!steps.harvest_ms.empty()) {
    r.layer["core.tracking.harvest_ms_p50"] = steps.harvest_ms.P50();
  }
}

// Executor stages whose busy time and occupancy are reported, and whether
// every workload runs them (the write plane does: delta-stream's base
// checkpoint, shard-failover's per-shard sub-checkpoints).
struct StageDef {
  const char* name;
  bool every_workload;
};
const StageDef kStages[] = {{"plan", true},        {"encode", true},
                            {"store", true},       {"commit", true},
                            {"tier-drain", false}, {"dlog-encode", false},
                            {"dlog-store", false}};

// Occupancy here is busy time per unit of training-loop wall: the average
// number of the stage's workers that were busy while the trainer ran.
void AddExecutorLayer(Round& r, const core::pipeline::ExecutorSnapshot& ex, double loop_ms) {
  for (const auto& st : ex.stages) {
    const double busy_ms = static_cast<double>(st.busy_us) / 1e3;
    r.layer["core.executor." + st.name + ".busy_ms"] = busy_ms;
    r.layer["core.executor." + st.name + ".occupancy"] = loop_ms > 0 ? busy_ms / loop_ms : 0.0;
  }
  r.layer["core.executor.rebalances"] = static_cast<double>(ex.rebalances);
}

struct RestoreStats {
  Samples resolve, fetch, fetch_queue, decode, apply, chain_len, read_mb;
  void Add(const core::pipeline::RestoreTimings& t, std::size_t chain, std::uint64_t bytes) {
    resolve.Add(static_cast<double>(t.resolve_us) / 1e3);
    fetch.Add(static_cast<double>(t.fetch_us) / 1e3);
    fetch_queue.Add(static_cast<double>(t.fetch_queue_us) / 1e3);
    decode.Add(static_cast<double>(t.decode_us) / 1e3);
    apply.Add(static_cast<double>(t.apply_us) / 1e3);
    chain_len.Add(static_cast<double>(chain));
    read_mb.Add(static_cast<double>(bytes) / kMB);
  }
  void Report(Round& r) const {
    r.layer["core.restore.resolve_ms_p50"] = resolve.P50();
    r.layer["core.restore.fetch_ms_p50"] = fetch.P50();
    r.layer["core.restore.fetch_queue_ms_p50"] = fetch_queue.P50();
    r.layer["core.restore.decode_ms_p50"] = decode.P50();
    r.layer["core.restore.apply_ms_p50"] = apply.P50();
    r.layer["core.restore.chain_len"] = chain_len.P50();
    r.layer["core.restore.read_mb"] = read_mb.P50();
  }
};

// Per-op view of the tiers (traced runs) plus the tiered layer's counters.
void AddStorageLayer(Round& r, const RecordingStore* near, const RecordingStore& far,
                     core::CheckpointService& service, double dirty_peak_bytes) {
  auto deletes_and_lists = [&r](const std::string& tier, const perfbench::TierOps& o) {
    r.layer[tier + ".deletes"] = static_cast<double>(o.delete_ms.size());
    r.layer[tier + ".delete_ms_p50"] = o.delete_ms.P50();
    r.layer[tier + ".lists"] = static_cast<double>(o.list_ms.size());
    r.layer[tier + ".list_ms_p50"] = o.list_ms.P50();
  };
  const perfbench::TierOps f = far.ops();
  deletes_and_lists("storage.far", f);
  r.layer["storage.far.put_ms_p50"] = f.put_ms.P50();
  r.layer["storage.far.puts"] = static_cast<double>(f.put_ms.size());
  r.layer["storage.far.gets"] = static_cast<double>(f.get_ms.size());
  r.layer["storage.far.get_mb"] = static_cast<double>(f.get_bytes) / kMB;
  r.layer["storage.far.live_mb_peak"] = static_cast<double>(far.peak_bytes()) / kMB;
  if (near == nullptr) return;
  const perfbench::TierOps n = near->ops();
  deletes_and_lists("storage.near", n);
  r.layer["storage.near.put_ms_p50"] = n.put_ms.P50();
  r.layer["storage.near.put_ms_p90"] = n.put_ms.P90();
  r.layer["storage.near.puts"] = static_cast<double>(n.put_ms.size());
  r.layer["storage.near.put_mb"] = static_cast<double>(n.put_bytes) / kMB;
  r.layer["storage.near.put_mb_per_s"] =
      n.put_ms.Sum() > 0 ? static_cast<double>(n.put_bytes) / kMB / (n.put_ms.Sum() / 1e3)
                         : 0.0;

  // Drain lag: a key's near commit to its far copy landing.
  Samples lag;
  const auto near_done = near->put_done();
  const auto far_done = far.put_done();
  for (const auto& [key, t_near] : near_done) {
    if (key.starts_with(storage::TieredStore::kMetaPrefix)) continue;
    const auto it = far_done.find(key);
    if (it != far_done.end() && it->second >= t_near) lag.Add(Ms(it->second - t_near));
  }
  r.layer["storage.tiered.drain_lag_ms_p50"] = lag.P50();
  r.layer["storage.tiered.dirty_mb_peak"] = dirty_peak_bytes / kMB;
  if (storage::TieredStore* tiered = service.tiered_store()) {
    const storage::TierStats ts = tiered->tier_stats();
    r.layer["storage.tiered.near_hit_ratio"] = ts.NearHitRatio();
    r.layer["storage.tiered.evicted_objects"] = static_cast<double>(ts.evicted_objects);
  }
}

double DirtyBytes(core::CheckpointService& service) {
  storage::TieredStore* tiered = service.tiered_store();
  return tiered ? static_cast<double>(tiered->tier_stats().dirty_bytes) : 0.0;
}

// ------------------------------------------------------------ the stack -----

// Storage tiers and service of one round. The far tier is an in-memory
// object store behind the modeled link; the near tier (when tiered) a
// FileStore that fsyncs every Put, in a fresh directory.
struct Stack {
  std::shared_ptr<storage::InMemoryStore> far_mem;
  std::shared_ptr<RecordingStore> far;
  std::shared_ptr<RecordingStore> near;  // null without a near tier
  std::unique_ptr<core::CheckpointService> service;
};

Stack MakeStack(bool tiered, const fs::path& near_dir, Tracer& tracer) {
  Stack st;
  st.far_mem = std::make_shared<storage::InMemoryStore>();
  st.far = std::make_shared<RecordingStore>(
      std::make_shared<storage::LatencyInjectedStore>(st.far_mem, FarLink()), "storage.far",
      tracer);
  core::ServiceConfig cfg;
  cfg.executor.max_workers = ExecutorWorkers();
  if (tiered) {
    fs::remove_all(near_dir);
    storage::FileStoreOptions fo;
    fo.fsync_on_put = true;
    st.near = std::make_shared<RecordingStore>(
        std::make_shared<storage::FileStore>(near_dir, fo), "storage.near", tracer);
    cfg.near_store = st.near;
  }
  st.service = std::make_unique<core::CheckpointService>(st.far, cfg);
  return st;
}

core::pipeline::RestoreConfig OnService(core::CheckpointService& service) {
  core::pipeline::RestoreConfig rc;
  rc.executor = &service.executor();
  return rc;
}

// Flips one restored weight: the test hook proving that a wrong restore is
// caught by the oracle and counted.
void Corrupt(dlrm::DlrmModel& model) { model.table(0).Shard(0).Row(0)[0] += 1.0f; }

fs::path NearDir(const Options& opt, int round) {
  return opt.work_dir / ("near-" + std::to_string(round));
}

// ------------------------------------------------------------ interval-tiered

// The paper's main loop: intermittent incrementals with dynamic 2-bit
// adaptive quantization, committed to the near tier and drained to the far
// link; restores of the latest checkpoint read the near tier.
Round RunIntervalTiered(const Spec& spec, const Options& opt, int round_idx,
                        Clock::time_point t0, bool setup_only, Tracer& tracer) {
  Round r;
  TrainerSpans span(tracer, r);
  const dlrm::ModelConfig mcfg = ModelFor(spec);
  dlrm::DlrmModel model(mcfg);
  data::SyntheticDataset ds(Dataset());
  data::ReaderMaster reader(ds, ReaderFor(spec), StartFor(opt.seed));
  Stack st = MakeStack(true, NearDir(opt, round_idx), tracer);
  core::JobConfig jc;
  jc.name = kJob;
  jc.model = &model;
  std::unique_ptr<core::JobHandle> job = st.service->OpenJob(jc);
  r.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (setup_only) {
    job.reset();
    st.service.reset();
    fs::remove_all(NearDir(opt, round_idx));
    return r;
  }

  struct Inflight {
    bool timed = false;
    std::uint64_t id = 0;
    Clock::time_point submit, snap;
    std::future<core::WriteResult> future;
  };
  struct Committed {
    bool timed = false;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    bool full = true;
    std::uint64_t bytes = 0;
    Clock::time_point submit;
  };
  struct Expect {
    Progress progress;
    data::ReaderState reader;
  };
  std::deque<Inflight> inflight;
  std::vector<Committed> committed;
  std::map<std::uint64_t, Expect> expect;
  StepStats steps;
  Samples admission, copy, plan, encode, encode_q, store, store_q, commit;
  double copy_bytes = 0, copy_ms = 0, encode_in_bytes = 0, encode_us = 0, dirty_peak = 0;
  const double row_bytes = static_cast<double>(mcfg.embedding_dim + 1) * sizeof(float);

  auto finalize = [&](Inflight& u) {
    ++r.attempted;
    try {
      const core::WriteResult wr = u.future.get();
      const double ttv = Ms(u.snap - u.submit) + static_cast<double>(wr.write_wall.count()) / 1e3;
      if (u.timed) r.ttv_ms.Add(ttv);
      const storage::StageTimings& t = wr.timings;
      plan.Add(static_cast<double>(t.plan_us) / 1e3);
      encode.Add(static_cast<double>(t.encode_us) / 1e3);
      encode_q.Add(static_cast<double>(t.encode_queue_us) / 1e3);
      store.Add(static_cast<double>(t.store_us) / 1e3);
      store_q.Add(static_cast<double>(t.store_queue_us) / 1e3);
      commit.Add(static_cast<double>(t.commit_us) / 1e3);
      encode_in_bytes += static_cast<double>(wr.rows_written) * row_bytes;
      encode_us += static_cast<double>(t.encode_us);
      r.bytes_written += wr.bytes_written;
      ++r.units;
      committed.push_back({u.timed, u.id, wr.manifest.parent_id,
                           wr.manifest.kind == storage::CheckpointKind::kFull, wr.bytes_written,
                           u.submit});
    } catch (const std::exception& e) {
      r.Fail("checkpoint " + std::to_string(u.id) + ": " + e.what());
    }
  };

  Progress p;
  const auto loop0 = Clock::now();
  RateWindows windows(r.rate, p);
  for (std::uint64_t u = 1; u <= spec.units; ++u) {
    // The first unit warms up: its snapshot first-touches the copy's memory
    // (about 3x a warm copy), a once-per-job cost kept out of the timings.
    const bool timed = u > 1;
    auto close_window = [&] { timed ? windows.Close() : windows.Skip(); };
    reader.AllowBatches(spec.interval);
    for (std::size_t done = 0; done < spec.interval; done += kRateWindowBatches) {
      if (done > 0) close_window();
      TrainBatches(reader, model, std::min(kRateWindowBatches, spec.interval - done), u, p, steps,
                   span);
    }

    auto a = Clock::now();
    core::IntervalSubmission sub;
    sub.interval_dirty = job->tracker().HarvestInterval();
    auto b = Clock::now();
    span("core.tracking.harvest", a, b, u);
    steps.harvest_ms.Add(Ms(b - a));
    const data::ReaderState rs = reader.CollectState();
    sub.reader_state = rs.Encode();
    a = Clock::now();
    span("data.collect_state", b, a, u);

    Clock::time_point snap0, snap1;
    std::size_t snap_bytes = 0;
    sub.snapshot_fn = [&] {
      snap0 = Clock::now();
      core::ModelSnapshot snap = core::CreateSnapshot(model, p.batches, p.samples, nullptr);
      snap1 = Clock::now();
      snap_bytes = snap.StateBytes();
      return snap;
    };
    const auto s0 = Clock::now();
    core::SubmittedCheckpoint sc = job->Submit(std::move(sub));
    const auto s1 = Clock::now();
    const std::uint64_t parent = span("core.service.submit", s0, s1, u);
    span("core.service.admission_wait", s0, snap0, u, parent);
    span("core.snapshot.copy", snap0, snap1, u, parent);
    if (timed) {
      r.stall_ms.Add(Ms(s1 - s0));
      admission.Add(Ms(snap0 - s0));
      copy.Add(Ms(snap1 - snap0));
      copy_bytes += static_cast<double>(snap_bytes);
      copy_ms += Ms(snap1 - snap0);
    }
    expect[sc.checkpoint_id] = {p, rs};
    inflight.push_back({timed, sc.checkpoint_id, s0, snap0, std::move(sc.future)});

    a = Clock::now();
    while (!inflight.empty() &&
           inflight.front().future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      finalize(inflight.front());
      inflight.pop_front();
    }
    if (tracer.enabled()) dirty_peak = std::max(dirty_peak, DirtyBytes(*st.service));
    span("core.service.reap", a, Clock::now(), u);
    close_window();
  }
  const auto loop1 = Clock::now();
  r.loop_s = std::chrono::duration<double>(loop1 - loop0).count();
  r.samples = p.samples;
  const core::pipeline::ExecutorSnapshot ex = st.service->stats().executor;
  while (!inflight.empty()) {
    finalize(inflight.front());
    inflight.pop_front();
  }
  st.service->tiered_store()->FlushDrains();

  // Time to far-durable: the unit's last far Put, for units whose manifest
  // reached the far tier (GC may supersede one before it drains).
  std::uint64_t superseded = 0;
  for (const Committed& c : committed) {
    if (!st.far->PutDone(storage::Manifest::ManifestKey(kJob, c.id))) {
      ++superseded;
      continue;
    }
    if (!c.timed) continue;
    const auto last = st.far->LastPutDoneUnder(storage::Manifest::CheckpointPrefix(kJob, c.id));
    r.ttfd_ms.Add(Ms(*last - c.submit));
  }

  // Far capacity the retention policy needs once every commit drains: the
  // previous lineage plus the new checkpoint's chain, before GC drops the
  // old one (keep_checkpoints = 1).
  std::map<std::uint64_t, const Committed*> by_id;
  for (const Committed& c : committed) by_id[c.id] = &c;
  auto chain = [&](std::uint64_t id) {
    std::set<std::uint64_t> ids;
    while (id != 0 && by_id.count(id)) {
      ids.insert(id);
      id = by_id[id]->full ? 0 : by_id[id]->parent;
    }
    return ids;
  };
  std::set<std::uint64_t> retained;
  for (const Committed& c : committed) {
    std::set<std::uint64_t> both = chain(c.id);
    std::uint64_t bytes = 0;
    for (const std::uint64_t id : retained) both.insert(id);
    for (const std::uint64_t id : both) bytes += by_id[id]->bytes;
    r.far_peak_bytes = std::max(r.far_peak_bytes, bytes);
    retained = chain(c.id);
  }
  r.rpo_iters = spec.interval;

  // Recovery: restore the latest checkpoint into a fresh model, several
  // times. Oracle: a synchronous restore of the same id read straight from
  // the far tier, plus the trainer's progress and reader state at that
  // checkpoint.
  RestoreStats rst;
  if (committed.empty()) {
    r.Fail("no checkpoint committed");
  } else {
    const std::uint64_t latest = committed.back().id;
    const Expect& want = expect[latest];
    dlrm::DlrmModel oracle(mcfg);
    core::RestoreModel(*st.far_mem, kJob, oracle, latest);
    for (std::size_t i = 0; i < spec.restores; ++i) {
      ++r.attempted;
      dlrm::DlrmModel fresh(mcfg);
      try {
        const auto a = Clock::now();
        const core::RestoreResult res = core::RestoreModelPipelined(
            st.service->store(), kJob, fresh, latest, OnService(*st.service));
        const auto b = Clock::now();
        tracer.Record("core.restore", a, b, 0, latest);
        r.recovery_ms.Add(Ms(b - a));
        rst.Add(res.timings, res.checkpoints_applied, res.bytes_read);
        if (opt.corrupt_restore && i == 0) Corrupt(fresh);
        if (!fresh.StateEquals(oracle)) r.Fail("restore differs from the far-tier oracle");
        else if (res.batches_trained != want.progress.batches ||
                 res.samples_trained != want.progress.samples || !(res.reader_state == want.reader))
          r.Fail("restored progress or reader state differs from the trainer's");
        if (i + 1 == spec.restores) r.restored_loss = HeldOutLoss(fresh, ds, spec.batch_size);
      } catch (const std::exception& e) {
        r.Fail(std::string("restore: ") + e.what());
      }
    }
  }

  if (tracer.enabled()) {
    AddStepLayer(r, steps);
    r.layer["core.service.admission_wait_ms_p50"] = admission.P50();
    r.layer["core.service.admission_wait_ms_p90"] = admission.P90();
    r.layer["core.snapshot.copy_ms_p50"] = copy.P50();
    r.layer["core.snapshot.copy_gb_per_s"] = copy_ms > 0 ? copy_bytes / 1e9 / (copy_ms / 1e3) : 0;
    r.layer["core.pipeline.plan_ms_p50"] = plan.P50();
    r.layer["core.pipeline.encode_ms_p50"] = encode.P50();
    r.layer["core.pipeline.encode_queue_ms_p50"] = encode_q.P50();
    r.layer["core.pipeline.store_ms_p50"] = store.P50();
    r.layer["core.pipeline.store_queue_ms_p50"] = store_q.P50();
    r.layer["core.pipeline.commit_ms_p50"] = commit.P50();
    r.layer["quant.encode_mb_per_s"] = encode_us > 0 ? encode_in_bytes / kMB / (encode_us / 1e6) : 0;
    r.layer["storage.tiered.superseded_units"] = static_cast<double>(superseded);
    AddExecutorLayer(r, ex, r.loop_s * 1e3);
    AddStorageLayer(r, st.near.get(), *st.far, *st.service, dirty_peak);
    rst.Report(r);
  }
  job.reset();
  st.service.reset();
  fs::remove_all(NearDir(opt, round_idx));
  return r;
}

// ------------------------------------------------------------ delta-stream --

// One base checkpoint, then one DeltaLog::Append per iteration (group commit
// 1, window 1) on the tiered stack, compacted periodically; recovery replays
// base + log.
Round RunDeltaStream(const Spec& spec, const Options& opt, int round_idx, Clock::time_point t0,
                     bool setup_only, Tracer& tracer) {
  Round r;
  TrainerSpans span(tracer, r);
  const dlrm::ModelConfig mcfg = ModelFor(spec);
  dlrm::DlrmModel model(mcfg);
  data::SyntheticDataset ds(Dataset());
  data::ReaderMaster reader(ds, ReaderFor(spec), StartFor(opt.seed));
  Stack st = MakeStack(true, NearDir(opt, round_idx), tracer);
  core::JobConfig jc;
  jc.name = kJob;
  jc.model = &model;
  std::unique_ptr<core::JobHandle> job = st.service->OpenJob(jc);
  r.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (setup_only) {
    job.reset();
    st.service.reset();
    fs::remove_all(NearDir(opt, round_idx));
    return r;
  }

  // Base checkpoint, drained to the far tier before the stream starts.
  Progress p;
  StepStats steps;
  reader.AllowBatches(spec.warmup + spec.units);
  TrainBatches(reader, model, spec.warmup, 0, p, steps, span);
  core::IntervalSubmission base;
  base.interval_dirty = job->tracker().HarvestInterval();
  data::ReaderState rs;
  rs.next_batch_id = p.batches;
  rs.next_sample = StartFor(opt.seed).next_sample + p.samples;
  base.reader_state = rs.Encode();
  base.snapshot_fn = [&] { return core::CreateSnapshot(model, p.batches, p.samples, nullptr); };
  core::SubmittedCheckpoint sc = job->Submit(std::move(base));
  const std::uint64_t base_id = sc.checkpoint_id;
  sc.future.get();
  st.service->tiered_store()->FlushDrains();

  // Every log knob at its default: group commit 1, window 1, and the log's
  // own codec (the base checkpoint keeps the job's dynamic bit-width pick).
  core::DeltaLogConfig dc;
  dc.base_checkpoint_id = base_id;
  std::unique_ptr<core::DeltaLog> log = job->OpenDeltaLog(dc);
  core::DirtySets touched = core::MakeEmptyDirtySets(model);

  std::vector<Clock::time_point> append_start(spec.units + 1);
  Samples flush_ms, compact_ms;
  double dirty_peak = 0;
  auto note_occupancy = [&] {
    r.far_peak_bytes = std::max(r.far_peak_bytes, job->stats().store_bytes);
  };
  const std::uint64_t warmup_samples = p.samples;
  const auto loop0 = Clock::now();
  RateWindows windows(r.rate, p);
  for (std::uint64_t it = 1; it <= spec.units; ++it) {
    TrainBatches(reader, model, 1, it, p, steps, span);
    auto a = Clock::now();
    const core::DirtySets dirty = job->tracker().HarvestInterval();
    auto b = Clock::now();
    span("core.tracking.harvest", a, b, it);
    steps.harvest_ms.Add(Ms(b - a));
    core::MergeDirtySets(touched, dirty);
    b = Clock::now();
    append_start[it] = b;
    ++r.attempted;
    try {
      log->Append(model, dirty, it);
    } catch (const std::exception& e) {
      r.Fail("append " + std::to_string(it) + ": " + e.what());
    }
    a = Clock::now();
    span("core.delta_log.append", b, a, it);
    r.stall_ms.Add(Ms(a - b));
    if (spec.compact_every && it % spec.compact_every == 0) {
      log->Flush();
      b = Clock::now();
      note_occupancy();
      log->CompactNow();
      const auto c = Clock::now();
      span("core.delta_log.flush", a, b, it);
      span("core.delta_log.compact", b, c, it);
      flush_ms.Add(Ms(b - a));
      compact_ms.Add(Ms(c - b));
    }
    if (it % kRateWindowIterations == 0) windows.Close();
    if (tracer.enabled()) dirty_peak = std::max(dirty_peak, DirtyBytes(*st.service));
  }
  const auto loop1 = Clock::now();
  r.loop_s = std::chrono::duration<double>(loop1 - loop0).count();
  r.samples = p.samples - warmup_samples;
  const core::pipeline::ExecutorSnapshot ex = st.service->stats().executor;
  log->Flush();
  note_occupancy();
  const core::DeltaLogStats ls = log->stats();
  log.reset();
  st.service->tiered_store()->FlushDrains();

  // One sealed segment per iteration: segment seq == iteration. Valid when
  // the segment's near Put returned; far-durable when its far copy landed
  // (a segment compacted away before it drained has no far copy).
  if (ls.segments_sealed != spec.units) {
    r.Fail("expected one segment per iteration, got " + std::to_string(ls.segments_sealed));
  }
  r.units = ls.iterations_appended;
  r.bytes_written = ls.segment_bytes;
  r.rpo_iters = ls.max_unsynced_iterations;
  for (std::uint64_t it = 1; it <= spec.units; ++it) {
    const std::string key = storage::Manifest::DeltaSegmentKey(kJob, base_id, it);
    if (const auto t = st.near->PutDone(key)) r.ttv_ms.Add(Ms(*t - append_start[it]));
    if (const auto t = st.far->PutDone(key)) r.ttfd_ms.Add(Ms(*t - append_start[it]));
  }

  // Oracle, built without the log: the base checkpoint restored synchronously
  // from the far tier, every row touched since then set to the codec round
  // trip (the log's QuantConfig) of the trainer's current row, and the
  // trainer's dense state — the model a dense restore at the last iteration
  // holds.
  dlrm::DlrmModel oracle(mcfg);
  core::RestoreModel(*st.far_mem, kJob, oracle, base_id);
  util::Rng rng(dc.rng_seed);
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    for (std::size_t sh = 0; sh < model.table(t).num_shards(); ++sh) {
      const tensor::EmbeddingTable& live = model.table(t).Shard(sh);
      for (const std::uint32_t row : touched[t][sh].ToIndices()) {
        oracle.table(t).Shard(sh).RestoreRow(row, quant::RoundTrip(live.Row(row), dc.quant, rng),
                                             live.AdagradState(row));
      }
    }
  }
  {
    util::Writer w;
    model.SerializeDense(w);
    const std::vector<std::uint8_t> dense = w.TakeBytes();
    util::Reader rd(dense);
    oracle.RestoreDense(rd);
  }
  RestoreStats rst;
  Samples replay_ms;
  for (std::size_t i = 0; i < spec.restores; ++i) {
    ++r.attempted;
    dlrm::DlrmModel fresh(mcfg);
    try {
      const auto a = Clock::now();
      const core::DeltaRestoreResult res =
          core::RestoreWithDeltaLog(st.service->store(), kJob, fresh, base_id);
      const auto b = Clock::now();
      tracer.Record("core.restore_with_delta_log", a, b, 0, base_id);
      r.recovery_ms.Add(Ms(b - a));
      rst.Add(res.base.timings, res.base.checkpoints_applied, res.base.bytes_read);
      replay_ms.Add(Ms(b - a) - static_cast<double>(res.base.timings.restore_wall_us) / 1e3);
      if (opt.corrupt_restore && i == 0) Corrupt(fresh);
      if (res.replay.last_iteration != spec.units) {
        r.Fail("replay recovered through iteration " + std::to_string(res.replay.last_iteration));
      } else if (!fresh.StateEquals(oracle)) {
        r.Fail("replayed model differs from the dense-restore oracle");
      }
      if (i + 1 == spec.restores) r.restored_loss = HeldOutLoss(fresh, ds, spec.batch_size);
    } catch (const std::exception& e) {
      r.Fail(std::string("delta restore: ") + e.what());
    }
  }

  if (tracer.enabled()) {
    AddStepLayer(r, steps);
    r.layer["core.delta_log.append_ms_p50"] = r.stall_ms.P50();
    r.layer["core.delta_log.flush_ms_p50"] = flush_ms.P50();
    r.layer["core.delta_log.segment_kb_mean"] =
        ls.segments_sealed ? static_cast<double>(ls.segment_bytes) / 1e3 /
                                 static_cast<double>(ls.segments_sealed)
                           : 0.0;
    r.layer["core.delta_log.compact_ms_p50"] = compact_ms.P50();
    r.layer["core.delta_log.replay_ms_p50"] = replay_ms.P50();
    AddExecutorLayer(r, ex, r.loop_s * 1e3);
    AddStorageLayer(r, st.near.get(), *st.far, *st.service, dirty_peak);
    rst.Report(r);
  }
  job.reset();
  st.service.reset();
  fs::remove_all(NearDir(opt, round_idx));
  return r;
}

// ------------------------------------------------------------ shard-failover

// An 8-shard job straight on the far link (a replacement node has no local
// copy), then a seeded node-failure trace drives partial restores of the
// lost shards plus periodic full restores. The job keeps the product's
// default intermittent policy: with consecutive incrementals a shard's
// parent is "the previous id", which in a sharded job is another shard's
// sub-checkpoint, so chains skip the shard's own baseline (README.md).
Round RunShardFailover(const Spec& spec, const Options& opt, int /*round_idx*/,
                       Clock::time_point t0, bool setup_only, Tracer& tracer) {
  Round r;
  TrainerSpans span(tracer, r);
  const dlrm::ModelConfig mcfg = ModelFor(spec);
  dlrm::DlrmModel model(mcfg);
  data::SyntheticDataset ds(Dataset());
  data::ReaderMaster reader(ds, ReaderFor(spec), StartFor(opt.seed));
  Stack st = MakeStack(false, {}, tracer);
  core::ShardedJobConfig sc;
  sc.name = kJob;
  sc.num_shards = spec.num_shards;
  core::ShardedJobHandle handle(*st.service, model, sc);
  r.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (setup_only) return r;

  struct Cut {
    std::uint64_t epoch = 0;
    std::vector<storage::ShardCutEntry> shards;
    Clock::time_point submit;
  };
  std::vector<Cut> cuts;
  Progress p, cut_progress;
  data::ReaderState cut_reader;
  StepStats steps;
  Samples submit_ms, wait_ms;
  const auto loop0 = Clock::now();
  RateWindows windows(r.rate, p);
  for (std::uint64_t u = 1; u <= spec.units; ++u) {
    reader.AllowBatches(spec.interval);
    TrainBatches(reader, model, spec.interval, u, p, steps, span);
    auto a = Clock::now();
    const data::ReaderState rs = reader.CollectState();
    auto b = Clock::now();
    span("data.collect_state", a, b, u);
    ++r.attempted;
    core::CutTicket ticket = handle.SubmitCut(p.batches, p.samples, rs.Encode());
    const auto c = Clock::now();
    const core::CutResult res = ticket.Wait();
    const auto d = Clock::now();
    span("core.sharded.submit_cut", b, c, u);
    span("core.sharded.cut_wait", c, d, u);
    r.stall_ms.Add(Ms(c - b));
    r.ttv_ms.Add(Ms(d - b));
    submit_ms.Add(Ms(c - b));
    wait_ms.Add(Ms(d - c));
    windows.Close();
    if (!res.committed) {
      r.Fail("cut " + std::to_string(res.cut_epoch) + " did not commit");
      continue;
    }
    ++r.units;
    r.bytes_written += res.bytes_written;
    r.far_peak_bytes = std::max(r.far_peak_bytes, st.far_mem->TotalBytes());
    cuts.push_back({res.cut_epoch, res.shard_map, b});
    cut_progress = p;
    cut_reader = rs;
  }
  const auto loop1 = Clock::now();
  r.loop_s = std::chrono::duration<double>(loop1 - loop0).count();
  r.samples = p.samples;
  const core::pipeline::ExecutorSnapshot ex = st.service->stats().executor;

  for (const Cut& cut : cuts) {
    std::optional<Clock::time_point> last =
        st.far->LastPutDoneUnder(storage::Manifest::CutPrefix(kJob, cut.epoch));
    for (const storage::ShardCutEntry& e : cut.shards) {
      const auto t =
          st.far->LastPutDoneUnder(storage::Manifest::CheckpointPrefix(kJob, e.checkpoint_id));
      if (t && (!last || *t > *last)) last = t;
    }
    if (last) r.ttfd_ms.Add(Ms(*last - cut.submit));
  }
  r.rpo_iters = spec.interval;

  // Node-loss events from a seeded failure trace: shard s lives on node
  // s % nodes, two shards per node.
  sim::ClusterConfig cc;
  cc.nodes = spec.num_shards / 2;
  const sim::ClusterModel cluster(cc);
  sim::FailureRateModel rate;
  rate.failures_per_node_hour = 0.01;
  sim::FailureTrace trace;
  for (double horizon = 1000; trace.events.size() < spec.restores; horizon *= 2) {
    util::Rng rng(opt.seed * 7919 + 17);
    trace = sim::GenerateNodeFailureTrace(rng, cc, rate, horizon);
  }

  RestoreStats rst;
  Samples partial_mb, full_mb;
  dlrm::DlrmModel full(mcfg);
  try {
    const auto a = Clock::now();
    const core::ShardedRestoreResult fr = core::RestoreShardedModel(
        st.service->store(), kJob, full, std::nullopt, OnService(*st.service));
    tracer.Record("core.sharded.full_restore", a, Clock::now());
    full_mb.Add(static_cast<double>(fr.bytes_read) / kMB);
    if (fr.batches_trained != cut_progress.batches || fr.samples_trained != cut_progress.samples ||
        !(data::ReaderState::Decode(fr.reader_state) == cut_reader)) {
      r.Fail("full restore progress differs from the trainer's last cut");
    }
  } catch (const std::exception& e) {
    r.Fail(std::string("full restore: ") + e.what());
  }
  dlrm::DlrmModel victim(mcfg);
  for (std::size_t k = 0; k < spec.restores; ++k) {
    const auto lost_sz = cluster.LostShards(trace.events[k].nodes, spec.num_shards);
    const std::vector<std::uint32_t> lost(lost_sz.begin(), lost_sz.end());
    // The lost node's memory is gone: wipe its shards before recovering them.
    for (std::size_t t = 0; t < victim.num_tables(); ++t) {
      for (const std::uint32_t s : lost) {
        if (s >= victim.table(t).num_shards()) continue;
        tensor::EmbeddingTable& shard = victim.table(t).Shard(s);
        for (std::size_t row = 0; row < shard.num_rows(); ++row) {
          std::fill(shard.Row(row).begin(), shard.Row(row).end(), 0.0f);
          shard.AdagradState(row) = 0.0f;
        }
      }
    }
    ++r.attempted;
    try {
      const auto a = Clock::now();
      const core::ShardedRestoreResult pr = core::RestorePartial(
          st.service->store(), kJob, victim, lost, std::nullopt, OnService(*st.service));
      const auto b = Clock::now();
      tracer.Record("core.sharded.partial_restore", a, b, 0, k);
      r.recovery_ms.Add(Ms(b - a));
      rst.Add(pr.timings, pr.checkpoints_applied, pr.bytes_read);
      partial_mb.Add(static_cast<double>(pr.bytes_read) / kMB);
      if (opt.corrupt_restore && k == 0) Corrupt(victim);
      bool same = true;
      for (std::size_t t = 0; t < victim.num_tables(); ++t) {
        for (const std::uint32_t s : lost) {
          if (s < victim.table(t).num_shards() &&
              !(victim.table(t).Shard(s) == full.table(t).Shard(s))) {
            same = false;
          }
        }
      }
      if (!same) r.Fail("partially restored shards differ from the full restore");
    } catch (const std::exception& e) {
      r.Fail(std::string("partial restore: ") + e.what());
    }
    if (spec.full_every && (k + 1) % spec.full_every == 0) {
      ++r.attempted;
      dlrm::DlrmModel again(mcfg);
      try {
        const core::ShardedRestoreResult fr = core::RestoreShardedModel(
            st.service->store(), kJob, again, std::nullopt, OnService(*st.service));
        full_mb.Add(static_cast<double>(fr.bytes_read) / kMB);
        if (!again.StateEquals(full)) r.Fail("full restores of the same cut differ");
      } catch (const std::exception& e) {
        r.Fail(std::string("full restore: ") + e.what());
      }
    }
  }
  r.restored_loss = HeldOutLoss(full, ds, spec.batch_size);

  if (tracer.enabled()) {
    AddStepLayer(r, steps);
    r.layer["core.sharded.submit_cut_ms_p50"] = submit_ms.P50();
    r.layer["core.sharded.cut_wait_ms_p50"] = wait_ms.P50();
    r.layer["core.sharded.partial_read_mb"] = partial_mb.P50();
    r.layer["core.sharded.full_read_mb"] = full_mb.P50();
    AddExecutorLayer(r, ex, r.loop_s * 1e3);
    AddStorageLayer(r, nullptr, *st.far, *st.service, 0);
    rst.Report(r);
  }
  return r;
}

// ------------------------------------------------------------ bounds --------

// In-process hardware bounds on the run's own data and directory.

// Single-thread memcpy of a snapshot-sized buffer (CreateSnapshot copies on
// the trainer thread).
double MemcpyGBps(std::size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  Samples gbps;
  for (int i = 0; i < 7; ++i) {
    const auto a = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const auto b = Clock::now();
    gbps.Add(static_cast<double>(bytes) / 1e9 / std::chrono::duration<double>(b - a).count());
    src[static_cast<std::size_t>(i) % bytes] = static_cast<char>(dst[bytes / 2] + i);
  }
  return gbps.P50();
}

// The public codec kernel (EncodeRow) on the model's rows with the codec the
// workload's checkpoints use, one thread.
double CodecMBps(const dlrm::DlrmModel& model, const quant::QuantConfig& qc) {
  const tensor::EmbeddingTable& shard = model.table(0).Shard(0);
  const std::size_t rows = std::min<std::size_t>(shard.num_rows(), 16384);
  util::Rng rng(7);
  Samples mbps;
  for (int rep = 0; rep < 3; ++rep) {
    util::Writer w;
    const auto a = Clock::now();
    for (std::size_t r = 0; r < rows; ++r) quant::EncodeRow(w, shard.Row(r), qc, rng);
    const auto b = Clock::now();
    const double in = static_cast<double>(rows * shard.dim() * sizeof(float));
    mbps.Add(in / kMB / std::chrono::duration<double>(b - a).count());
  }
  return mbps.P50();
}

// Raw write + fsync + rename of chunk-sized files in the near tier's
// directory: the device bound a FileStore Put can approach.
double NearWriteMBps(const fs::path& dir, std::size_t object_bytes) {
  fs::create_directories(dir);
  std::vector<char> buf(object_bytes, 'x');
  constexpr int kFiles = 64;
  const auto a = Clock::now();
  for (int i = 0; i < kFiles; ++i) {
    const fs::path tmp = dir / ("probe-" + std::to_string(i) + ".part");
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return 0;
    const ssize_t n = ::write(fd, buf.data(), buf.size());
    ::fsync(fd);
    ::close(fd);
    if (n != static_cast<ssize_t>(buf.size())) return 0;
    fs::rename(tmp, dir / ("probe-" + std::to_string(i)));
  }
  const double s = std::chrono::duration<double>(Clock::now() - a).count();
  fs::remove_all(dir);
  return static_cast<double>(object_bytes) * kFiles / kMB / s;
}

// ------------------------------------------------------------ reporting -----

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"train_samples_per_s", "1/s"}, {"stall_ms_p50", "ms"},
    {"stall_ms_p90", "ms"},     {"ttv_ms_p50", "ms"},           {"ttv_ms_p90", "ms"},
    {"ttfd_ms_p50", "ms"},      {"recovery_ms_p50", "ms"},      {"recovery_ms_p90", "ms"},
    {"write_mb_per_ckpt", "MB"}, {"far_mb_peak", "MB"},          {"rpo_iters", "iters"},
    {"restored_loss", "BCE"},   {"peak_rss_mb", "MB"},
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.P50();
}

struct Pooled {
  Samples rate, stall, ttv, ttfd, recovery;
};

std::map<std::string, double> EndToEnd(const std::vector<Round>& rounds) {
  Pooled p;
  for (const Round& r : rounds) {
    p.rate.Append(r.rate);
    p.stall.Append(r.stall_ms);
    p.ttv.Append(r.ttv_ms);
    p.ttfd.Append(r.ttfd_ms);
    p.recovery.Append(r.recovery_ms);
  }
  const Round& first = rounds.front();
  std::map<std::string, double> m;
  m["train_samples_per_s"] = p.rate.P90();
  m["stall_ms_p50"] = p.stall.P50();
  m["stall_ms_p90"] = p.stall.P90();
  m["ttv_ms_p50"] = p.ttv.P50();
  m["ttv_ms_p90"] = p.ttv.P90();
  m["ttfd_ms_p50"] = p.ttfd.P50();
  m["recovery_ms_p50"] = p.recovery.P50();
  m["recovery_ms_p90"] = p.recovery.P90();
  m["write_mb_per_ckpt"] =
      first.units ? static_cast<double>(first.bytes_written) / kMB / static_cast<double>(first.units)
                  : 0.0;
  m["far_mb_peak"] = static_cast<double>(first.far_peak_bytes) / kMB;
  m["rpo_iters"] = static_cast<double>(first.rpo_iters);
  m["restored_loss"] = first.restored_loss;
  m["peak_rss_mb"] = PeakRssMb();
  return m;
}

struct LayerDef {
  std::string name;
  const char* unit;
  // Measured on every workload. Only these go into the result line (and
  // BENCHMARK.json): a layer one workload never exercises would read a
  // constant there. The report above the result line prints them all.
  bool every_workload;
};

// Per-layer metrics, in report order.
std::vector<LayerDef> PerLayerDefs() {
  std::vector<LayerDef> d = {
      {"data.next_batch_wait_ms_sum", "ms", true},
      {"dlrm.train_batch_ms_p50", "ms", true},
      {"core.tracking.harvest_ms_p50", "ms", false},
      {"core.service.admission_wait_ms_p50", "ms", false},
      {"core.service.admission_wait_ms_p90", "ms", false},
      {"core.snapshot.copy_ms_p50", "ms", false},
      {"core.snapshot.copy_gb_per_s", "GB/s", false},
      {"bound.memcpy_gb_per_s", "GB/s", true},
      {"core.pipeline.plan_ms_p50", "ms", false},
      {"core.pipeline.encode_ms_p50", "ms", false},
      {"core.pipeline.encode_queue_ms_p50", "ms", false},
      {"core.pipeline.store_ms_p50", "ms", false},
      {"core.pipeline.store_queue_ms_p50", "ms", false},
      {"core.pipeline.commit_ms_p50", "ms", false},
      {"quant.encode_mb_per_s", "MB/s", false},
      {"bound.codec_mb_per_s", "MB/s", true},
  };
  for (const StageDef& st : kStages) {
    const std::string prefix = std::string("core.executor.") + st.name;
    d.push_back({prefix + ".busy_ms", "ms", st.every_workload});
    d.push_back({prefix + ".occupancy", "1", st.every_workload});
  }
  const LayerDef tail[] = {
      {"core.executor.rebalances", "count", true},
      {"storage.near.put_ms_p50", "ms", false},
      {"storage.near.put_ms_p90", "ms", false},
      {"storage.near.puts", "count", false},
      {"storage.near.put_mb", "MB", false},
      {"storage.near.put_mb_per_s", "MB/s", false},
      {"storage.near.deletes", "count", false},
      {"storage.near.delete_ms_p50", "ms", false},
      {"storage.near.lists", "count", false},
      {"storage.near.list_ms_p50", "ms", false},
      {"bound.near_write_mb_per_s", "MB/s", true},
      {"storage.far.put_ms_p50", "ms", true},
      {"storage.far.puts", "count", true},
      {"storage.far.gets", "count", false},
      {"storage.far.get_mb", "MB", false},
      {"storage.far.live_mb_peak", "MB", true},
      {"storage.far.deletes", "count", false},
      {"storage.far.delete_ms_p50", "ms", false},
      {"storage.far.lists", "count", false},
      {"storage.far.list_ms_p50", "ms", false},
      {"storage.tiered.drain_lag_ms_p50", "ms", false},
      {"storage.tiered.dirty_mb_peak", "MB", false},
      {"storage.tiered.near_hit_ratio", "1", false},
      {"storage.tiered.evicted_objects", "count", false},
      {"storage.tiered.superseded_units", "count", false},
      {"core.delta_log.append_ms_p50", "ms", false},
      {"core.delta_log.flush_ms_p50", "ms", false},
      {"core.delta_log.segment_kb_mean", "KB", false},
      {"core.delta_log.compact_ms_p50", "ms", false},
      {"core.delta_log.replay_ms_p50", "ms", false},
      {"core.restore.resolve_ms_p50", "ms", true},
      {"core.restore.fetch_ms_p50", "ms", true},
      {"core.restore.fetch_queue_ms_p50", "ms", false},
      {"core.restore.decode_ms_p50", "ms", true},
      {"core.restore.apply_ms_p50", "ms", true},
      {"core.restore.chain_len", "count", true},
      {"core.restore.read_mb", "MB", true},
      {"core.sharded.submit_cut_ms_p50", "ms", false},
      {"core.sharded.cut_wait_ms_p50", "ms", false},
      {"core.sharded.partial_read_mb", "MB", false},
      {"core.sharded.full_read_mb", "MB", false},
      {"trace.trainer_coverage", "1", true},
      {"trace.train_samples_per_s", "1/s", true},
      {"trace.stall_ms_p50", "ms", true},
      {"trace.ttv_ms_p50", "ms", true},
      {"trace.ttfd_ms_p50", "ms", true},
      {"trace.recovery_ms_p50", "ms", true},
  };
  d.insert(d.end(), std::begin(tail), std::end(tail));
  return d;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Options opt = ParseArgs(argc, argv);
  // Keep freed memory in the heap instead of returning it to the kernel.
  // With glibc's adaptive thresholds some processes page-fault every 16 MB
  // snapshot and restore buffer afresh and others reuse them, which made
  // the stall 3 ms in one run and 12 ms in the next.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Spec spec = SpecFor(opt.workload);
  Tracer tracer(opt.trace);
  fs::create_directories(opt.work_dir);

  auto run_round = [&](int idx, Clock::time_point t0, bool setup_only) {
    if (opt.workload == "interval-tiered") {
      return RunIntervalTiered(spec, opt, idx, t0, setup_only, tracer);
    }
    if (opt.workload == "delta-stream") {
      return RunDeltaStream(spec, opt, idx, t0, setup_only, tracer);
    }
    return RunShardFailover(spec, opt, idx, t0, setup_only, tracer);
  };

  std::vector<double> setups;
  // Rounds while the next one is expected to end within the time budget
  // (at least one round).
  std::vector<Round> rounds;
  const auto budget = std::chrono::duration<double>(opt.seconds);
  for (int idx = 0;; ++idx) {
    const auto t0 = Clock::now();
    if (opt.trace) tracer.Clear();  // the trace file keeps the last round
    try {
      rounds.push_back(run_round(idx, idx == 0 ? process_start : t0, false));
      const Round& r = rounds.back();
      setups.push_back(r.setup_s);
      // Set-up alone, several times after each round, so that set-ups sample
      // the whole run rather than one moment of a shared machine. setup_s is
      // the median of these and of the rounds' own set-ups (the first counts
      // from process start).
      for (int k = 0; k < kSetupsPerRound; ++k) {
        setups.push_back(run_round(idx, Clock::now(), true).setup_s);
      }
      std::fprintf(stderr,
                   "round %d: setup %.4f s, %.0f samples/s, stall p50 %.3f p90 %.3f, ttv p50 "
                   "%.2f p90 %.2f, ttfd p50 %.2f, recovery p50 %.3f ms\n",
                   idx, r.setup_s, r.rate.P50(), r.stall_ms.P50(), r.stall_ms.P90(),
                   r.ttv_ms.P50(), r.ttv_ms.P90(), r.ttfd_ms.P50(), r.recovery_ms.P50());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "round %d aborted: %s\n", idx, e.what());
      Round failed;
      failed.attempted = 1;
      failed.Fail(std::string("round aborted: ") + e.what());
      rounds.push_back(std::move(failed));
      break;
    }
    const auto now = Clock::now();
    if (opt.max_rounds > 0 ? idx + 1 >= opt.max_rounds
                           : now - process_start + (now - t0) > budget) {
      break;
    }
  }
  {
    Samples s, rate;
    for (double x : setups) s.Add(x);
    for (const Round& r : rounds) rate.Append(r.rate);
    std::fprintf(stderr, "setup: %zu set-ups, p50 %.4f s, min %.4f max %.4f\n", s.size(), s.P50(),
                 s.Quantile(0), s.Max());
    std::fprintf(stderr, "training windows: %zu, p50 %.0f p90 %.0f samples/s\n", rate.size(),
                 rate.P50(), rate.P90());
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  // Same seed, same inputs: every round must reproduce the first one's
  // byte counts, RPO and restored loss exactly.
  bool deterministic = true;
  ++attempted;
  for (const Round& r : rounds) {
    if (r.bytes_written != rounds.front().bytes_written ||
        r.far_peak_bytes != rounds.front().far_peak_bytes ||
        r.rpo_iters != rounds.front().rpo_iters ||
        r.restored_loss != rounds.front().restored_loss) {
      deterministic = false;
    }
  }
  if (!deterministic) {
    ++failed;
    std::fprintf(stderr, "FAIL: rounds of one seed disagree on bytes, RPO or restored loss\n");
  }

  std::map<std::string, double> e2e = EndToEnd(rounds);
  e2e["setup_s"] = Median(setups);
  std::printf("workload %s, seed %llu, %zu rounds, %zu executor workers\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), rounds.size(),
              ExecutorWorkers());
  for (const MetricDef& d : kEndToEnd) {
    std::printf("  %-34s %14.4f %s\n", d.name, e2e.at(d.name), d.unit);
  }

  // Per-layer scalars: the median over the rounds that recorded them.
  const std::vector<LayerDef> layer_defs = PerLayerDefs();
  std::map<std::string, double> layer;
  if (opt.trace) {
    for (const LayerDef& d : layer_defs) {
      std::vector<double> per_round;
      for (const Round& r : rounds) {
        const auto it = r.layer.find(d.name);
        if (it != r.layer.end()) per_round.push_back(it->second);
      }
      if (!per_round.empty()) layer[d.name] = Median(per_round);
    }
    // Bounds, measured on this run's data and directory.
    const dlrm::DlrmModel probe_model(ModelFor(spec));
    const core::ModelSnapshot snap = core::CreateSnapshot(probe_model, 0, 0, nullptr);
    layer["bound.memcpy_gb_per_s"] = MemcpyGBps(snap.StateBytes());
    // The codec on the workload's write path: the dynamic bit-width pick of
    // interval checkpoints, the default QuantConfig of delta segments and
    // sharded cuts.
    const quant::QuantConfig codec = opt.workload == "interval-tiered"
                                         ? quant::ConfigForRestarts(1)
                                         : quant::QuantConfig{};
    layer["bound.codec_mb_per_s"] = CodecMBps(probe_model, codec);
    const double near_puts = layer.count("storage.near.puts") ? layer["storage.near.puts"] : 0;
    const std::size_t object_bytes =
        near_puts > 0 ? static_cast<std::size_t>(layer["storage.near.put_mb"] * kMB / near_puts)
                      : 64 * 1024;
    layer["bound.near_write_mb_per_s"] =
        NearWriteMBps(opt.work_dir / "probe", std::max<std::size_t>(object_bytes, 4096));
    // Coverage: top-level trainer spans over the training-loop wall.
    std::vector<double> coverage;
    for (const Round& r : rounds) {
      if (r.loop_s > 0) coverage.push_back(r.trainer_covered_ms / (r.loop_s * 1e3));
    }
    layer["trace.trainer_coverage"] = coverage.empty() ? 0.0 : Median(coverage);
    ++attempted;
    if (layer["trace.trainer_coverage"] < 0.95) {
      ++failed;
      std::fprintf(stderr, "FAIL: trainer spans cover %.3f of the loop wall (< 0.95)\n",
                   layer["trace.trainer_coverage"]);
    }
    layer["trace.train_samples_per_s"] = e2e.at("train_samples_per_s");
    layer["trace.stall_ms_p50"] = e2e.at("stall_ms_p50");
    layer["trace.ttv_ms_p50"] = e2e.at("ttv_ms_p50");
    layer["trace.ttfd_ms_p50"] = e2e.at("ttfd_ms_p50");
    layer["trace.recovery_ms_p50"] = e2e.at("recovery_ms_p50");

    std::printf("per-layer (traced; - = not exercised by this workload):\n");
    for (const LayerDef& d : layer_defs) {
      const auto it = layer.find(d.name);
      if (it == layer.end()) {
        std::printf("  %-40s %14s %s\n", d.name.c_str(), "-", d.unit);
      } else {
        std::printf("  %-40s %14.4f %s\n", d.name.c_str(), it->second, d.unit);
      }
    }
    if (!opt.trace_out.empty() && !tracer.WriteChromeTrace(opt.trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", opt.trace_out.c_str());
    }
  }

  std::printf("  %-34s %14.4f (%llu of %llu)\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const char* unit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"" + unit +
            "\"}";
  };
  if (opt.trace) {
    for (const LayerDef& d : layer_defs) {
      if (d.every_workload) emit(d.name, layer[d.name], d.unit);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d.name, e2e.at(d.name), d.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
