// Check-N-Run controller — one training session attached to the checkpoint
// engine (paper §4, Fig 7).
//
// The controller is a compatibility facade over the redesigned submission
// API: a core::CheckpointService (the shared multi-job engine owning the
// stage workers, scheduler, commit thread, and retry/accounting store view)
// plus one core::JobHandle (this job's tracker, incremental policy, quant
// selector, checkpoint numbering, and commit/lineage state) plus the
// training loop. Per interval it:
//   1. tells the reader master exactly how many batches to produce this
//      interval (gap-free reader/trainer coordination, §4.1),
//   2. trains those batches while tracking modified embedding rows (§5.1.1),
//   3. hands the interval's dirty rows to the job handle, whose policy
//      decides what the checkpoint contains (§5.1),
//   4. submits through the handle — the service stalls training only for
//      the in-memory snapshot (§4.2) and then quantizes, stores, and commits
//      on its background stage workers while the next interval trains,
//   5. when a checkpoint's future resolves, finalizes its IntervalStats and
//      lets the commit stage garbage-collect checkpoints no longer needed
//      for recovery (§4.4).
//
// Overlap policy: by default two consecutive checkpoints never overlap — the
// service admits a new snapshot only after the previous write committed
// (§4.3). Setting max_inflight_checkpoints > 1 relaxes this to a bounded
// number of concurrent checkpoint writes; commits still land in submission
// order, so recovery semantics are unchanged.
//
// Multi-job: construct several controllers over one shared CheckpointService
// (the second constructor) and their checkpoint streams share the service's
// workers under weighted round-robin fairness — see examples/multi_job.cpp.
// With the single-store constructor the controller owns a private service,
// which is the original one-job-one-pipeline behavior, bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "core/recovery.h"
#include "core/service.h"
#include "data/reader.h"
#include "dlrm/metrics.h"
#include "dlrm/model.h"
#include "storage/object_store.h"

namespace cnr::core {

struct CheckNRunConfig {
  std::string job = "job0";
  // Batches per checkpoint interval (the paper's default interval is 30
  // minutes of training; here it is expressed in batches, which is the unit
  // the reader-coordination protocol uses anyway).
  std::uint64_t interval_batches = 50;

  PolicyKind policy = PolicyKind::kIntermittent;
  PolicyOptions policy_options;

  // Quantization. With dynamic_bitwidth, bit-width/method come from the
  // expected restart count (§6.2.1); otherwise `quant` is used as given.
  bool quantize = true;
  bool dynamic_bitwidth = true;
  std::uint64_t expected_restarts = 1;
  quant::QuantConfig quant;

  std::size_t chunk_rows = 512;
  // Starting worker allotments of the private service's encode and store
  // stages (ServiceConfig::encode_threads/store_threads). Ignored with a
  // shared service, which has its own configuration. The snapshot copy
  // always runs on the trainer thread.
  std::size_t pipeline_threads = 4;
  // Capacity (in chunks) of the job's encoded-chunk budget; the bound is
  // what propagates store backpressure to the encoders.
  std::size_t queue_capacity = 16;
  // Checkpoint overlap policy. 1 (default) = strict §4.3 non-overlap: the
  // snapshot of interval k+1 waits for checkpoint k to commit. Values > 1
  // allow that many checkpoint writes in flight at once.
  std::size_t max_inflight_checkpoints = 1;
  // Release the admission slot when all chunks are stored (pre-commit)
  // instead of at commit — overlaps the next snapshot with the dense +
  // manifest publication tail. Off by default: the strict mode's "no
  // interleaved writes" guarantee holds only when slots are held to commit.
  bool release_slot_on_stored = false;
  // Weighted round-robin share of a *shared* service's encode/store stages
  // relative to other jobs (ignored by a private service, which has no
  // neighbors to be fair to).
  std::uint32_t job_weight = 1;
  // Attempts per object write before a checkpoint is abandoned (transient
  // storage failures are retried; the manifest-last protocol guarantees an
  // abandoned checkpoint is never considered valid).
  int put_attempts = 3;
  // Delete checkpoints that are not part of the newest checkpoints' recovery
  // chains after each successful checkpoint; `keep_checkpoints` recent
  // lineages are retained (debugging / transfer-learning retention, §1).
  bool gc = true;
  std::size_t keep_checkpoints = 1;
};

// Per-interval outcome, the raw material for Figs 15-17 plus the per-stage
// write-path breakdown.
struct IntervalStats {
  std::uint64_t checkpoint_id = 0;
  storage::CheckpointKind kind = storage::CheckpointKind::kFull;
  std::uint64_t bytes_written = 0;   // this checkpoint (bandwidth proxy)
  std::uint64_t rows_written = 0;
  std::uint64_t store_bytes = 0;     // store occupancy after GC (capacity)
  double dirty_fraction = 0.0;       // interval-dirty rows / total rows
  double mean_loss = 0.0;            // training loss over the interval
  std::chrono::microseconds stall_wall{0};   // trainer stalled (snapshot)
  std::chrono::microseconds train_wall{0};   // trainer busy (the interval)
  std::chrono::microseconds write_wall{0};   // snapshot -> valid
  // Per-stage pipeline breakdown (background, off the trainer's path).
  storage::StageTimings timings;
};

class CheckNRun {
 public:
  // The controller drives `model` with batches from `reader` and checkpoints
  // into `store` through a private CheckpointService. All three must outlive
  // the controller.
  CheckNRun(dlrm::DlrmModel& model, data::ReaderMaster& reader,
            std::shared_ptr<storage::ObjectStore> store, CheckNRunConfig config);
  // Attaches this training session to a shared CheckpointService: the job's
  // checkpoint stream shares the service's stage workers with every other
  // attached job under weighted round-robin fairness. The service (and the
  // model/reader) must outlive the controller.
  CheckNRun(dlrm::DlrmModel& model, data::ReaderMaster& reader, CheckpointService& service,
            CheckNRunConfig config);
  ~CheckNRun();

  CheckNRun(const CheckNRun&) = delete;
  CheckNRun& operator=(const CheckNRun&) = delete;

  // Trains one checkpoint interval and submits its checkpoint through the
  // job handle. Under the default overlap policy the submission blocks until
  // the previous checkpoint committed (§4.3); with
  // max_inflight_checkpoints > 1 up to that many writes proceed in parallel.
  void Step();

  // Waits for every in-flight checkpoint write, finalizing stats in interval
  // order. If a write failed, the failed interval is discarded and its error
  // rethrown; calling Drain() again continues with the remaining intervals.
  void Drain();

  // Runs `intervals` intervals (decoupled) and returns per-interval stats.
  std::vector<IntervalStats> Run(std::size_t intervals);

  // Stats of all checkpoints whose writes have completed, in interval order.
  const std::vector<IntervalStats>& completed() const { return completed_; }

  // Registers that the job resumed from a quantized checkpoint. Once observed
  // restarts exceed the configured expectation, subsequent checkpoints fall
  // back to 8-bit asymmetric quantization (paper §6.2.1).
  void OnRestartObserved();

  // Effective quantization config the next checkpoint will use.
  quant::QuantConfig EffectiveQuantConfig() const;

  std::uint64_t batches_trained() const { return batches_trained_; }
  std::uint64_t samples_trained() const { return samples_trained_; }
  std::uint64_t observed_restarts() const;
  const dlrm::MetricTracker& metrics() const { return metrics_; }

  // Checkpoint writes currently in flight (0 outside Step unless overlap is
  // enabled).
  std::size_t inflight_checkpoints() const { return tickets_.size(); }

  // This job's view of the engine.
  const JobHandle& job() const { return *handle_; }
  CheckpointService& service() { return *service_; }
  const CheckpointService& service() const { return *service_; }

  // Sets progress counters when resuming from a checkpoint.
  void SetProgress(std::uint64_t batches, std::uint64_t samples);

  // Continues checkpoint numbering after `last_id` so a resumed job never
  // overwrites surviving checkpoints. The first checkpoint after a resume is
  // always a fresh full baseline (the policy starts with no baseline).
  void SetNextCheckpointId(std::uint64_t next_id);

 private:
  // A submitted-but-not-finalized interval: stats known at submission plus
  // the service's future for the rest.
  struct PendingTicket {
    IntervalStats stats;
    std::future<WriteResult> future;
  };

  JobConfig MakeJobConfig() const;
  void FinalizeFrontTicket();   // blocking; rethrows a failed write
  void ReapCompletedTickets();  // non-blocking

  dlrm::DlrmModel& model_;
  data::ReaderMaster& reader_;
  CheckNRunConfig cfg_;

  dlrm::MetricTracker metrics_;

  std::uint64_t batches_trained_ = 0;
  std::uint64_t samples_trained_ = 0;

  std::deque<PendingTicket> tickets_;
  std::vector<IntervalStats> completed_;

  // Destruction order matters (members destruct in reverse declaration
  // order): the handle drains this job and detaches the tracker before a
  // private service goes away; a shared service outlives the controller by
  // contract.
  std::unique_ptr<CheckpointService> owned_service_;  // null when shared
  CheckpointService* service_ = nullptr;
  std::unique_ptr<JobHandle> handle_;
};

}  // namespace cnr::core
