#include "core/checknrun.h"

#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace cnr::core {

namespace {

std::chrono::microseconds Us(std::uint64_t us) {
  return std::chrono::microseconds(static_cast<std::int64_t>(us));
}

}  // namespace

JobConfig CheckNRun::MakeJobConfig() const {
  JobConfig job;
  job.name = cfg_.job;
  job.weight = cfg_.job_weight;
  job.max_inflight_checkpoints = cfg_.max_inflight_checkpoints;
  job.policy = cfg_.policy;
  job.policy_options = cfg_.policy_options;
  job.quantize = cfg_.quantize;
  job.dynamic_bitwidth = cfg_.dynamic_bitwidth;
  job.expected_restarts = cfg_.expected_restarts;
  job.quant = cfg_.quant;
  job.chunk_rows = cfg_.chunk_rows;
  job.gc = cfg_.gc;
  job.keep_checkpoints = cfg_.keep_checkpoints;
  job.model = &model_;
  return job;
}

CheckNRun::CheckNRun(dlrm::DlrmModel& model, data::ReaderMaster& reader,
                     std::shared_ptr<storage::ObjectStore> store, CheckNRunConfig config)
    : model_(model),
      reader_(reader),
      cfg_(std::move(config)) {
  if (!store) throw std::invalid_argument("CheckNRun: null store");
  if (cfg_.interval_batches == 0) throw std::invalid_argument("CheckNRun: empty interval");
  if (cfg_.max_inflight_checkpoints == 0) {
    throw std::invalid_argument("CheckNRun: max_inflight_checkpoints == 0");
  }

  ServiceConfig svc;
  svc.encode_threads = cfg_.pipeline_threads;
  svc.store_threads = cfg_.pipeline_threads;
  svc.queue_capacity = cfg_.queue_capacity;
  svc.max_inflight_checkpoints = cfg_.max_inflight_checkpoints;
  svc.release_slot_on_stored = cfg_.release_slot_on_stored;
  svc.put_attempts = cfg_.put_attempts;
  owned_service_ = std::make_unique<CheckpointService>(std::move(store), svc);
  service_ = owned_service_.get();
  handle_ = service_->OpenJob(MakeJobConfig());
}

CheckNRun::CheckNRun(dlrm::DlrmModel& model, data::ReaderMaster& reader,
                     CheckpointService& service, CheckNRunConfig config)
    : model_(model),
      reader_(reader),
      cfg_(std::move(config)),
      service_(&service) {
  if (cfg_.interval_batches == 0) throw std::invalid_argument("CheckNRun: empty interval");
  if (cfg_.max_inflight_checkpoints == 0) {
    throw std::invalid_argument("CheckNRun: max_inflight_checkpoints == 0");
  }
  handle_ = service_->OpenJob(MakeJobConfig());
}

CheckNRun::~CheckNRun() {
  // Consume every outstanding ticket; a failed background write is already
  // the caller's problem if they Drain() explicitly, and the destructor must
  // not throw.
  while (!tickets_.empty()) {
    try {
      Drain();
    } catch (...) {
    }
  }
}

quant::QuantConfig CheckNRun::EffectiveQuantConfig() const {
  return handle_->EffectiveQuantConfig();
}

void CheckNRun::OnRestartObserved() { handle_->OnRestartObserved(); }

std::uint64_t CheckNRun::observed_restarts() const { return handle_->observed_restarts(); }

void CheckNRun::SetProgress(std::uint64_t batches, std::uint64_t samples) {
  batches_trained_ = batches;
  samples_trained_ = samples;
}

void CheckNRun::SetNextCheckpointId(std::uint64_t next_id) {
  handle_->SetNextCheckpointId(next_id);
}

void CheckNRun::FinalizeFrontTicket() {
  // Pop before get(): if the write failed, the ticket is already retired and
  // the failure cannot poison the next interval's stats. The policy's
  // re-baseline on failure happened on the commit thread, before the future
  // became ready.
  PendingTicket ticket = std::move(tickets_.front());
  tickets_.pop_front();
  const WriteResult result = ticket.future.get();  // rethrows a failed write

  IntervalStats stats = ticket.stats;
  stats.bytes_written = result.bytes_written;
  stats.rows_written = result.rows_written;
  stats.stall_wall = Us(result.timings.snapshot_us);
  stats.write_wall = result.write_wall;
  stats.timings = result.timings;
  stats.store_bytes = service_->store().TotalBytes();  // occupancy after GC
  completed_.push_back(stats);
}

void CheckNRun::ReapCompletedTickets() {
  while (!tickets_.empty() && tickets_.front().future.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready) {
    FinalizeFrontTicket();
  }
}

void CheckNRun::Drain() {
  while (!tickets_.empty()) FinalizeFrontTicket();
}

void CheckNRun::Step() {
  // Step 1: reader coordination — produce exactly interval_batches batches.
  reader_.AllowBatches(cfg_.interval_batches);

  const auto train_start = std::chrono::steady_clock::now();
  dlrm::BatchMetrics interval_metrics;
  while (auto batch = reader_.NextBatch()) {
    const auto m = model_.TrainBatch(*batch);
    interval_metrics.Merge(m);
    metrics_.Add(m);
    ++batches_trained_;
    samples_trained_ += batch->size();
  }
  const auto train_wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - train_start);

  // Finalize whatever already finished so completed() stays fresh without
  // blocking; the §4.3 non-overlap wait (if any) happens inside the
  // service's admission gate during Submit below. Reaping happens BEFORE
  // the dirty harvest: a failed write rethrows from here, and the interval's
  // dirty bits must stay accumulated in the tracker (not be lost in an
  // unwound local) so no modified row ever goes missing from a later plan.
  ReapCompletedTickets();

  IntervalSubmission submission;
  submission.interval_dirty = handle_->tracker().HarvestInterval();
  const double dirty_fraction = static_cast<double>(CountDirtyRows(submission.interval_dirty)) /
                                static_cast<double>(CountTotalRows(model_));

  // Gap-free reader state: the trainer consumed every allowed batch, so the
  // reader is quiescent and its state matches the trainer exactly (§4.1).
  submission.reader_state = reader_.CollectState().Encode();
  submission.snapshot_fn = [this] {
    // Stall training only for the in-memory snapshot (§4.2); runs on this
    // (trainer) thread once the service admits the checkpoint.
    return CreateSnapshot(model_, batches_trained_, samples_trained_);
  };

  SubmittedCheckpoint submitted = handle_->Submit(std::move(submission));

  IntervalStats stats;
  stats.checkpoint_id = submitted.checkpoint_id;
  stats.kind = submitted.kind;
  stats.dirty_fraction = dirty_fraction;
  stats.mean_loss = interval_metrics.MeanLoss();
  stats.train_wall = train_wall;
  tickets_.push_back(PendingTicket{stats, std::move(submitted.future)});
}

std::vector<IntervalStats> CheckNRun::Run(std::size_t intervals) {
  const std::size_t first = completed_.size();
  for (std::size_t i = 0; i < intervals; ++i) Step();
  Drain();
  return {completed_.begin() + static_cast<std::ptrdiff_t>(first), completed_.end()};
}

}  // namespace cnr::core
