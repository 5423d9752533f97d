#include "core/checkfreq.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/maintenance.h"

namespace cnr::core {

CheckFreqBaseline::CheckFreqBaseline(dlrm::DlrmModel& model, data::ReaderMaster& reader,
                                     std::shared_ptr<storage::ObjectStore> store,
                                     CheckFreqConfig config)
    : model_(model),
      reader_(reader),
      store_(std::move(store)),
      cfg_(std::move(config)) {
  if (!store_) throw std::invalid_argument("CheckFreqBaseline: null store");
  if (cfg_.overhead_budget <= 0.0 || cfg_.overhead_budget >= 1.0) {
    throw std::invalid_argument("CheckFreqBaseline: budget in (0,1)");
  }
  if (cfg_.profile_batches == 0) {
    throw std::invalid_argument("CheckFreqBaseline: need profile batches");
  }
}

std::uint64_t CheckFreqBaseline::Tune() {
  // Phase 1: profile the mean iteration time on real batches.
  reader_.AllowBatches(cfg_.profile_batches);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t profiled = 0;
  while (auto batch = reader_.NextBatch()) {
    model_.TrainBatch(*batch);
    ++batches_trained_;
    samples_trained_ += batch->size();
    ++profiled;
  }
  const auto train_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const double batch_us =
      static_cast<double>(train_us) / static_cast<double>(std::max<std::uint64_t>(1, profiled));

  // Phase 2: profile the snapshot stall (CheckFreq's checkpoint cost probe).
  const auto snap = CreateSnapshot(model_, batches_trained_, samples_trained_);
  const double stall_us = static_cast<double>(std::max<std::int64_t>(
      snap.stall_wall.count(), 1));

  // interval such that stall / (interval * batch_time) <= budget.
  const double raw = stall_us / (cfg_.overhead_budget * batch_us);
  interval_batches_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(raw)), cfg_.min_interval_batches,
      cfg_.max_interval_batches);
  return interval_batches_;
}

std::vector<CheckFreqStats> CheckFreqBaseline::Run(std::size_t checkpoints) {
  if (interval_batches_ == 0) {
    throw std::logic_error("CheckFreqBaseline: call Tune() before Run()");
  }
  std::vector<CheckFreqStats> out;
  out.reserve(checkpoints);

  WriterConfig wcfg;
  wcfg.job = cfg_.job;
  wcfg.chunk_rows = cfg_.chunk_rows;
  wcfg.quant.method = quant::Method::kNone;  // CheckFreq stores full fp32

  for (std::size_t c = 0; c < checkpoints; ++c) {
    reader_.AllowBatches(interval_batches_);
    const auto t0 = std::chrono::steady_clock::now();
    while (auto batch = reader_.NextBatch()) {
      model_.TrainBatch(*batch);
      ++batches_trained_;
      samples_trained_ += batch->size();
    }
    const auto train_wall = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);

    const data::ReaderState reader_state = reader_.CollectState();
    ModelSnapshot snap = CreateSnapshot(model_, batches_trained_, samples_trained_);

    CheckpointPlan plan;
    plan.kind = storage::CheckpointKind::kFull;
    const std::uint64_t id = next_checkpoint_id_++;
    const auto result = WriteCheckpoint(*store_, snap, plan, wcfg, id, reader_state.Encode());
    if (cfg_.gc) {
      // CheckFreq keeps only the newest full: the same per-job GC kernel the
      // service runs after each commit, refusing on a broken newest lineage.
      const GcJobReport gc = GcJob(*store_, cfg_.job);
      if (!gc.refused.empty()) throw std::runtime_error("gc: " + gc.refused);
    }

    CheckFreqStats stats;
    stats.checkpoint_id = id;
    stats.bytes_written = result.bytes_written;
    stats.stall_wall = snap.stall_wall;
    stats.train_wall = train_wall;
    out.push_back(stats);
  }
  return out;
}

}  // namespace cnr::core
