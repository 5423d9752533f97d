// CheckFreq-style baseline checkpointer (Mohan et al., FAST'21) — the
// closest prior system the paper compares against (§1, §7).
//
// CheckFreq contributes (a) a two-phase snapshot/persist pipeline decoupled
// from training and (b) *adaptive rate tuning*: profile the iteration time
// and the checkpoint stall, then choose the checkpoint frequency so that
// checkpointing overhead stays within a budget (a few percent). It does NOT
// exploit recommendation-model structure: every checkpoint is a full fp32
// model. Implementing it here gives the evaluation a real prior-work
// baseline: same snapshot/write machinery, no incremental views, no
// quantization.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/snapshot.h"
#include "core/writer.h"
#include "data/reader.h"
#include "dlrm/model.h"
#include "storage/object_store.h"

namespace cnr::core {

struct CheckFreqConfig {
  std::string job = "checkfreq";
  // Maximum fraction of training time the snapshot stall may consume
  // (CheckFreq's overhead budget; its paper targets single-digit percent).
  double overhead_budget = 0.035;
  // Batches used to profile the mean iteration time before tuning.
  std::uint64_t profile_batches = 16;
  // Floor/ceiling for the tuned interval.
  std::uint64_t min_interval_batches = 1;
  std::uint64_t max_interval_batches = 100000;

  std::size_t chunk_rows = 1024;
  bool gc = true;
};

struct CheckFreqStats {
  std::uint64_t checkpoint_id = 0;
  std::uint64_t bytes_written = 0;
  std::chrono::microseconds stall_wall{0};
  std::chrono::microseconds train_wall{0};
};

class CheckFreqBaseline {
 public:
  CheckFreqBaseline(dlrm::DlrmModel& model, data::ReaderMaster& reader,
                    std::shared_ptr<storage::ObjectStore> store, CheckFreqConfig config);

  // Profiles iteration and snapshot costs on the live system, then derives
  // the checkpoint interval:
  //   interval = stall_time / (budget * batch_time)
  // clamped to [min, max]. Must be called before Run(); returns the tuned
  // interval in batches. Consumes `profile_batches` batches of the stream.
  std::uint64_t Tune();

  // Runs `checkpoints` full-checkpoint intervals at the tuned rate.
  std::vector<CheckFreqStats> Run(std::size_t checkpoints);

  std::uint64_t tuned_interval_batches() const { return interval_batches_; }
  std::uint64_t batches_trained() const { return batches_trained_; }

 private:
  dlrm::DlrmModel& model_;
  data::ReaderMaster& reader_;
  std::shared_ptr<storage::ObjectStore> store_;
  CheckFreqConfig cfg_;

  std::uint64_t interval_batches_ = 0;
  std::uint64_t batches_trained_ = 0;
  std::uint64_t samples_trained_ = 0;
  std::uint64_t next_checkpoint_id_ = 1;
};

}  // namespace cnr::core
