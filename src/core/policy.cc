#include "core/policy.h"

#include <algorithm>
#include <stdexcept>

namespace cnr::core {

namespace {

// A dirty set the policy consumes must cover exactly the model's rows and,
// once the policy accumulates a union, match that union's shape.
void CheckDirtyShape(const DirtySets& dirty, std::uint64_t total_rows,
                     const std::optional<DirtySets>& since_baseline) {
  std::uint64_t rows = 0;
  for (const auto& table : dirty) {
    for (const auto& shard : table) rows += shard.size();
  }
  if (rows != total_rows || (since_baseline && !SameShape(dirty, *since_baseline))) {
    throw std::invalid_argument(
        "IncrementalPolicy: interval dirty set does not match the model's shape (" +
        std::to_string(rows) + " rows; the model has " + std::to_string(total_rows) + ")");
  }
}

}  // namespace

std::string PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAlwaysFull: return "always-full";
    case PolicyKind::kOneShot: return "one-shot";
    case PolicyKind::kConsecutive: return "consecutive";
    case PolicyKind::kIntermittent: return "intermittent";
  }
  return "?";
}

IncrementalPolicy::IncrementalPolicy(PolicyKind kind, std::uint64_t total_rows,
                                     PolicyOptions options)
    : kind_(kind), total_rows_(total_rows), options_(options) {
  if (total_rows == 0) throw std::invalid_argument("IncrementalPolicy: zero rows");
  if (options_.ewma_alpha <= 0.0 || options_.ewma_alpha > 1.0) {
    throw std::invalid_argument("IncrementalPolicy: ewma_alpha in (0,1]");
  }
}

bool IncrementalPolicy::ShouldRebaseline(const std::vector<double>& history) {
  if (history.empty()) return false;
  const auto i = history.size();  // number of incrementals taken so far
  double fc = 1.0;
  for (const double s : history) fc += s;
  const double ic = static_cast<double>(i + 1) * history.back();
  return fc <= ic;
}

bool IncrementalPolicy::ShouldRebaselineEwma(const std::vector<double>& history,
                                             double alpha) {
  if (history.empty()) return false;
  const auto i = history.size();
  double fc = 1.0;
  for (const double s : history) fc += s;
  // EWMA of per-interval growth deltas forecasts the next incremental size.
  double growth = 0.0;
  for (std::size_t k = 1; k < history.size(); ++k) {
    growth = alpha * (history[k] - history[k - 1]) + (1.0 - alpha) * growth;
  }
  const double forecast = std::min(1.0, std::max(history.back(), history.back() + growth));
  const double ic = static_cast<double>(i + 1) * forecast;
  return fc <= ic;
}

void IncrementalPolicy::OnCheckpointFailed() {
  have_baseline_ = false;
  baseline_id_ = 0;
  since_baseline_.reset();
  history_.clear();
}

CheckpointPlan IncrementalPolicy::Plan(std::uint64_t checkpoint_id, DirtySets interval_dirty) {
  if (have_baseline_ && checkpoint_id <= last_checkpoint_id_) {
    throw std::invalid_argument("IncrementalPolicy: checkpoint ids must increase");
  }
  // Validate before any state moves, so a malformed submission throws and
  // leaves the policy as it was. A full plan ignores the dirty set.
  if (have_baseline_ && kind_ != PolicyKind::kAlwaysFull) {
    CheckDirtyShape(interval_dirty, total_rows_, since_baseline_);
  }
  const std::uint64_t previous_id = last_checkpoint_id_;
  last_checkpoint_id_ = checkpoint_id;

  CheckpointPlan plan;

  const auto make_full = [&] {
    plan.kind = storage::CheckpointKind::kFull;
    plan.parent_id = 0;
    have_baseline_ = true;
    baseline_id_ = checkpoint_id;
    since_baseline_.reset();
    history_.clear();
  };

  if (!have_baseline_ || kind_ == PolicyKind::kAlwaysFull) {
    make_full();
    return plan;
  }

  switch (kind_) {
    case PolicyKind::kOneShot: {
      if (!since_baseline_) {
        since_baseline_ = std::move(interval_dirty);
      } else {
        MergeDirtySets(*since_baseline_, interval_dirty);
      }
      plan.kind = storage::CheckpointKind::kIncremental;
      plan.parent_id = baseline_id_;
      plan.rows = *since_baseline_;  // copy; policy keeps accumulating
      history_.push_back(static_cast<double>(CountDirtyRows(plan.rows)) /
                         static_cast<double>(total_rows_));
      return plan;
    }
    case PolicyKind::kConsecutive: {
      plan.kind = storage::CheckpointKind::kIncremental;
      // Chain to the checkpoint this policy planned last. Ids need not be
      // consecutive: a sharded job numbers every shard's sub-checkpoints
      // from one counter, so id - 1 is another shard's.
      plan.parent_id = previous_id;
      plan.rows = std::move(interval_dirty);
      history_.push_back(static_cast<double>(CountDirtyRows(plan.rows)) /
                         static_cast<double>(total_rows_));
      return plan;
    }
    case PolicyKind::kIntermittent: {
      // Accumulate first, then ask the predictor whether the *next* write
      // should be a fresh baseline instead of this growing incremental.
      if (!since_baseline_) {
        since_baseline_ = std::move(interval_dirty);
      } else {
        MergeDirtySets(*since_baseline_, interval_dirty);
      }
      const bool rebaseline = options_.ewma_predictor
                                  ? ShouldRebaselineEwma(history_, options_.ewma_alpha)
                                  : ShouldRebaseline(history_);
      if (rebaseline) {
        make_full();
        return plan;
      }
      plan.kind = storage::CheckpointKind::kIncremental;
      plan.parent_id = baseline_id_;
      plan.rows = *since_baseline_;
      history_.push_back(static_cast<double>(CountDirtyRows(plan.rows)) /
                         static_cast<double>(total_rows_));
      return plan;
    }
    case PolicyKind::kAlwaysFull:
      break;  // handled above
  }
  make_full();
  return plan;
}

}  // namespace cnr::core
