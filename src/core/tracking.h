// Modified-row tracking (paper §5.1.1).
//
// Each device tracks accesses to its local embedding shard in a bit-vector
// whose footprint is tiny relative to the model (<0.05%). The paper tracks
// during the forward pass and hides the cost under the AlltoAll communication
// phase (~1% of iteration time); here the hook fires on the update itself,
// which is strictly more precise (tracked == modified) and is the property
// incremental checkpoint correctness relies on.
//
// ModifiedRowTracker installs a hook on every shard of every embedding table
// of a model. Bits accumulate until HarvestInterval() is called at checkpoint
// time, which returns the per-shard dirty sets for the interval and clears
// them for the next interval.
#pragma once

#include <cstdint>
#include <vector>

#include "dlrm/model.h"
#include "util/bitvector.h"

namespace cnr::core {

// Dirty bits for every (table, shard) pair; indexed [table][shard].
using DirtySets = std::vector<std::vector<util::BitVector>>;

// Returns an all-clear DirtySets shaped like `model`'s sparse layer.
DirtySets MakeEmptyDirtySets(const dlrm::DlrmModel& model);

// Counts the set bits across all tables/shards.
std::uint64_t CountDirtyRows(const DirtySets& sets);

// Total rows across all tables/shards (for fraction-of-model measures).
std::uint64_t CountTotalRows(const dlrm::DlrmModel& model);

// True iff `a` and `b` have the same tables, shards per table and bits per
// shard.
bool SameShape(const DirtySets& a, const DirtySets& b);

// OR-merges `src` into `dst`. Throws std::invalid_argument, changing nothing,
// unless both have the same shape.
void MergeDirtySets(DirtySets& dst, const DirtySets& src);

class ModifiedRowTracker {
 public:
  // Installs tracking hooks on all embedding shards of `model`. The tracker
  // must outlive the hooks; Detach() (or destruction) removes them.
  explicit ModifiedRowTracker(dlrm::DlrmModel& model);
  ~ModifiedRowTracker();

  ModifiedRowTracker(const ModifiedRowTracker&) = delete;
  ModifiedRowTracker& operator=(const ModifiedRowTracker&) = delete;

  void Detach();

  // Dirty sets accumulated since the last harvest; clears the accumulator.
  DirtySets HarvestInterval();

  // Read-only view of the current accumulation (does not clear).
  const DirtySets& Current() const { return bits_; }

  // Rows marked since the last harvest.
  std::uint64_t DirtyRowCount() const { return CountDirtyRows(bits_); }

  // Tracking hook invocations (one per modified row update); used by the
  // overhead microbenchmarks.
  std::uint64_t hook_calls() const { return hook_calls_; }

 private:
  dlrm::DlrmModel& model_;
  DirtySets bits_;
  std::uint64_t hook_calls_ = 0;
  bool attached_ = false;
};

}  // namespace cnr::core
