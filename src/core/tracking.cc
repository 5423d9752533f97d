#include "core/tracking.h"

#include <stdexcept>

namespace cnr::core {

DirtySets MakeEmptyDirtySets(const dlrm::DlrmModel& model) {
  DirtySets sets(model.num_tables());
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    const auto& table = model.table(t);
    sets[t].reserve(table.num_shards());
    for (std::size_t s = 0; s < table.num_shards(); ++s) {
      sets[t].emplace_back(table.Shard(s).num_rows());
    }
  }
  return sets;
}

std::uint64_t CountDirtyRows(const DirtySets& sets) {
  std::uint64_t n = 0;
  for (const auto& table : sets) {
    for (const auto& shard : table) n += shard.Count();
  }
  return n;
}

std::uint64_t CountTotalRows(const dlrm::DlrmModel& model) {
  std::uint64_t n = 0;
  for (std::size_t t = 0; t < model.num_tables(); ++t) n += model.table(t).num_rows();
  return n;
}

bool SameShape(const DirtySets& a, const DirtySets& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    for (std::size_t s = 0; s < a[t].size(); ++s) {
      if (a[t][s].size() != b[t][s].size()) return false;
    }
  }
  return true;
}

void MergeDirtySets(DirtySets& dst, const DirtySets& src) {
  if (!SameShape(dst, src)) throw std::invalid_argument("MergeDirtySets: shapes differ");
  for (std::size_t t = 0; t < dst.size(); ++t) {
    for (std::size_t s = 0; s < dst[t].size(); ++s) dst[t][s] |= src[t][s];
  }
}

ModifiedRowTracker::ModifiedRowTracker(dlrm::DlrmModel& model)
    : model_(model), bits_(MakeEmptyDirtySets(model)) {
  for (std::size_t t = 0; t < model_.num_tables(); ++t) {
    auto& table = model_.table(t);
    for (std::size_t s = 0; s < table.num_shards(); ++s) {
      table.Shard(s).SetTracker([this, t, s](std::size_t row) {
        bits_[t][s].Set(row);
        ++hook_calls_;
      });
    }
  }
  attached_ = true;
}

ModifiedRowTracker::~ModifiedRowTracker() { Detach(); }

void ModifiedRowTracker::Detach() {
  if (!attached_) return;
  for (std::size_t t = 0; t < model_.num_tables(); ++t) {
    auto& table = model_.table(t);
    for (std::size_t s = 0; s < table.num_shards(); ++s) table.Shard(s).ClearTracker();
  }
  attached_ = false;
}

DirtySets ModifiedRowTracker::HarvestInterval() {
  DirtySets out = std::move(bits_);
  bits_ = MakeEmptyDirtySets(model_);
  return out;
}

}  // namespace cnr::core
