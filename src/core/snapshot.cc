#include "core/snapshot.h"

#include "util/serialize.h"

namespace cnr::core {

std::size_t ModelSnapshot::TotalRows() const {
  std::size_t n = 0;
  for (const auto& table : shards) {
    for (const auto& s : table) n += s.num_rows;
  }
  return n;
}

std::size_t ModelSnapshot::StateBytes() const {
  std::size_t n = dense_blob.size();
  for (const auto& table : shards) {
    for (const auto& s : table) {
      n += s.weights.size() * sizeof(float) + s.adagrad.size() * sizeof(float);
    }
  }
  return n;
}

ModelSnapshot CreateSnapshot(const dlrm::DlrmModel& model, std::uint64_t batches_trained,
                             std::uint64_t samples_trained, std::nullptr_t) {
  const auto start = std::chrono::steady_clock::now();

  ModelSnapshot snap;
  snap.batches_trained = batches_trained;
  snap.samples_trained = samples_trained;
  snap.shards.resize(model.num_tables());
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    snap.shards[t].resize(model.table(t).num_shards());
    for (std::size_t s = 0; s < model.table(t).num_shards(); ++s) {
      const auto& src = model.table(t).Shard(s);
      ShardSnapshot& dst = snap.shards[t][s];
      dst.table_id = static_cast<std::uint32_t>(t);
      dst.shard_id = static_cast<std::uint32_t>(s);
      dst.num_rows = src.num_rows();
      dst.dim = src.dim();
      dst.weights.assign(src.Weights().begin(), src.Weights().end());
      dst.adagrad.assign(src.AdagradStates().begin(), src.AdagradStates().end());
    }
  }

  util::Writer dense;
  model.SerializeDense(dense);
  snap.dense_blob = dense.TakeBytes();

  snap.stall_wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  return snap;
}

}  // namespace cnr::core
