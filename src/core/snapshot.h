// Decoupled in-memory model snapshots (paper §4.2).
//
// Checkpointing requires an atomic copy of the model. Check-N-Run stalls
// training only while each device copies its local state from GPU HBM into
// host DRAM (<7 s for a 128-GPU model; <0.4% of a 30-minute interval); the
// expensive work — quantization and storage — happens afterwards on the CPU
// against the immutable snapshot while training proceeds.
//
// ModelSnapshot is that host-DRAM copy: per (table, shard) a dense weight
// buffer plus the row-wise AdaGrad state, the serialized dense (MLP) blob,
// and the trainer progress counters. In the paper every trainer node copies
// its own local part in parallel, which is why snapshot latency does not grow
// with node count. In this one-process reproduction the copy runs on the
// calling thread, at the memcpy bound: a copy fanned out across threads
// measured slower on every model shape in the repo (bench_micro_overheads'
// BM_SnapshotStall times the copy).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dlrm/model.h"

namespace cnr::core {

struct ShardSnapshot {
  std::uint32_t table_id = 0;
  std::uint32_t shard_id = 0;
  std::size_t num_rows = 0;
  std::size_t dim = 0;
  std::vector<float> weights;  // num_rows * dim
  std::vector<float> adagrad;  // num_rows

  std::span<const float> Row(std::size_t r) const { return {weights.data() + r * dim, dim}; }
};

struct ModelSnapshot {
  std::uint64_t batches_trained = 0;
  std::uint64_t samples_trained = 0;
  std::vector<std::vector<ShardSnapshot>> shards;  // [table][shard]
  std::vector<std::uint8_t> dense_blob;

  // Wall time the trainer was stalled creating this snapshot.
  std::chrono::microseconds stall_wall{0};

  std::size_t TotalRows() const;
  std::size_t StateBytes() const;
};

// Atomically copies the model state on the calling thread. Must be called
// while training is paused (the controller enforces the barrier).
// The unnamed last parameter keeps perfbench/driver.cc's `nullptr` calls compiling.
ModelSnapshot CreateSnapshot(const dlrm::DlrmModel& model, std::uint64_t batches_trained,
                             std::uint64_t samples_trained, std::nullptr_t = nullptr);

}  // namespace cnr::core
