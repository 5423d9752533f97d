// Serial reference writer (paper §4.4 steps 2-3, §5.2).
//
// WriteCheckpoint turns an immutable ModelSnapshot plus a CheckpointPlan into
// chunk objects in the store and a manifest, one chunk after another on the
// calling thread. It runs the same kernels as the service's write pipeline:
//
//   - chunk planning + encoding:  core/pipeline/chunk_codec.h
//   - retry on transient faults:  storage/retrying_store.h (decorator)
//   - manifest-last publication:  core/pipeline/commit.h
//
// It is the write side's reference, as RestoreModel is the read side's: for
// the same snapshot, plan, config, id and reader state, core/service.h's
// Snapshot → Plan → Encode → Store → Commit stages store the same objects
// byte for byte (WriterRecovery.ServiceWritesTheReferenceWritersBytes).
// Tests, benches and the CheckFreq baseline use it; the training path goes
// through the service, whose StageExecutor is the library's one parallel
// runtime.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "core/policy.h"
#include "core/snapshot.h"
#include "quant/quantizer.h"
#include "storage/manifest.h"
#include "storage/object_store.h"

namespace cnr::core {

struct WriterConfig {
  std::string job = "job0";
  std::size_t chunk_rows = 512;  // rows per pipelined chunk
  quant::QuantConfig quant;
  std::uint64_t rng_seed = 7;  // k-means init stream
};

struct WriteResult {
  storage::Manifest manifest;
  std::uint64_t bytes_written = 0;       // chunks + dense + manifest
  std::uint64_t rows_written = 0;
  // Per-stage breakdown (encode_us is the summed per-chunk encode time).
  storage::StageTimings timings;
  // Wall time from write-path entry (pipeline: submit; WriteCheckpoint:
  // call) until the manifest was stored — the checkpoint's time-to-valid.
  std::chrono::microseconds write_wall{0};
};

// Builds and stores the checkpoint described by `plan` from `snap`.
// The manifest is stored last; a checkpoint is valid iff its manifest exists
// (paper: the controller declares validity after all nodes finish storing).
// Each Put gets storage::RetryPolicy{}'s attempts on transient failures
// (storage::StoreUnavailable); anything else propagates.
WriteResult WriteCheckpoint(storage::ObjectStore& store, const ModelSnapshot& snap,
                            const CheckpointPlan& plan, const WriterConfig& cfg,
                            std::uint64_t checkpoint_id,
                            std::span<const std::uint8_t> reader_state);

}  // namespace cnr::core
