// Synchronous checkpoint writer (paper §4.4 steps 2-3, §5.2).
//
// WriteCheckpoint turns an immutable ModelSnapshot plus a CheckpointPlan into
// chunk objects in the store and a manifest, on the calling thread (optionally
// fanning chunk work across a thread pool). It is the synchronous facade over
// the same stage kernels the asynchronous pipeline uses:
//
//   - chunk planning + encoding:  core/pipeline/chunk_codec.h
//   - retry on transient faults:  storage/retrying_store.h (decorator)
//   - manifest-last publication:  core/pipeline/commit.h
//
// Training-coupled callers (benches, the CheckFreq baseline, recovery tests)
// use this facade; the decoupled training path goes through
// core/service.h, which runs the same kernels as explicit
// Snapshot → Plan → Encode → Store → Commit stages with bounded queues.
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
#include "util/threadpool.h"

namespace cnr::core {

struct WriterConfig {
  std::string job = "job0";
  std::size_t chunk_rows = 512;  // rows per pipelined chunk
  quant::QuantConfig quant;
  std::uint64_t rng_seed = 7;  // k-means init stream
  // Attempts per object Put before giving up (transient storage failures,
  // storage::StoreUnavailable, are retried via storage::RetryingStore;
  // anything else propagates).
  int put_attempts = 3;
};

struct WriteResult {
  storage::Manifest manifest;
  std::uint64_t bytes_written = 0;       // chunks + dense + manifest
  std::uint64_t rows_written = 0;
  // Per-stage breakdown (encode_us is the summed per-chunk encode time).
  storage::StageTimings timings;
  // Wall time from write-path entry (pipeline: submit; facade: call) until
  // the manifest was stored — the checkpoint's time-to-valid.
  std::chrono::microseconds write_wall{0};
};

// Builds and stores the checkpoint described by `plan` from `snap`.
// The manifest is stored last; a checkpoint is valid iff its manifest exists
// (paper: the controller declares validity after all nodes finish storing).
// If `pool` is non-null, chunks are encoded+stored concurrently.
WriteResult WriteCheckpoint(storage::ObjectStore& store, const ModelSnapshot& snap,
                            const CheckpointPlan& plan, const WriterConfig& cfg,
                            std::uint64_t checkpoint_id,
                            std::span<const std::uint8_t> reader_state,
                            util::ThreadPool* pool);

}  // namespace cnr::core
