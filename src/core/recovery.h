// Checkpoint recovery (paper §5.1).
//
// Recovery resolves the checkpoint chain required by the policy that wrote
// it — for one-shot/intermittent incrementals that is {baseline, newest};
// for consecutive incrementals it is the whole chain back to the baseline —
// then applies the checkpoints oldest-first so newer rows overwrite older
// ones, de-quantizing each row with the quantization configuration recorded
// in its own manifest (checkpoints in one chain may differ, e.g. after an
// 8-bit fallback). Dense state, reader state, and trainer progress come from
// the newest manifest.
//
// Two restore paths share the same decode kernel (pipeline/chunk_codec.h)
// and produce bit-identical model state:
//   - RestoreModel: the serial reference reader — fetches, decodes, and
//     applies one chunk at a time on the calling thread, as writer.h's
//     WriteCheckpoint is the serial reference writer. Simple, and what
//     tests, delta application and perfbench's restore oracle use.
//   - RestoreModelPipelined: the staged Resolve → Fetch → Decode → Apply
//     pipeline (pipeline/restore.h), overlapping chunk fetches with
//     de-quantization and in-place apply. This is the recovery-time path;
//     see docs/RECOVERY.md for the architecture.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline/restore.h"
#include "data/reader.h"
#include "dlrm/model.h"
#include "storage/manifest.h"
#include "storage/object_store.h"

namespace cnr::core {

struct RestoreResult {
  std::uint64_t checkpoint_id = 0;
  std::uint64_t batches_trained = 0;
  std::uint64_t samples_trained = 0;
  data::ReaderState reader_state;
  std::size_t checkpoints_applied = 0;  // chain length (1 for a full ckpt)
  std::uint64_t rows_applied = 0;
  std::uint64_t bytes_read = 0;
  // Per-stage breakdown of this restore (both paths fill it; the facade's
  // stage walls sum to its restore wall, the pipeline's overlap).
  pipeline::RestoreTimings timings;
};

// Applies decoded restore data to a DlrmModel: the standard ChunkApplier
// both restore paths use. Validates table/shard ids, dimensions, and row
// bounds against the model's shape before touching it.
class ModelApplier : public pipeline::ChunkApplier {
 public:
  explicit ModelApplier(dlrm::DlrmModel& model) : model_(model) {}

  void ApplyChunk(const pipeline::DecodedChunk& chunk) override;
  void ApplyDense(std::span<const std::uint8_t> dense_blob) override;

 private:
  dlrm::DlrmModel& model_;
};

// Id of the newest valid checkpoint of `job`, or nullopt if none exists.
std::optional<std::uint64_t> LatestCheckpointId(storage::ObjectStore& store,
                                                const std::string& job);

// Loads the manifest of checkpoint `id`; throws if absent or corrupt.
storage::Manifest LoadManifest(storage::ObjectStore& store, const std::string& job,
                               std::uint64_t id);

// Checkpoint ids needed to reconstruct checkpoint `id`, oldest first
// (starts at a full checkpoint, ends at `id`).
std::vector<std::uint64_t> ResolveChain(storage::ObjectStore& store, const std::string& job,
                                        std::uint64_t id);

// Restores `model` from checkpoint `id` (or the newest, if nullopt).
// The model must have been constructed with the same shape configuration.
RestoreResult RestoreModel(storage::ObjectStore& store, const std::string& job,
                           dlrm::DlrmModel& model,
                           std::optional<std::uint64_t> id = std::nullopt);

// Same contract and result as RestoreModel, through the staged restore
// pipeline (pipeline/restore.h): chunk fetches overlap de-quantization and
// apply, with chain order enforced. Bit-identical to RestoreModel on any
// chain. On failure the model may hold a partially applied prefix — restore
// into a freshly constructed model, as recovery always does.
RestoreResult RestoreModelPipelined(storage::ObjectStore& store, const std::string& job,
                                    dlrm::DlrmModel& model,
                                    std::optional<std::uint64_t> id = std::nullopt,
                                    const pipeline::RestoreConfig& config = {});

// Applies only checkpoint `id`'s own rows and dense state to `model`,
// without resolving its parent chain. This is the online-training path
// (paper §5.1): a serving replica that has already absorbed checkpoints
// 1..id-1 keeps itself fresh by applying each consecutive-incremental delta
// as it is published.
RestoreResult ApplyCheckpointDelta(storage::ObjectStore& store, const std::string& job,
                                   std::uint64_t id, dlrm::DlrmModel& model);

}  // namespace cnr::core
