// Sharded multi-trainer checkpointing with CPR-style partial recovery.
//
// Check-N-Run's DLRMs train data-parallel over embedding tables that are
// model-parallel sharded across trainer nodes (paper §2.1, §4.2): each node
// owns a row range of every table and snapshots only its local shard. This
// layer makes a checkpoint a *set of shard sub-checkpoints* under one
// coordinated manifest:
//
//   ShardedJobHandle (over CheckpointService::OpenJob)
//   ├── one consistent cut      a single CreateSnapshot of the whole model —
//   │                           the trainer stall — split per trainer shard
//   ├── per-shard lineage       each shard's rows flow through the service's
//   │                           Plan→Encode→Store→Commit stages as an
//   │                           ordinary checkpoint of the job, with its own
//   │                           IncrementalPolicy (full baseline + deltas)
//   └── coordinated commit      a manifest-v3 cut object (kCoordinated:
//                               cut epoch + shard→sub-checkpoint map + the
//                               dense blob + reader state) is published
//                               manifest-last, only when EVERY shard's
//                               sub-commit landed. A partial failure
//                               publishes nothing: the previous cut stays
//                               the newest valid one — never a torn cut.
//
// Storage layout (see docs/MANIFEST_FORMAT.md):
//   jobs/<job>/ckpt/<id>/...        shard sub-checkpoints (no dense blob,
//                                   empty dense_key — the cut owns dense)
//   jobs/<job>/cut/<epoch>/dense    dense MLP blob of the cut
//   jobs/<job>/cut/<epoch>/COORD    the coordinated manifest, written last
//
// Recovery is CPR-style (Maeng et al.): on a node loss only the lost shards'
// chains are re-fetched and replayed through the staged restore pipeline
// (Resolve→Fetch→Decode→Apply on the shared StageExecutor) while survivors'
// resident rows are untouched; the dense MLP state is replicated across
// trainers, so a partial restore fetches no dense blob at all.
// sim::FailureTrace + sim::ClusterModel map node losses to shard sets;
// bench/partial_recovery.cpp quantifies the payoff.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline/restore.h"
#include "core/policy.h"
#include "core/service.h"
#include "core/snapshot.h"
#include "core/tracking.h"
#include "dlrm/model.h"
#include "storage/manifest.h"
#include "storage/object_store.h"

namespace cnr::core {

struct ShardedJobConfig {
  std::string name = "sharded0";
  // Trainer shards. 0 = the model's configured num_shards. Tables with fewer
  // rows than shards clamp their own shard count (tensor::ShardedEmbedding),
  // so a global shard covers only the tables that reach it.
  std::size_t num_shards = 0;

  // Per-shard incremental policy (each shard plans its own baseline/delta
  // lineage, sized to its local rows).
  PolicyKind policy = PolicyKind::kIntermittent;
  PolicyOptions policy_options;

  // Quantization of the shard chunks, used as given (the dynamic bit-width
  // selector is a whole-job concern; sharded jobs pin their config).
  bool quantize = true;
  quant::QuantConfig quant;

  std::size_t chunk_rows = 512;
  std::uint64_t rng_seed = 7;
  std::uint32_t weight = 1;

  // Maintenance: eviction priority and how many coordinated cuts to retain.
  // After each committed cut the handle runs the cut-aware GC of this job
  // only (MaintenanceManager::GcAfterCommit), which deletes older cuts as
  // whole lineage units (never half a cut). Sub-checkpoints stay pinned
  // with the maintenance plane until a COORD lands, so before the job's
  // first cut no GC or quota eviction mistakes them (or a torn cut's
  // leftovers the next cut chains over) for a plain job's stale lineages.
  std::uint32_t priority = 1;
  bool gc = true;
  std::size_t keep_cuts = 1;
};

// What one coordinated cut produced. `committed` is false when any shard's
// sub-checkpoint failed: nothing was published, the previous cut is still
// the newest valid one, and `failed_shards` lists who to blame.
struct CutResult {
  bool committed = false;
  std::uint64_t cut_epoch = 0;
  std::vector<storage::ShardCutEntry> shard_map;  // shard -> sub-checkpoint id
  std::vector<std::uint32_t> failed_shards;
  std::uint64_t bytes_written = 0;  // shard chunks + cut dense + cut manifest
  std::uint64_t rows_written = 0;
};

namespace detail {
struct CutState;
}  // namespace detail

// Outstanding coordinated cut: the per-shard sub-checkpoints are in flight in
// the service. Wait() blocks for all of them and, iff every one committed,
// publishes the cut manifest (manifest-last; quota eviction retried like any
// service commit), then runs the job's GC. A GC failure — including a
// refusal because the newest cut's lineage does not reach full checkpoints —
// re-baselines every shard and is thrown from Wait() although the cut is
// published. Move-only; Wait() at most once.
class CutTicket {
 public:
  CutTicket(CutTicket&&) noexcept;
  CutTicket& operator=(CutTicket&&) noexcept;
  ~CutTicket();

  CutResult Wait();

  std::uint64_t cut_epoch() const;

 private:
  friend class ShardedJobHandle;
  explicit CutTicket(std::unique_ptr<detail::CutState> state);
  std::unique_ptr<detail::CutState> state_;
};

// Per-job face of sharded checkpointing. One trainer thread per handle (the
// same contract as JobHandle). The model must outlive the handle.
class ShardedJobHandle {
 public:
  ShardedJobHandle(CheckpointService& service, dlrm::DlrmModel& model,
                   ShardedJobConfig config);
  ~ShardedJobHandle();

  ShardedJobHandle(const ShardedJobHandle&) = delete;
  ShardedJobHandle& operator=(const ShardedJobHandle&) = delete;

  const std::string& name() const { return cfg_.name; }
  std::size_t num_shards() const { return num_shards_; }

  // Waits until the service admits the cut as ONE unit (one service-wide
  // grant and one per-job slot, whatever the shard count), then takes the
  // consistent cut (one whole-model snapshot — the trainer stall), splits it
  // per trainer shard, and submits every shard's chunks through the
  // service's stages with per-shard ids and lineage. Returns without waiting
  // for any store; the returned ticket finalizes the cut. A sharded job
  // admits one cut at a time.
  CutTicket SubmitCut(std::uint64_t batches_trained, std::uint64_t samples_trained,
                      std::vector<std::uint8_t> reader_state = {});

  // SubmitCut + Wait in one call.
  CutResult WriteCut(std::uint64_t batches_trained, std::uint64_t samples_trained,
                     std::vector<std::uint8_t> reader_state = {});

  // The modified-row tracker feeding the per-shard incremental policies.
  ModifiedRowTracker& tracker() { return tracker_; }

 private:
  CheckpointService& service_;
  dlrm::DlrmModel& model_;
  ShardedJobConfig cfg_;
  std::size_t num_shards_ = 0;
  std::unique_ptr<JobHandle> job_;
  ModifiedRowTracker tracker_;
  // One per trainer shard; nullopt for a global shard no table reaches
  // (every table clamped below it) — such shards submit nothing.
  std::vector<std::optional<IncrementalPolicy>> policies_;
  std::uint64_t next_checkpoint_id_ = 1;
  std::uint64_t next_cut_epoch_ = 1;
};

// ------------------------------------------------------ restore plane -------

// Result of a sharded (full or partial) restore.
struct ShardedRestoreResult {
  std::uint64_t cut_epoch = 0;
  std::uint64_t batches_trained = 0;
  std::uint64_t samples_trained = 0;
  std::vector<std::uint8_t> reader_state;        // serialized (cut manifest)
  std::vector<std::uint32_t> shards_restored;    // ascending
  std::size_t checkpoints_applied = 0;           // sub-checkpoints replayed
  std::uint64_t rows_applied = 0;
  std::uint64_t bytes_read = 0;                  // chunks (+ dense, full only)
  pipeline::RestoreTimings timings;              // summed across shard chains
};

// Newest committed cut epoch of a job (a cut is valid iff its COORD object
// exists — the manifest-last rule at cut level). nullopt = no cut.
std::optional<std::uint64_t> LatestCutEpoch(storage::ObjectStore& store,
                                            const std::string& job);

// Loads and decodes a cut's coordinated manifest. Throws if absent.
storage::Manifest LoadCutManifest(storage::ObjectStore& store, const std::string& job,
                                  std::uint64_t cut_epoch);

// Full restore of a sharded job: every shard's chain through the staged
// restore pipeline, then the cut's dense blob, reader state, and progress.
// Restores the cut of `cut_epoch` (default: the newest).
ShardedRestoreResult RestoreShardedModel(storage::ObjectStore& store, const std::string& job,
                                         dlrm::DlrmModel& model,
                                         std::optional<std::uint64_t> cut_epoch = std::nullopt,
                                         const pipeline::RestoreConfig& config = {});

// CPR-style partial recovery: replays ONLY the given shards' chains from the
// coordinated cut; surviving shards' rows and the (replicated) dense state
// are not touched and not fetched. `shard_ids` must all appear in the cut's
// shard map. The recovered shards are bit-identical to what a full restore
// of the same cut would produce.
ShardedRestoreResult RestorePartial(storage::ObjectStore& store, const std::string& job,
                                    dlrm::DlrmModel& model,
                                    const std::vector<std::uint32_t>& shard_ids,
                                    std::optional<std::uint64_t> cut_epoch = std::nullopt,
                                    const pipeline::RestoreConfig& config = {});

}  // namespace cnr::core
