// Checkpoint manifest format.
//
// A checkpoint in the object store is a manifest object plus a set of chunk
// objects. The manifest records everything recovery needs: which chunks to
// fetch, the quantization configuration used to encode them, whether the
// checkpoint is a full baseline or an incremental view (and over which
// parent), the trainer progress, and the serialized reader state.
// Check-N-Run's controller declares a checkpoint valid only after every
// chunk and the manifest have been stored (paper §4.4 step 3).
//
// The byte-level v2 on-disk format (field by field, including StageTimings
// and the lineage rule) is documented in docs/MANIFEST_FORMAT.md;
// Encode/Decode in manifest.cc are the authoritative implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "quant/quantizer.h"
#include "util/serialize.h"

namespace cnr::storage {

enum class CheckpointKind : std::uint8_t {
  kFull = 0,         // complete model state
  kIncremental = 1,  // modified rows only, relative to `parent_id` lineage
  kCoordinated = 2,  // coordinated cut over shard sub-checkpoints (v3; carries
                     // a shard_map instead of chunks)
};

// Per-stage wall/queue times (microseconds) of the pipeline run that wrote a
// checkpoint. Persisted in the manifest (format v2) so offline tools —
// tools/cnr_inspect — can break down where checkpoint time went long after
// the job is gone. All fields are sums over the checkpoint's chunks, except
// snapshot_us/plan_us/commit_us which are single-stage walls.
struct StageTimings {
  std::uint64_t snapshot_us = 0;      // trainer stalled copying model state
  std::uint64_t plan_us = 0;          // chunk planning
  std::uint64_t encode_us = 0;        // chunk quantize+serialize cpu
  std::uint64_t store_us = 0;         // chunk Put wall (includes retries)
  std::uint64_t commit_us = 0;        // dense-blob publication before the
                                      // manifest write that this record
                                      // itself rides in
  std::uint64_t encode_queue_us = 0;  // chunks waiting for an encode worker
  std::uint64_t store_queue_us = 0;   // encoded chunks waiting for the link

  void Serialize(util::Writer& w) const;
  static StageTimings Deserialize(util::Reader& r);
};

// One stored chunk of embedding rows for a particular table shard.
struct ChunkInfo {
  std::string key;            // object store key
  std::uint32_t table_id = 0; // logical embedding table
  std::uint32_t shard_id = 0; // device shard within the table
  std::uint64_t num_rows = 0; // rows encoded in this chunk
  std::uint64_t bytes = 0;    // stored size (payload + row index)

  void Serialize(util::Writer& w) const;
  static ChunkInfo Deserialize(util::Reader& r);
};

// One entry of a coordinated cut's shard map: which sub-checkpoint of the
// job holds shard `shard_id`'s rows as of the cut.
struct ShardCutEntry {
  std::uint32_t shard_id = 0;        // global trainer shard
  std::uint64_t checkpoint_id = 0;   // sub-checkpoint committed for it

  void Serialize(util::Writer& w) const;
  static ShardCutEntry Deserialize(util::Reader& r);
};

struct Manifest {
  // v1: no stage timings. v2 appends StageTimings. v3 appends the
  // coordinated-cut fields (cut_epoch + shard_map). v4 adds no manifest
  // fields but versions the store layout family: v4 writers may stream
  // per-iteration delta-log segments (DeltaSegmentHeader below) under
  // jobs/<job>/dlog/, which recovery and maintenance must account for.
  // Decode accepts all four.
  static constexpr std::uint32_t kFormatVersion = 4;

  std::uint64_t checkpoint_id = 0;
  CheckpointKind kind = CheckpointKind::kFull;
  // For incremental checkpoints: the checkpoint this one extends. One-shot
  // and intermittent incrementals point at their baseline; consecutive
  // incrementals point at the immediately preceding checkpoint.
  std::uint64_t parent_id = 0;

  // Trainer progress at snapshot time.
  std::uint64_t batches_trained = 0;
  std::uint64_t samples_trained = 0;

  quant::QuantConfig quant;

  // Serialized reader state (opaque here; data::ReaderState owns the format).
  std::vector<std::uint8_t> reader_state;

  // Serialized dense state (MLPs + dense optimizer): replicated across
  // devices, so a single blob read from one device suffices (paper §4.1).
  std::string dense_key;
  std::uint64_t dense_bytes = 0;

  std::vector<ChunkInfo> chunks;

  // How long each pipeline stage spent producing this checkpoint (all-zero
  // for v1 manifests and for writers that don't measure).
  StageTimings timings;

  // Coordinated-cut fields (v3, meaningful only for kind == kCoordinated).
  // `cut_epoch` identifies the cut; `shard_map` names, per trainer shard, the
  // sub-checkpoint whose chain restores that shard's rows. Older versions
  // decode with cut_epoch == 0 and an empty shard_map.
  std::uint64_t cut_epoch = 0;
  std::vector<ShardCutEntry> shard_map;

  // Total stored bytes of this checkpoint (chunks + dense + manifest approx).
  std::uint64_t TotalBytes() const;

  std::vector<std::uint8_t> Encode() const;
  static Manifest Decode(std::span<const std::uint8_t> data);

  // Object-store key conventions.
  static std::string ManifestKey(const std::string& job, std::uint64_t checkpoint_id);
  static std::string ChunkKey(const std::string& job, std::uint64_t checkpoint_id,
                              std::uint32_t table_id, std::uint32_t shard_id,
                              std::uint32_t chunk_index);
  static std::string DenseKey(const std::string& job, std::uint64_t checkpoint_id);
  static std::string JobPrefix(const std::string& job);
  static std::string CheckpointPrefix(const std::string& job, std::uint64_t checkpoint_id);

  // Coordinated-cut key conventions. A cut lives under jobs/<job>/cut/
  // (sibling of ckpt/), so checkpoint-id scans over */MANIFEST keys never see
  // it: the cut manifest object is named COORD, published manifest-last after
  // the cut's dense blob.
  static std::string CutPrefix(const std::string& job, std::uint64_t cut_epoch);
  static std::string CutKey(const std::string& job, std::uint64_t cut_epoch);
  static std::string CutDenseKey(const std::string& job, std::uint64_t cut_epoch);

  // Delta-log key conventions (format v4). A base checkpoint's per-iteration
  // delta stream lives under jobs/<job>/dlog/<base>/ (sibling of ckpt/ and
  // cut/): raw segments at seg/<seq>, compaction covers at compact/<seq>.
  // Maintenance treats the whole prefix as part of checkpoint <base>'s
  // lineage unit.
  static std::string DeltaLogRoot(const std::string& job);
  static std::string DeltaLogPrefix(const std::string& job, std::uint64_t base_checkpoint_id);
  static std::string DeltaSegmentKey(const std::string& job, std::uint64_t base_checkpoint_id,
                                     std::uint64_t seq);
  static std::string DeltaCompactKey(const std::string& job, std::uint64_t base_checkpoint_id,
                                     std::uint64_t seq);

  // The id the key functions above put after `prefix`: the decimal digits
  // right after it, ended by '/' or the end of `key`. nullopt when `key` does
  // not start with `prefix`, no digit follows it, a non-digit comes before the
  // '/', or the id overflows 64 bits. A scan over List() results counts a key
  // only if it equals the key function's output for the parsed id, so stray
  // objects (jobs/<job>/ckpt/notanid/MANIFEST) are skipped, not fatal.
  static std::optional<std::uint64_t> ParseId(std::string_view key, std::string_view prefix);
};

// Header of one delta-log segment object (format v4; docs/MANIFEST_FORMAT.md
// "Delta-log segments"). A segment is: this header, then `num_iterations`
// iteration blocks of quantized row writes (core/delta_log.cc is the only
// writer/reader of the block payload), then a trailing CRC-32C over
// everything before it. The header is strictly sequenced — base checkpoint
// id, seq, iteration range, global row-id range — so recovery can detect a
// torn or out-of-place tail object and truncate the log to its last sealed
// segment instead of replaying garbage.
struct DeltaSegmentHeader {
  static constexpr std::uint32_t kMagic = 0x474F4C44;  // "DLOG"
  static constexpr std::uint32_t kSegmentVersion = 1;

  std::uint64_t base_checkpoint_id = 0;
  std::uint64_t seq = 0;            // 1-based, contiguous per base
  bool compacted = false;           // true: cover folding raw segments <= seq
  std::uint64_t first_iteration = 0;
  std::uint64_t last_iteration = 0;
  // Inclusive range of global row ids touched (table-offset + logical row);
  // 0/0 when the segment carries no rows.
  std::uint64_t min_row = 0;
  std::uint64_t max_row = 0;
  std::uint32_t num_iterations = 0;  // iteration blocks that follow

  void Serialize(util::Writer& w) const;
  // Throws util::SerializeError on bad magic/version (a torn or foreign
  // object); field validation against the expected key is the caller's job.
  static DeltaSegmentHeader Deserialize(util::Reader& r);
};

}  // namespace cnr::storage
