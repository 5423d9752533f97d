// Chunk planning, encoding, and decoding — the pure kernels behind the write
// pipeline's Plan/Encode stages and the restore pipeline's Decode stage
// (paper §5.2).
//
// A checkpoint is stored as chunk objects, each a bounded run of embedding
// rows from one shard snapshot. BuildChunkTasks turns a snapshot plus the
// policy's CheckpointPlan into the chunk work-list; EncodeChunkTask turns one
// task into its stored byte representation; DecodeChunkBlob reverses it
// (CRC verify + parse + de-quantize) without touching a model. All are
// side-effect-free so the staged pipelines (core/service.h, restore.h) and the
// serial references (writer.h, recovery.h) share them, and so they
// unit-test without any threads or stores.
//
// Chunk layout (binary, little-endian):
//   u32 table_id, u32 shard_id
//   u64 num_rows, u64 dim
//   u8  explicit_indices          (1 for incremental chunks)
//   if explicit_indices: varint-delta row indices (ascending; first index,
//                        then gaps)
//   else:                u64 start_row (rows are contiguous)
//   f32 adagrad state per row     (optimizer state stays fp32)
//   EncodeRow(quant) per row      (per-row params + packed codes)
//   u32 CRC-32C over everything above (recovery rejects corrupt chunks)
//
// The row indices and per-row quantization parameters are the metadata the
// paper cites as the reason overall savings are sub-linear in bit-width
// (§6.3.2); delta+varint coding shrinks the index portion to ~1 byte/row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/snapshot.h"
#include "quant/quantizer.h"
#include "storage/manifest.h"
#include "util/rng.h"

namespace cnr::core::pipeline {

// Work descriptor for one chunk: a run of rows from one shard snapshot. The
// shard pointer aliases the snapshot the task was built from, which must stay
// alive (and immutable) until the chunk is encoded.
struct ChunkTask {
  const ShardSnapshot* shard = nullptr;
  std::uint32_t chunk_index = 0;  // per-shard ordinal, names the chunk object
  bool explicit_indices = false;
  std::uint64_t start_row = 0;      // when contiguous
  std::vector<std::uint32_t> rows;  // when explicit
  std::size_t rows_count = 0;       // contiguous count

  std::size_t NumRows() const { return explicit_indices ? rows.size() : rows_count; }
};

// Splits the rows selected by `plan` into chunk tasks of at most `chunk_rows`
// rows each, shard by shard. Full checkpoints chunk every row contiguously;
// incremental checkpoints chunk the plan's explicit dirty-row indices.
std::vector<ChunkTask> BuildChunkTasks(const ModelSnapshot& snap, const CheckpointPlan& plan,
                                       std::size_t chunk_rows);

// Quantizes and serializes one chunk. `rng` seeds the k-means initialization
// stream for adaptive quantization; fork a deterministic per-chunk stream so
// results do not depend on worker scheduling (see ChunkRng). `scratch` holds
// the reusable per-row codec buffers (quant/kernels.h) — each stage worker
// keeps one, so steady-state encode performs no per-row heap allocation; the
// scratch-less overload uses the calling thread's TlsCodecScratch().
std::vector<std::uint8_t> EncodeChunkTask(const ChunkTask& task, const quant::QuantConfig& qc,
                                          util::Rng& rng, quant::CodecScratch& scratch);
std::vector<std::uint8_t> EncodeChunkTask(const ChunkTask& task, const quant::QuantConfig& qc,
                                          util::Rng& rng);

// Deterministic per-chunk rng stream, independent of which worker encodes the
// chunk and in what order.
util::Rng ChunkRng(std::uint64_t seed, std::uint64_t checkpoint_id, std::size_t chunk_ordinal);

// One chunk after the read direction of the codec: header fields, row
// indices, optimizer state, and fully de-quantized fp32 weights. Produced by
// DecodeChunkBlob; applying it to a model (recovery.h) is a plain memcpy-like
// pass with no further parsing or arithmetic.
struct DecodedChunk {
  std::uint32_t table_id = 0;
  std::uint32_t shard_id = 0;
  std::uint64_t num_rows = 0;
  std::uint64_t dim = 0;
  bool explicit_indices = false;
  std::uint64_t start_row = 0;      // when contiguous
  std::vector<std::uint32_t> rows;  // when explicit
  std::vector<float> adagrad;       // num_rows
  std::vector<float> weights;       // num_rows * dim, de-quantized

  std::size_t RowIndex(std::size_t i) const {
    return explicit_indices ? rows[i] : static_cast<std::size_t>(start_row + i);
  }
  std::span<const float> Row(std::size_t i) const { return {weights.data() + i * dim, dim}; }
};

// Verifies the trailing CRC-32C, parses the chunk layout above, and
// de-quantizes every row with `qc` (the quantization config of the manifest
// the chunk belongs to). `key` is used only for error messages. Throws
// std::runtime_error on corruption — recovery treats the chunk's checkpoint
// as unusable rather than restoring garbage. Like EncodeChunkTask, `scratch`
// makes the per-row buffers reusable across chunks decoded by one worker.
DecodedChunk DecodeChunkBlob(std::span<const std::uint8_t> blob, const quant::QuantConfig& qc,
                             const std::string& key, quant::CodecScratch& scratch);
DecodedChunk DecodeChunkBlob(std::span<const std::uint8_t> blob, const quant::QuantConfig& qc,
                             const std::string& key);

// Manifest entry (including the object-store key) for one encoded chunk.
// Both write paths assemble chunk metadata through this, so the key format
// and ChunkInfo fields cannot drift between them.
storage::ChunkInfo MakeChunkInfo(const ChunkTask& task, const std::string& job,
                                 std::uint64_t checkpoint_id, std::size_t encoded_bytes);

// Manifest skeleton for a checkpoint about to be written: identity, lineage,
// trainer progress, quantization config and reader state filled in; chunk
// slots sized to `num_chunks` for the store stage to populate.
storage::Manifest MakeManifestSkeleton(std::uint64_t checkpoint_id, const CheckpointPlan& plan,
                                       const ModelSnapshot& snap,
                                       const quant::QuantConfig& quant,
                                       std::vector<std::uint8_t> reader_state,
                                       std::size_t num_chunks);

}  // namespace cnr::core::pipeline
