#include "core/pipeline/chunk_codec.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/crc32.h"

namespace cnr::core::pipeline {

std::vector<ChunkTask> BuildChunkTasks(const ModelSnapshot& snap, const CheckpointPlan& plan,
                                       std::size_t chunk_rows) {
  if (chunk_rows == 0) throw std::invalid_argument("BuildChunkTasks: chunk_rows == 0");
  const bool incremental = plan.kind == storage::CheckpointKind::kIncremental;
  if (incremental) {
    bool shaped = plan.rows.size() == snap.shards.size();
    for (std::size_t t = 0; shaped && t < snap.shards.size(); ++t) {
      shaped = plan.rows[t].size() == snap.shards[t].size();
      for (std::size_t s = 0; shaped && s < snap.shards[t].size(); ++s) {
        shaped = plan.rows[t][s].size() == snap.shards[t][s].num_rows;
      }
    }
    if (!shaped) {
      throw std::invalid_argument(
          "BuildChunkTasks: incremental plan rows do not match the snapshot's shape");
    }
  }

  std::vector<ChunkTask> tasks;
  for (std::size_t t = 0; t < snap.shards.size(); ++t) {
    for (std::size_t s = 0; s < snap.shards[t].size(); ++s) {
      const ShardSnapshot& shard = snap.shards[t][s];
      std::uint32_t chunk_index = 0;
      if (incremental) {
        const auto indices = plan.rows[t][s].ToIndices();
        for (std::size_t off = 0; off < indices.size(); off += chunk_rows) {
          ChunkTask task;
          task.shard = &shard;
          task.chunk_index = chunk_index++;
          task.explicit_indices = true;
          const std::size_t end = std::min(off + chunk_rows, indices.size());
          task.rows.assign(indices.begin() + off, indices.begin() + end);
          tasks.push_back(std::move(task));
        }
      } else {
        for (std::size_t off = 0; off < shard.num_rows; off += chunk_rows) {
          ChunkTask task;
          task.shard = &shard;
          task.chunk_index = chunk_index++;
          task.explicit_indices = false;
          task.start_row = off;
          task.rows_count = std::min(chunk_rows, shard.num_rows - off);
          tasks.push_back(std::move(task));
        }
      }
    }
  }
  return tasks;
}

std::vector<std::uint8_t> EncodeChunkTask(const ChunkTask& task, const quant::QuantConfig& qc,
                                          util::Rng& rng, quant::CodecScratch& scratch) {
  const auto& shard = *task.shard;
  const std::size_t n = task.NumRows();
  util::Writer w(64 + n * (quant::EncodedRowBytes(qc, shard.dim) + 8));
  w.Put<std::uint32_t>(shard.table_id);
  w.Put<std::uint32_t>(shard.shard_id);
  w.Put<std::uint64_t>(n);
  w.Put<std::uint64_t>(shard.dim);
  w.Put<std::uint8_t>(task.explicit_indices ? 1 : 0);
  if (task.explicit_indices) {
    // Ascending indices as varint deltas: ~1 byte/row instead of 4.
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < task.rows.size(); ++i) {
      w.PutVarint(i == 0 ? task.rows[0] : task.rows[i] - prev);
      prev = task.rows[i];
    }
  } else {
    w.Put<std::uint64_t>(task.start_row);
  }
  const auto row_at = [&](std::size_t i) -> std::size_t {
    return task.explicit_indices ? task.rows[i] : task.start_row + i;
  };
  for (std::size_t i = 0; i < n; ++i) w.Put<float>(shard.adagrad[row_at(i)]);
  for (std::size_t i = 0; i < n; ++i) {
    quant::EncodeRow(w, shard.Row(row_at(i)), qc, rng, scratch);
  }
  // Trailing CRC-32C lets recovery detect storage-tier corruption.
  w.Put<std::uint32_t>(util::Crc32c(w.bytes().data(), w.size()));
  return w.TakeBytes();
}

std::vector<std::uint8_t> EncodeChunkTask(const ChunkTask& task, const quant::QuantConfig& qc,
                                          util::Rng& rng) {
  return EncodeChunkTask(task, qc, rng, quant::TlsCodecScratch());
}

DecodedChunk DecodeChunkBlob(std::span<const std::uint8_t> blob, const quant::QuantConfig& qc,
                             const std::string& key, quant::CodecScratch& scratch) {
  // Verify the trailing CRC-32C before trusting any field.
  if (blob.size() < sizeof(std::uint32_t)) {
    throw std::runtime_error("recovery: chunk too small " + key);
  }
  const std::size_t payload = blob.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + payload, sizeof(stored_crc));
  if (util::Crc32c(blob.data(), payload) != stored_crc) {
    throw std::runtime_error("recovery: checksum mismatch in chunk " + key);
  }

  util::Reader r(std::span<const std::uint8_t>(blob.data(), payload));
  DecodedChunk c;
  c.table_id = r.Get<std::uint32_t>();
  c.shard_id = r.Get<std::uint32_t>();
  c.num_rows = r.Get<std::uint64_t>();
  c.dim = r.Get<std::uint64_t>();
  c.explicit_indices = r.Get<std::uint8_t>() != 0;
  if (c.explicit_indices) {
    c.rows.resize(c.num_rows);
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < c.num_rows; ++i) {
      const auto delta = static_cast<std::uint32_t>(r.GetVarint());
      prev = (i == 0) ? delta : prev + delta;
      c.rows[i] = prev;
    }
  } else {
    c.start_row = r.Get<std::uint64_t>();
  }
  c.adagrad.resize(c.num_rows);
  r.GetBytes(c.adagrad.data(), c.num_rows * sizeof(float));
  c.weights.resize(c.num_rows * c.dim);
  for (std::uint64_t i = 0; i < c.num_rows; ++i) {
    quant::DecodeRow(r, qc, std::span<float>(c.weights.data() + i * c.dim, c.dim), scratch);
  }
  return c;
}

DecodedChunk DecodeChunkBlob(std::span<const std::uint8_t> blob, const quant::QuantConfig& qc,
                             const std::string& key) {
  return DecodeChunkBlob(blob, qc, key, quant::TlsCodecScratch());
}

util::Rng ChunkRng(std::uint64_t seed, std::uint64_t checkpoint_id, std::size_t chunk_ordinal) {
  return util::Rng(seed ^ (checkpoint_id * 0x100000001B3ULL + chunk_ordinal));
}

storage::ChunkInfo MakeChunkInfo(const ChunkTask& task, const std::string& job,
                                 std::uint64_t checkpoint_id, std::size_t encoded_bytes) {
  storage::ChunkInfo info;
  info.table_id = task.shard->table_id;
  info.shard_id = task.shard->shard_id;
  info.num_rows = task.NumRows();
  info.bytes = encoded_bytes;
  info.key = storage::Manifest::ChunkKey(job, checkpoint_id, info.table_id, info.shard_id,
                                         task.chunk_index);
  return info;
}

storage::Manifest MakeManifestSkeleton(std::uint64_t checkpoint_id, const CheckpointPlan& plan,
                                       const ModelSnapshot& snap,
                                       const quant::QuantConfig& quant,
                                       std::vector<std::uint8_t> reader_state,
                                       std::size_t num_chunks) {
  storage::Manifest m;
  m.checkpoint_id = checkpoint_id;
  m.kind = plan.kind;
  m.parent_id = plan.kind == storage::CheckpointKind::kIncremental ? plan.parent_id : 0;
  m.batches_trained = snap.batches_trained;
  m.samples_trained = snap.samples_trained;
  m.quant = quant;
  m.reader_state = std::move(reader_state);
  m.chunks.resize(num_chunks);
  return m;
}

}  // namespace cnr::core::pipeline
