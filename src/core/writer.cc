#include "core/writer.h"

#include <vector>

#include "core/pipeline/chunk_codec.h"
#include "core/pipeline/commit.h"
#include "storage/retrying_store.h"

namespace cnr::core {

WriteResult WriteCheckpoint(storage::ObjectStore& store, const ModelSnapshot& snap,
                            const CheckpointPlan& plan, const WriterConfig& cfg,
                            std::uint64_t checkpoint_id,
                            std::span<const std::uint8_t> reader_state) {
  const auto entry_time = std::chrono::steady_clock::now();
  storage::RetryingStore retrying(store, storage::RetryPolicy{});

  const std::vector<pipeline::ChunkTask> tasks =
      pipeline::BuildChunkTasks(snap, plan, cfg.chunk_rows);

  WriteResult result;
  result.manifest = pipeline::MakeManifestSkeleton(
      checkpoint_id, plan, snap, cfg.quant,
      std::vector<std::uint8_t>(reader_state.begin(), reader_state.end()), tasks.size());
  result.manifest.timings.snapshot_us =
      static_cast<std::uint64_t>(snap.stall_wall.count());

  std::uint64_t encode_us = 0;
  std::uint64_t store_us = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    util::Rng rng = pipeline::ChunkRng(cfg.rng_seed, checkpoint_id, i);
    const auto t0 = std::chrono::steady_clock::now();
    auto bytes = pipeline::EncodeChunkTask(tasks[i], cfg.quant, rng);
    const auto t1 = std::chrono::steady_clock::now();
    encode_us += std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();

    storage::ChunkInfo info =
        pipeline::MakeChunkInfo(tasks[i], cfg.job, checkpoint_id, bytes.size());
    // Each chunk is stored as soon as it is encoded, so one encoded chunk is
    // held at a time. Transient storage failures are retried by the
    // decorator; persistent ones abort the checkpoint (whose manifest then
    // never appears, keeping the previous one valid).
    retrying.Put(info.key, std::move(bytes));
    store_us += std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t1)
                    .count();
    result.manifest.chunks[i] = std::move(info);
  }

  result.manifest.timings.encode_us = encode_us;
  result.manifest.timings.store_us = store_us;

  const auto commit = pipeline::CommitCheckpoint(retrying, cfg.job, result.manifest,
                                                 snap.dense_blob);

  result.bytes_written = result.manifest.TotalBytes() + commit.manifest_bytes;
  for (const auto& c : result.manifest.chunks) result.rows_written += c.num_rows;
  result.timings = result.manifest.timings;
  result.write_wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - entry_time);
  return result;
}

}  // namespace cnr::core
