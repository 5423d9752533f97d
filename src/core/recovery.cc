#include "core/recovery.h"

#include <chrono>
#include <stdexcept>

#include "core/pipeline/chunk_codec.h"
#include "util/wallclock.h"

namespace cnr::core {

using util::ElapsedUs;

namespace {

// Fetches, decodes, and applies every chunk of `manifest` to `applier`, one
// chunk at a time on the calling thread — the synchronous body both
// RestoreModel and ApplyCheckpointDelta loop over. Returns rows applied.
std::uint64_t ApplyManifest(storage::ObjectStore& store, const storage::Manifest& manifest,
                            pipeline::ChunkApplier& applier, std::uint64_t& bytes_read,
                            pipeline::RestoreTimings& timings) {
  std::uint64_t rows_applied = 0;
  for (const auto& info : manifest.chunks) {
    const auto t_fetch = std::chrono::steady_clock::now();
    auto blob = store.Get(info.key);
    timings.fetch_us += ElapsedUs(t_fetch);
    if (!blob) {
      throw std::runtime_error("recovery: missing chunk object " + info.key);
    }
    bytes_read += blob->size();
    const auto t_decode = std::chrono::steady_clock::now();
    const auto chunk = pipeline::DecodeChunkBlob(*blob, manifest.quant, info.key);
    timings.decode_us += ElapsedUs(t_decode);
    const auto t_apply = std::chrono::steady_clock::now();
    applier.ApplyChunk(chunk);
    timings.apply_us += ElapsedUs(t_apply);
    rows_applied += chunk.num_rows;
  }
  return rows_applied;
}

// Fetches the dense blob of `manifest` and applies it, filling the
// progress/reader fields of `result` from the manifest.
void ApplyNewestManifestState(storage::ObjectStore& store, const storage::Manifest& manifest,
                              pipeline::ChunkApplier& applier, RestoreResult& result) {
  // Shard sub-checkpoints of a coordinated cut carry no dense state (the cut
  // manifest owns it); skip the fetch+apply for their empty dense_key.
  if (!manifest.dense_key.empty()) {
    const auto t_fetch = std::chrono::steady_clock::now();
    auto dense = store.Get(manifest.dense_key);
    result.timings.fetch_us += ElapsedUs(t_fetch);
    if (!dense) throw std::runtime_error("recovery: missing dense blob");
    result.bytes_read += dense->size();
    const auto t_apply = std::chrono::steady_clock::now();
    applier.ApplyDense(*dense);
    result.timings.apply_us += ElapsedUs(t_apply);
  }
  result.reader_state = data::ReaderState::Decode(manifest.reader_state);
  result.batches_trained = manifest.batches_trained;
  result.samples_trained = manifest.samples_trained;
  result.checkpoint_id = manifest.checkpoint_id;
}

}  // namespace

void ModelApplier::ApplyChunk(const pipeline::DecodedChunk& chunk) {
  if (chunk.table_id >= model_.num_tables()) throw std::runtime_error("recovery: bad table id");
  auto& table = model_.table(chunk.table_id);
  if (chunk.shard_id >= table.num_shards()) throw std::runtime_error("recovery: bad shard id");
  auto& shard = table.Shard(chunk.shard_id);
  if (chunk.dim != shard.dim()) throw std::runtime_error("recovery: dim mismatch");
  for (std::uint64_t i = 0; i < chunk.num_rows; ++i) {
    const std::size_t local = chunk.RowIndex(i);
    if (local >= shard.num_rows()) throw std::runtime_error("recovery: row out of range");
    shard.RestoreRow(local, chunk.Row(i), chunk.adagrad[i]);
  }
}

void ModelApplier::ApplyDense(std::span<const std::uint8_t> dense_blob) {
  util::Reader r(dense_blob);
  model_.RestoreDense(r);
}

std::optional<std::uint64_t> LatestCheckpointId(storage::ObjectStore& store,
                                                const std::string& job) {
  const std::string prefix = storage::Manifest::JobPrefix(job) + "ckpt/";
  std::optional<std::uint64_t> latest;
  for (const auto& key : store.List(prefix)) {
    if (!key.ends_with("/MANIFEST")) continue;
    const auto id = storage::Manifest::ParseId(key, prefix);
    if (!id || key != storage::Manifest::ManifestKey(job, *id)) continue;  // stray key
    if (!latest || *id > *latest) latest = id;
  }
  return latest;
}

storage::Manifest LoadManifest(storage::ObjectStore& store, const std::string& job,
                               std::uint64_t id) {
  auto blob = store.Get(storage::Manifest::ManifestKey(job, id));
  if (!blob) throw std::runtime_error("recovery: no manifest for checkpoint " + std::to_string(id));
  return storage::Manifest::Decode(*blob);
}

std::vector<std::uint64_t> ResolveChain(storage::ObjectStore& store, const std::string& job,
                                        std::uint64_t id) {
  std::vector<std::uint64_t> chain;
  for (const auto& manifest : pipeline::ResolveChainManifests(store, job, id)) {
    chain.push_back(manifest.checkpoint_id);
  }
  return chain;
}

RestoreResult ApplyCheckpointDelta(storage::ObjectStore& store, const std::string& job,
                                   std::uint64_t id, dlrm::DlrmModel& model) {
  const auto entry_time = std::chrono::steady_clock::now();
  RestoreResult result;
  ModelApplier applier(model);
  const auto t_resolve = std::chrono::steady_clock::now();
  const auto manifest = LoadManifest(store, job, id);
  result.timings.resolve_us = ElapsedUs(t_resolve);
  result.rows_applied = ApplyManifest(store, manifest, applier, result.bytes_read,
                                      result.timings);
  result.checkpoints_applied = 1;
  ApplyNewestManifestState(store, manifest, applier, result);
  result.timings.restore_wall_us = ElapsedUs(entry_time);
  return result;
}

RestoreResult RestoreModel(storage::ObjectStore& store, const std::string& job,
                           dlrm::DlrmModel& model, std::optional<std::uint64_t> id) {
  const auto entry_time = std::chrono::steady_clock::now();
  if (!id) {
    id = LatestCheckpointId(store, job);
    if (!id) throw std::runtime_error("recovery: job has no checkpoints: " + job);
  }

  RestoreResult result;
  ModelApplier applier(model);
  const auto t_resolve = std::chrono::steady_clock::now();
  const auto manifests = pipeline::ResolveChainManifests(store, job, *id);
  result.timings.resolve_us = ElapsedUs(t_resolve);
  for (const auto& manifest : manifests) {
    result.rows_applied += ApplyManifest(store, manifest, applier, result.bytes_read,
                                         result.timings);
    ++result.checkpoints_applied;
  }
  // Newest manifest carries the authoritative dense/reader/progress state.
  ApplyNewestManifestState(store, manifests.back(), applier, result);
  result.timings.restore_wall_us = ElapsedUs(entry_time);
  return result;
}

RestoreResult RestoreModelPipelined(storage::ObjectStore& store, const std::string& job,
                                    dlrm::DlrmModel& model, std::optional<std::uint64_t> id,
                                    const pipeline::RestoreConfig& config) {
  if (!id) {
    id = LatestCheckpointId(store, job);
    if (!id) throw std::runtime_error("recovery: job has no checkpoints: " + job);
  }

  ModelApplier applier(model);
  auto outcome = pipeline::RunRestorePipeline(store, job, *id, applier, config);

  RestoreResult result;
  result.checkpoint_id = outcome.newest.checkpoint_id;
  result.batches_trained = outcome.newest.batches_trained;
  result.samples_trained = outcome.newest.samples_trained;
  result.reader_state = data::ReaderState::Decode(outcome.newest.reader_state);
  result.checkpoints_applied = outcome.chain.size();
  result.rows_applied = outcome.rows_applied;
  result.bytes_read = outcome.bytes_read;
  result.timings = outcome.timings;
  return result;
}

}  // namespace cnr::core
