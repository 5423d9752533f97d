#include "storage/manifest.h"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace cnr::storage {

void StageTimings::Serialize(util::Writer& w) const {
  w.Put<std::uint64_t>(snapshot_us);
  w.Put<std::uint64_t>(plan_us);
  w.Put<std::uint64_t>(encode_us);
  w.Put<std::uint64_t>(store_us);
  w.Put<std::uint64_t>(commit_us);
  w.Put<std::uint64_t>(encode_queue_us);
  w.Put<std::uint64_t>(store_queue_us);
}

StageTimings StageTimings::Deserialize(util::Reader& r) {
  StageTimings t;
  t.snapshot_us = r.Get<std::uint64_t>();
  t.plan_us = r.Get<std::uint64_t>();
  t.encode_us = r.Get<std::uint64_t>();
  t.store_us = r.Get<std::uint64_t>();
  t.commit_us = r.Get<std::uint64_t>();
  t.encode_queue_us = r.Get<std::uint64_t>();
  t.store_queue_us = r.Get<std::uint64_t>();
  return t;
}

void ChunkInfo::Serialize(util::Writer& w) const {
  w.PutString(key);
  w.Put<std::uint32_t>(table_id);
  w.Put<std::uint32_t>(shard_id);
  w.Put<std::uint64_t>(num_rows);
  w.Put<std::uint64_t>(bytes);
}

ChunkInfo ChunkInfo::Deserialize(util::Reader& r) {
  ChunkInfo c;
  c.key = r.GetString();
  c.table_id = r.Get<std::uint32_t>();
  c.shard_id = r.Get<std::uint32_t>();
  c.num_rows = r.Get<std::uint64_t>();
  c.bytes = r.Get<std::uint64_t>();
  return c;
}

void ShardCutEntry::Serialize(util::Writer& w) const {
  w.Put<std::uint32_t>(shard_id);
  w.Put<std::uint64_t>(checkpoint_id);
}

ShardCutEntry ShardCutEntry::Deserialize(util::Reader& r) {
  ShardCutEntry e;
  e.shard_id = r.Get<std::uint32_t>();
  e.checkpoint_id = r.Get<std::uint64_t>();
  return e;
}

std::uint64_t Manifest::TotalBytes() const {
  std::uint64_t total = dense_bytes;
  for (const auto& c : chunks) total += c.bytes;
  return total;
}

std::vector<std::uint8_t> Manifest::Encode() const {
  util::Writer w;
  w.Put<std::uint32_t>(kFormatVersion);
  w.Put<std::uint64_t>(checkpoint_id);
  w.Put<std::uint8_t>(static_cast<std::uint8_t>(kind));
  w.Put<std::uint64_t>(parent_id);
  w.Put<std::uint64_t>(batches_trained);
  w.Put<std::uint64_t>(samples_trained);
  quant.Serialize(w);
  w.PutVector(reader_state);
  w.PutString(dense_key);
  w.Put<std::uint64_t>(dense_bytes);
  w.Put<std::uint64_t>(chunks.size());
  for (const auto& c : chunks) c.Serialize(w);
  timings.Serialize(w);
  w.Put<std::uint64_t>(cut_epoch);
  w.Put<std::uint64_t>(shard_map.size());
  for (const auto& e : shard_map) e.Serialize(w);
  return w.TakeBytes();
}

Manifest Manifest::Decode(std::span<const std::uint8_t> data) {
  util::Reader r(data);
  const auto version = r.Get<std::uint32_t>();
  if (version < 1 || version > kFormatVersion) {
    throw util::SerializeError("manifest: unsupported format version " + std::to_string(version));
  }
  Manifest m;
  m.checkpoint_id = r.Get<std::uint64_t>();
  m.kind = static_cast<CheckpointKind>(r.Get<std::uint8_t>());
  m.parent_id = r.Get<std::uint64_t>();
  m.batches_trained = r.Get<std::uint64_t>();
  m.samples_trained = r.Get<std::uint64_t>();
  m.quant = quant::QuantConfig::Deserialize(r);
  m.reader_state = r.GetVector<std::uint8_t>();
  m.dense_key = r.GetString();
  m.dense_bytes = r.Get<std::uint64_t>();
  const auto n = r.Get<std::uint64_t>();
  m.chunks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.chunks.push_back(ChunkInfo::Deserialize(r));
  if (version >= 2) m.timings = StageTimings::Deserialize(r);
  if (version >= 3) {
    m.cut_epoch = r.Get<std::uint64_t>();
    const auto entries = r.Get<std::uint64_t>();
    m.shard_map.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
      m.shard_map.push_back(ShardCutEntry::Deserialize(r));
    }
  }
  return m;
}

std::string Manifest::JobPrefix(const std::string& job) { return "jobs/" + job + "/"; }

std::string Manifest::CheckpointPrefix(const std::string& job, std::uint64_t checkpoint_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(checkpoint_id));
  return JobPrefix(job) + "ckpt/" + buf + "/";
}

std::string Manifest::ManifestKey(const std::string& job, std::uint64_t checkpoint_id) {
  return CheckpointPrefix(job, checkpoint_id) + "MANIFEST";
}

std::string Manifest::ChunkKey(const std::string& job, std::uint64_t checkpoint_id,
                               std::uint32_t table_id, std::uint32_t shard_id,
                               std::uint32_t chunk_index) {
  return CheckpointPrefix(job, checkpoint_id) + "t" + std::to_string(table_id) + "/s" +
         std::to_string(shard_id) + "/c" + std::to_string(chunk_index);
}

std::string Manifest::DenseKey(const std::string& job, std::uint64_t checkpoint_id) {
  return CheckpointPrefix(job, checkpoint_id) + "dense";
}

std::string Manifest::CutPrefix(const std::string& job, std::uint64_t cut_epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(cut_epoch));
  return JobPrefix(job) + "cut/" + buf + "/";
}

std::string Manifest::CutKey(const std::string& job, std::uint64_t cut_epoch) {
  return CutPrefix(job, cut_epoch) + "COORD";
}

std::string Manifest::CutDenseKey(const std::string& job, std::uint64_t cut_epoch) {
  return CutPrefix(job, cut_epoch) + "dense";
}

std::string Manifest::DeltaLogRoot(const std::string& job) {
  return JobPrefix(job) + "dlog/";
}

std::string Manifest::DeltaLogPrefix(const std::string& job, std::uint64_t base_checkpoint_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(base_checkpoint_id));
  return DeltaLogRoot(job) + buf + "/";
}

std::string Manifest::DeltaSegmentKey(const std::string& job, std::uint64_t base_checkpoint_id,
                                      std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(seq));
  return DeltaLogPrefix(job, base_checkpoint_id) + "seg/" + buf;
}

std::string Manifest::DeltaCompactKey(const std::string& job, std::uint64_t base_checkpoint_id,
                                      std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(seq));
  return DeltaLogPrefix(job, base_checkpoint_id) + "compact/" + buf;
}

std::optional<std::uint64_t> Manifest::ParseId(std::string_view key, std::string_view prefix) {
  if (!key.starts_with(prefix)) return std::nullopt;
  const std::string_view rest = key.substr(prefix.size());
  const std::string_view digits = rest.substr(0, rest.find('/'));
  const char* const end = digits.data() + digits.size();
  std::uint64_t id = 0;
  const auto [stop, ec] = std::from_chars(digits.data(), end, id);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return id;
}

void DeltaSegmentHeader::Serialize(util::Writer& w) const {
  w.Put<std::uint32_t>(kMagic);
  w.Put<std::uint32_t>(kSegmentVersion);
  w.Put<std::uint64_t>(base_checkpoint_id);
  w.Put<std::uint64_t>(seq);
  w.Put<std::uint8_t>(compacted ? 1 : 0);
  w.Put<std::uint64_t>(first_iteration);
  w.Put<std::uint64_t>(last_iteration);
  w.Put<std::uint64_t>(min_row);
  w.Put<std::uint64_t>(max_row);
  w.Put<std::uint32_t>(num_iterations);
}

DeltaSegmentHeader DeltaSegmentHeader::Deserialize(util::Reader& r) {
  const auto magic = r.Get<std::uint32_t>();
  if (magic != kMagic) throw util::SerializeError("delta segment: bad magic");
  const auto version = r.Get<std::uint32_t>();
  if (version != kSegmentVersion) {
    throw util::SerializeError("delta segment: unsupported version " + std::to_string(version));
  }
  DeltaSegmentHeader h;
  h.base_checkpoint_id = r.Get<std::uint64_t>();
  h.seq = r.Get<std::uint64_t>();
  h.compacted = r.Get<std::uint8_t>() != 0;
  h.first_iteration = r.Get<std::uint64_t>();
  h.last_iteration = r.Get<std::uint64_t>();
  h.min_row = r.Get<std::uint64_t>();
  h.max_row = r.Get<std::uint64_t>();
  h.num_iterations = r.Get<std::uint32_t>();
  return h;
}

}  // namespace cnr::storage
