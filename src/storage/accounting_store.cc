#include "storage/accounting_store.h"

#include <optional>
#include <string_view>
#include <utility>

namespace cnr::storage {

namespace {

// The keys whose prefix range in a key-sorted map starts at `prefix`.
template <typename Map>
auto PrefixRange(Map& map, const std::string& prefix) {
  auto first = map.lower_bound(prefix);
  auto last = first;
  while (last != map.end() && last->first.starts_with(prefix)) ++last;
  return std::pair{first, last};
}

}  // namespace

PublicationRecord PublicationRecord::Of(std::string_view key, const Manifest& m,
                                        std::uint64_t object_bytes) {
  PublicationRecord r;
  r.object_bytes = object_bytes;
  if (Manifest::IsCutKey(key)) {
    r.readable = m.kind == CheckpointKind::kCoordinated;
    r.id = m.cut_epoch;
    r.dense_key = m.dense_key;
    r.dense_bytes = m.dense_bytes;
    r.shard_map = m.shard_map;
    return r;
  }
  r.readable = true;
  r.id = m.checkpoint_id;
  r.kind = m.kind;
  r.parent_id = m.parent_id;
  for (const auto& c : m.chunks) r.claimed_bytes += c.bytes;
  if (!m.dense_key.empty()) r.claimed_bytes += m.dense_bytes;
  return r;
}

PublicationRecord PublicationRecord::Decode(std::string_view key,
                                            std::span<const std::uint8_t> bytes) {
  try {
    return Of(key, Manifest::Decode(bytes), bytes.size());
  } catch (...) {
    PublicationRecord r;
    r.object_bytes = bytes.size();
    return r;
  }
}

AccountingStore::AccountingStore(std::shared_ptr<ObjectStore> backing,
                                 std::uint64_t quota_bytes)
    : backing_(std::move(backing)), quota_bytes_(quota_bytes) {
  if (!backing_) throw std::invalid_argument("AccountingStore: null backing store");
}

std::string AccountingStore::JobOfKey(const std::string& key) {
  constexpr std::string_view kPrefix = "jobs/";
  if (key.compare(0, kPrefix.size(), kPrefix) != 0) return "";
  const auto slash = key.find('/', kPrefix.size());
  if (slash == std::string::npos) return "";
  return key.substr(kPrefix.size(), slash - kPrefix.size());
}

void AccountingStore::Put(const std::string& key, std::vector<std::uint8_t> data) {
  const std::uint64_t new_size = data.size();
  // A publication object's record is decoded from the bytes in hand, before
  // they move to the backing store and outside the lock.
  std::optional<PublicationRecord> record;
  if (Manifest::IsPublicationKey(key)) record = PublicationRecord::Decode(key, data);
  std::uint64_t replaced = 0;
  {
    // Check AND reserve under one lock: concurrent store workers must not
    // be able to jointly overshoot the quota between a passed check and the
    // later accounting. On failure of the backing put the reservation is
    // rolled back. (Concurrent puts to the *same* key may transiently skew
    // the per-job split; checkpoint keys are unique per chunk, so the
    // engine never does that.)
    util::WriterMutexLock lock(mu_);
    const auto it = sizes_.find(key);
    replaced = it == sizes_.end() ? 0 : it->second;
    if (quota_bytes_ > 0 && tracked_bytes_ - replaced + new_size > quota_bytes_) {
      publications_.erase(key);
      throw QuotaExceeded("AccountingStore: put of " + std::to_string(new_size) +
                          " bytes for key " + key + " exceeds shared quota (" +
                          std::to_string(tracked_bytes_ - replaced) + " of " +
                          std::to_string(quota_bytes_) + " bytes in use)");
    }
    tracked_bytes_ = tracked_bytes_ - replaced + new_size;
  }
  try {
    backing_->Put(key, std::move(data));
  } catch (...) {
    util::WriterMutexLock lock(mu_);
    tracked_bytes_ = tracked_bytes_ + replaced - new_size;
    publications_.erase(key);
    throw;
  }
  util::WriterMutexLock lock(mu_);
  auto& usage = usage_[JobOfKey(key)];
  auto [it, inserted] = sizes_.emplace(key, new_size);
  if (inserted) {
    ++usage.objects;
  } else {
    usage.bytes -= it->second;
    it->second = new_size;
  }
  usage.bytes += new_size;
  ++usage.puts;
  if (record) publications_.insert_or_assign(key, std::move(*record));
}

bool AccountingStore::SeedObject(const std::string& key, std::uint64_t bytes) {
  util::WriterMutexLock lock(mu_);
  const auto [it, inserted] = sizes_.emplace(key, bytes);
  if (!inserted) return false;  // already tracked (written or seeded)
  auto& usage = usage_[JobOfKey(key)];
  usage.bytes += bytes;
  ++usage.objects;
  ++usage.seeded;
  tracked_bytes_ += bytes;
  return true;
}

std::optional<std::vector<std::uint8_t>> AccountingStore::Get(const std::string& key) {
  auto blob = backing_->Get(key);
  if (blob) {
    // Read-side accounting: lets partial-recovery tests assert that only the
    // lost shards' objects were fetched, by job and in aggregate.
    util::WriterMutexLock lock(mu_);
    auto& usage = usage_[JobOfKey(key)];
    ++usage.gets;
    usage.bytes_fetched += blob->size();
  }
  return blob;
}

bool AccountingStore::Exists(const std::string& key) { return backing_->Exists(key); }

bool AccountingStore::Delete(const std::string& key) {
  bool existed = false;
  try {
    existed = backing_->Delete(key);
  } catch (...) {
    util::WriterMutexLock lock(mu_);
    publications_.erase(key);
    throw;
  }
  util::WriterMutexLock lock(mu_);
  publications_.erase(key);
  if (existed) {
    const auto it = sizes_.find(key);
    if (it != sizes_.end()) {
      auto& usage = usage_[JobOfKey(key)];
      tracked_bytes_ -= it->second;
      usage.bytes -= it->second;
      --usage.objects;
      ++usage.deletes;
      sizes_.erase(it);
    }
  }
  return existed;
}

std::vector<std::string> AccountingStore::List(const std::string& prefix) {
  return backing_->List(prefix);
}

std::uint64_t AccountingStore::TotalBytes() { return backing_->TotalBytes(); }

StoreStats AccountingStore::Stats() { return backing_->Stats(); }

std::map<std::string, PublicationRecord> AccountingStore::Publications(
    const std::string& prefix) const {
  util::ReaderMutexLock lock(mu_);
  const auto [first, last] = PrefixRange(publications_, prefix);
  return {first, last};
}

void AccountingStore::ReplacePublications(const std::string& prefix,
                                          std::map<std::string, PublicationRecord> records) {
  util::WriterMutexLock lock(mu_);
  const auto [first, last] = PrefixRange(publications_, prefix);
  publications_.erase(first, last);
  publications_.merge(records);
}

JobUsage AccountingStore::Usage(const std::string& job) const {
  util::ReaderMutexLock lock(mu_);
  const auto it = usage_.find(job);
  return it == usage_.end() ? JobUsage{} : it->second;
}

std::map<std::string, JobUsage> AccountingStore::UsageByJob() const {
  util::ReaderMutexLock lock(mu_);
  return usage_;
}

std::uint64_t AccountingStore::TrackedBytes() const {
  util::ReaderMutexLock lock(mu_);
  return tracked_bytes_;
}

}  // namespace cnr::storage
