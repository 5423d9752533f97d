// Remote object storage abstraction.
//
// Checkpoints at Facebook are written to remote object storage for
// availability and scalability (paper §2.2, §4). This repo substitutes an
// in-memory object store; the bandwidth/latency behaviour of the remote tier
// is modeled separately by LatencyInjectedStore so experiments can account
// for write bandwidth — the paper's primary bottleneck.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/sync.h"

namespace cnr::storage {

// Transient storage-tier failure (timeout, throttling, unavailable replica).
// Writers may retry these; permanent errors use other exception types.
class StoreUnavailable : public std::runtime_error {
 public:
  explicit StoreUnavailable(const std::string& what) : std::runtime_error(what) {}
};

// Cumulative operation counters for a store.
struct StoreStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

// Key/value object store. Implementations must be thread-safe: the decoupled
// checkpoint pipeline writes chunks from multiple background workers.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Stores `data` under `key`, replacing any existing object.
  virtual void Put(const std::string& key, std::vector<std::uint8_t> data) = 0;

  // Returns the object, or nullopt if absent.
  virtual std::optional<std::vector<std::uint8_t>> Get(const std::string& key) = 0;

  virtual bool Exists(const std::string& key) = 0;

  // Deletes `key`; returns whether it existed.
  virtual bool Delete(const std::string& key) = 0;

  // Keys with the given prefix, in lexicographic order.
  virtual std::vector<std::string> List(const std::string& prefix) = 0;

  // Total bytes currently stored (the "storage capacity" measure of Fig 16).
  virtual std::uint64_t TotalBytes() = 0;

  virtual StoreStats Stats() = 0;

  // Size of the object in bytes, or nullopt if absent. A metadata probe:
  // implementations should answer it without moving the payload (a stat, not
  // a read — it must not count toward gets/bytes_read). The default fetches
  // and measures, for stores that predate the probe.
  virtual std::optional<std::uint64_t> SizeOf(const std::string& key) {
    const auto data = Get(key);
    if (!data) return std::nullopt;
    return static_cast<std::uint64_t>(data->size());
  }
};

// Thread-safe in-memory object store.
class InMemoryStore : public ObjectStore {
 public:
  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override;
  bool Delete(const std::string& key) override;
  std::vector<std::string> List(const std::string& prefix) override;
  std::uint64_t TotalBytes() override;
  StoreStats Stats() override;
  std::optional<std::uint64_t> SizeOf(const std::string& key) override;

 private:
  util::Mutex mu_;
  std::map<std::string, std::vector<std::uint8_t>> objects_ GUARDED_BY(mu_);
  std::uint64_t total_bytes_ GUARDED_BY(mu_) = 0;
  StoreStats stats_ GUARDED_BY(mu_);
};

}  // namespace cnr::storage
