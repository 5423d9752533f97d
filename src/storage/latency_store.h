// Wall-clock latency + bandwidth decorator over an ObjectStore.
//
// Models a storage tier's per-operation round-trip latency AND its transfer
// bandwidth with real sleeps, so pipelines that claim to hide fetch latency
// behind CPU work can be demonstrated with honest wall-clock measurements,
// and tier benches (bench/tiered_store.cpp) can model a realistic 10–100×
// near/far gap: an NVMe-like near tier at tens of µs and GB/s against a
// remote object store at hundreds of µs and hundreds of MB/s. It is the one
// link-model decorator: every bench, example and perfbench workload that
// models a link uses it.
#pragma once

#include <chrono>
#include <memory>
#include <utility>

#include "storage/object_store.h"
#include "util/sync.h"

namespace cnr::storage {

// Wall-clock cost model of one tier. Delay per op = fixed per-op latency +
// payload_bytes / bandwidth. A bandwidth of 0 means infinite (no size term).
struct LatencyModel {
  std::chrono::microseconds get_latency{0};
  std::chrono::microseconds put_latency{0};
  std::uint64_t read_bytes_per_sec = 0;
  std::uint64_t write_bytes_per_sec = 0;
};

class LatencyInjectedStore : public ObjectStore {
 public:
  LatencyInjectedStore(std::shared_ptr<ObjectStore> backing, LatencyModel model)
      : backing_(std::move(backing)), model_(model) {}

  // Back-compat: per-op latency only, infinite bandwidth.
  LatencyInjectedStore(std::shared_ptr<ObjectStore> backing,
                       std::chrono::microseconds get_latency,
                       std::chrono::microseconds put_latency =
                           std::chrono::microseconds(0))
      : LatencyInjectedStore(std::move(backing),
                             LatencyModel{get_latency, put_latency, 0, 0}) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override { return backing_->Exists(key); }
  bool Delete(const std::string& key) override { return backing_->Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return backing_->List(prefix);
  }
  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);  // metadata probe: no modeled transfer
  }

  const LatencyModel& model() const { return model_; }

  // Injection counters: ops that slept and the total injected wall time.
  std::uint64_t delayed_puts() const EXCLUDES(mu_);
  std::uint64_t delayed_gets() const EXCLUDES(mu_);
  std::chrono::microseconds injected_put_time() const EXCLUDES(mu_);
  std::chrono::microseconds injected_get_time() const EXCLUDES(mu_);

 private:
  std::chrono::microseconds PutDelay(std::size_t bytes) const;
  std::chrono::microseconds GetDelay(std::size_t bytes) const;

  std::shared_ptr<ObjectStore> backing_;
  const LatencyModel model_;

  mutable util::Mutex mu_;
  std::uint64_t delayed_puts_ GUARDED_BY(mu_) = 0;
  std::uint64_t delayed_gets_ GUARDED_BY(mu_) = 0;
  std::uint64_t injected_put_us_ GUARDED_BY(mu_) = 0;
  std::uint64_t injected_get_us_ GUARDED_BY(mu_) = 0;
};

}  // namespace cnr::storage
