// Retry decorator over an ObjectStore.
//
// Remote storage tiers fail transiently (timeouts, throttling, unavailable
// replicas — surfaced here as StoreUnavailable). Retrying used to live inside
// the checkpoint writer; it is now a store decorator so every storage client
// (pipeline store workers, the commit stage, GC, recovery reads) gets the
// same policy, and so it composes with the other decorators:
//
//   RetryingStore -> LatencyInjectedStore -> FaultInjectionStore -> InMemoryStore
//
// Put and Get retry StoreUnavailable up to max_attempts; the final attempt's
// exception propagates. Any other exception type is permanent and propagates
// immediately. Metadata operations (Exists/Delete/List/TotalBytes/Stats) pass
// straight through — their callers already tolerate staleness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "storage/object_store.h"

namespace cnr::storage {

struct RetryPolicy {
  int max_attempts = 3;
  // Delay before the first retry; doubles each further attempt via
  // backoff_multiplier. Zero (the default) never sleeps, which is what the
  // simulated stores and the unit tests want.
  std::chrono::microseconds initial_backoff{0};
  double backoff_multiplier = 2.0;
  // How to spend the backoff delay. Unset (default) sleeps on the wall
  // clock; simulated-time experiments inject util::SimSleeper(clock) here so
  // retry storms advance the SimClock instead of stalling the process
  // (see util/sim_clock.h).
  std::function<void(std::chrono::microseconds)> sleep;
};

class RetryingStore : public ObjectStore {
 public:
  RetryingStore(std::shared_ptr<ObjectStore> backing, RetryPolicy policy);
  // Non-owning variant for composing around a store the caller keeps alive
  // for the decorator's whole lifetime.
  RetryingStore(ObjectStore& backing, RetryPolicy policy);

  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override;
  bool Delete(const std::string& key) override;
  std::vector<std::string> List(const std::string& prefix) override;
  std::uint64_t TotalBytes() override;
  StoreStats Stats() override;
  // Metadata probe: forwarded without retry (callers treat nullopt as absent).
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  const RetryPolicy& policy() const { return policy_; }

  // Transient failures absorbed by a successful retry (not counting the
  // attempts of operations that ultimately failed).
  std::uint64_t retries_absorbed() const;

 private:
  void Backoff(int attempt) const;

  std::shared_ptr<ObjectStore> owned_;  // null for the non-owning variant
  ObjectStore* backing_;
  RetryPolicy policy_;
  std::atomic<std::uint64_t> retries_absorbed_{0};
};

}  // namespace cnr::storage
