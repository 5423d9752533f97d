// Simulated wall clock and time units.
//
// The maintenance plane's scrub schedule, delta-log compaction, retry
// backoff and the executor's controller ticks can all run on a SimClock, so
// tests compress days of simulated time into milliseconds of real time,
// deterministically; the cluster and failure-trace models (src/sim/) express
// their durations in SimTime.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>

#include "util/sync.h"

namespace cnr::util {

// Simulated time in microseconds since the start of a training run.
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;
constexpr SimTime kHour = 60 * kMinute;

// Thread-safe: concurrent Advance calls accumulate (retry backoffs from the
// checkpoint service's store workers all land on one simulated timeline).
//
// Schedulers that sleep until a simulated deadline (the checkpoint service's
// background scrub, core/maintenance.h) register a wake callback with
// Subscribe; it fires after every Advance/AdvanceTo/Reset. Callbacks must be
// cheap and must not call back into the clock (the subscriber lock is held
// while they run) — notifying a condition variable is the intended use.
class SimClock {
 public:
  using SubscriberId = std::uint64_t;

  SimClock() = default;

  SimTime now() const { return now_.load(std::memory_order_relaxed); }

  void Advance(SimTime delta) {
    if (delta < 0) throw std::invalid_argument("SimClock::Advance negative");
    now_.fetch_add(delta, std::memory_order_relaxed);
    NotifySubscribers();
  }

  void AdvanceTo(SimTime t) {
    SimTime cur = now_.load(std::memory_order_relaxed);
    for (;;) {
      if (t < cur) throw std::invalid_argument("SimClock::AdvanceTo backwards");
      if (now_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) break;
    }
    NotifySubscribers();
  }

  void Reset() {
    now_.store(0, std::memory_order_relaxed);
    NotifySubscribers();
  }

  // Registers a wake callback; the returned id unsubscribes it. Subscribers
  // must outlive their registration (Unsubscribe before destroying captured
  // state).
  SubscriberId Subscribe(std::function<void()> wake) EXCLUDES(sub_mu_) {
    MutexLock lock(sub_mu_);
    const SubscriberId id = next_subscriber_++;
    subscribers_.emplace(id, std::move(wake));
    return id;
  }

  void Unsubscribe(SubscriberId id) EXCLUDES(sub_mu_) {
    MutexLock lock(sub_mu_);
    subscribers_.erase(id);
  }

 private:
  // Wake callbacks run with sub_mu_ held: sub_mu_ is acquired BEFORE any
  // lock a callback takes (StageExecutor::mu_, MaintenanceManager's mu).
  // Nothing downstream may call back into the clock's subscriber API; the
  // full cross-class ordering lives in docs/CONCURRENCY.md.
  void NotifySubscribers() EXCLUDES(sub_mu_) {
    MutexLock lock(sub_mu_);
    for (const auto& [id, wake] : subscribers_) wake();
  }

  std::atomic<SimTime> now_{0};
  Mutex sub_mu_;
  std::map<SubscriberId, std::function<void()>> subscribers_
      GUARDED_BY(sub_mu_);
  SubscriberId next_subscriber_ GUARDED_BY(sub_mu_) = 0;
};

// Sleep hook for storage::RetryPolicy::sleep (and any other injected delay):
// advances `clock` by the requested duration instead of blocking the thread,
// so simulated-time experiments can model retry storms at full speed. The
// clock must outlive every store using the hook.
inline auto SimSleeper(SimClock& clock) {
  return [&clock](std::chrono::microseconds delay) {
    clock.Advance(static_cast<SimTime>(delay.count()));
  };
}

}  // namespace cnr::util
