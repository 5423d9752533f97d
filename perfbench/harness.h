// Measurement plumbing of the end-to-end benchmark: sample sets, the span
// tracer (Chrome trace-event JSON), and the recording ObjectStore decorator
// that sits between the system and each storage tier.
//
// Everything here observes the system from outside: spans wrap calls into
// public functions, and the recording store sees exactly the Put/Get/Delete/
// List traffic the system sends to a tier.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "storage/object_store.h"
#include "util/sync.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// A set of samples with linear-interpolated quantiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  double Max() const { return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end()); }
  double Quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double P50() const { return Quantile(0.5); }
  double P90() const { return Quantile(0.9); }

 private:
  std::vector<double> v_;
};

// In-memory span recorder; inert unless enabled. Spans carry a parent span
// id and the unit (checkpoint, iteration, cut) they belong to.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t unit = 0;
    std::uint64_t tid = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  double ToUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  // Records a finished span; returns its id (0 when disabled).
  std::uint64_t Record(std::string name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::uint64_t unit = 0) {
    if (!enabled_) return 0;
    cnr::util::MutexLock lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start_us = ToUs(start);
    s.end_us = ToUs(end);
    s.id = ++next_id_;
    s.parent = parent;
    s.unit = unit;
    s.tid = ThreadIndexLocked();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void Clear() {
    cnr::util::MutexLock lock(mu_);
    spans_.clear();
  }

  // Chrome trace-event JSON ("X" complete events; parent and unit in args).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    cnr::util::MutexLock lock(mu_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"unit\":%llu}}%s\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.tid), s.start_us,
                   s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.unit),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t ThreadIndexLocked() REQUIRES(mu_) {
    const auto id = std::this_thread::get_id();
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const std::uint64_t idx = threads_.size() + 1;
    threads_.emplace(id, idx);
    return idx;
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable cnr::util::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::map<std::thread::id, std::uint64_t> threads_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 0;
};

// Per-op observations of one tier, filled only when tracing.
struct TierOps {
  Samples put_ms, get_ms, delete_ms, list_ms;
  std::uint64_t put_bytes = 0;
  std::uint64_t get_bytes = 0;
};

// Recording decorator over one storage tier. Always stamps when each key's
// latest Put completed (what time-to-far-durable and drain lag are computed
// from) and tracks the tier's live bytes; with tracing on it also records
// per-op latency, counts, bytes, and a span per op.
class RecordingStore : public cnr::storage::ObjectStore {
 public:
  RecordingStore(std::shared_ptr<cnr::storage::ObjectStore> backing, std::string tier,
                 Tracer& tracer)
      : backing_(std::move(backing)), tier_(std::move(tier)), tracer_(tracer) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    const std::uint64_t bytes = data.size();
    const auto t0 = Clock::now();
    backing_->Put(key, std::move(data));
    const auto t1 = Clock::now();
    cnr::util::MutexLock lock(mu_);
    put_done_[key] = t1;
    auto& size = sizes_[key];
    live_bytes_ = live_bytes_ - size + bytes;
    size = bytes;
    peak_bytes_ = std::max(peak_bytes_, live_bytes_);
    if (tracer_.enabled()) {
      ops_.put_ms.Add(Ms(t1 - t0));
      ops_.put_bytes += bytes;
      tracer_.Record(tier_ + ".put", t0, t1);
    }
  }

  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    const auto t0 = Clock::now();
    auto out = backing_->Get(key);
    const auto t1 = Clock::now();
    if (tracer_.enabled()) {
      cnr::util::MutexLock lock(mu_);
      ops_.get_ms.Add(Ms(t1 - t0));
      if (out) ops_.get_bytes += out->size();
      tracer_.Record(tier_ + ".get", t0, t1);
    }
    return out;
  }

  bool Exists(const std::string& key) override { return backing_->Exists(key); }

  bool Delete(const std::string& key) override {
    const auto t0 = Clock::now();
    const bool existed = backing_->Delete(key);
    const auto t1 = Clock::now();
    cnr::util::MutexLock lock(mu_);
    const auto it = sizes_.find(key);
    if (it != sizes_.end()) {
      live_bytes_ -= it->second;
      sizes_.erase(it);
    }
    if (tracer_.enabled()) ops_.delete_ms.Add(Ms(t1 - t0));
    return existed;
  }

  std::vector<std::string> List(const std::string& prefix) override {
    const auto t0 = Clock::now();
    auto out = backing_->List(prefix);
    if (tracer_.enabled()) {
      const auto t1 = Clock::now();
      cnr::util::MutexLock lock(mu_);
      ops_.list_ms.Add(Ms(t1 - t0));
    }
    return out;
  }

  std::uint64_t TotalBytes() override { return backing_->TotalBytes(); }
  cnr::storage::StoreStats Stats() override { return backing_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return backing_->SizeOf(key);
  }

  // When the latest Put of `key` completed, if it ever landed here.
  std::optional<Clock::time_point> PutDone(const std::string& key) const {
    cnr::util::MutexLock lock(mu_);
    const auto it = put_done_.find(key);
    if (it == put_done_.end()) return std::nullopt;
    return it->second;
  }

  // Latest Put completion over every key starting with `prefix`.
  std::optional<Clock::time_point> LastPutDoneUnder(const std::string& prefix) const {
    cnr::util::MutexLock lock(mu_);
    std::optional<Clock::time_point> last;
    for (auto it = put_done_.lower_bound(prefix);
         it != put_done_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
      if (!last || it->second > *last) last = it->second;
    }
    return last;
  }

  std::map<std::string, Clock::time_point> put_done() const {
    cnr::util::MutexLock lock(mu_);
    return put_done_;
  }

  std::uint64_t peak_bytes() const {
    cnr::util::MutexLock lock(mu_);
    return peak_bytes_;
  }

  TierOps ops() const {
    cnr::util::MutexLock lock(mu_);
    return ops_;
  }

 private:
  std::shared_ptr<cnr::storage::ObjectStore> backing_;
  const std::string tier_;
  Tracer& tracer_;
  mutable cnr::util::Mutex mu_;
  std::map<std::string, Clock::time_point> put_done_ GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> sizes_ GUARDED_BY(mu_);
  std::uint64_t live_bytes_ GUARDED_BY(mu_) = 0;
  std::uint64_t peak_bytes_ GUARDED_BY(mu_) = 0;
  TierOps ops_ GUARDED_BY(mu_);
};

}  // namespace perfbench
