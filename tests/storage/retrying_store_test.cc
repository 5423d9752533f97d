#include "storage/retrying_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "storage/fault_injection.h"
#include "storage/latency_store.h"
#include "util/sim_clock.h"

namespace cnr::storage {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

RetryPolicy Attempts(int n) {
  RetryPolicy policy;
  policy.max_attempts = n;
  return policy;
}

// Fails the first `fail_count` Put/Get calls with StoreUnavailable, then
// behaves normally. Counts attempts.
class FlakyStore : public ObjectStore {
 public:
  explicit FlakyStore(int fail_count) : fail_remaining_(fail_count) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override {
    ++put_attempts_;
    if (fail_remaining_ > 0) {
      --fail_remaining_;
      throw StoreUnavailable("flaky put");
    }
    inner_.Put(key, std::move(data));
  }
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override {
    ++get_attempts_;
    if (fail_remaining_ > 0) {
      --fail_remaining_;
      throw StoreUnavailable("flaky get");
    }
    return inner_.Get(key);
  }
  bool Exists(const std::string& key) override { return inner_.Exists(key); }
  bool Delete(const std::string& key) override { return inner_.Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  std::uint64_t TotalBytes() override { return inner_.TotalBytes(); }
  StoreStats Stats() override { return inner_.Stats(); }

  int put_attempts() const { return put_attempts_; }
  int get_attempts() const { return get_attempts_; }
  void FailNext(int n) { fail_remaining_ = n; }

 private:
  InMemoryStore inner_;
  int fail_remaining_;
  int put_attempts_ = 0;
  int get_attempts_ = 0;
};

// Throws a non-transient error on every Put.
class BrokenStore : public InMemoryStore {
 public:
  void Put(const std::string&, std::vector<std::uint8_t>) override {
    ++attempts;
    throw std::runtime_error("permanent failure");
  }
  int attempts = 0;
};

TEST(RetryingStore, AbsorbsTransientPutFailures) {
  auto flaky = std::make_shared<FlakyStore>(2);
  RetryingStore store(flaky, Attempts(3));
  store.Put("k", Bytes("v"));
  EXPECT_EQ(flaky->put_attempts(), 3);
  EXPECT_EQ(store.retries_absorbed(), 2u);
  EXPECT_EQ(*store.Get("k"), Bytes("v"));
}

TEST(RetryingStore, PayloadSurvivesFailedAttempts) {
  // The buffer may only be donated to the backing store on the final
  // attempt; earlier failures must not leave a moved-from payload behind.
  auto flaky = std::make_shared<FlakyStore>(2);
  RetryingStore store(flaky, Attempts(3));
  store.Put("k", Bytes("payload"));
  EXPECT_EQ(*store.Get("k"), Bytes("payload"));
}

TEST(RetryingStore, GivesUpAfterMaxAttempts) {
  auto flaky = std::make_shared<FlakyStore>(100);
  RetryingStore store(flaky, Attempts(3));
  EXPECT_THROW(store.Put("k", Bytes("v")), StoreUnavailable);
  EXPECT_EQ(flaky->put_attempts(), 3);
  EXPECT_EQ(store.retries_absorbed(), 0u);
}

TEST(RetryingStore, NonTransientErrorsPropagateImmediately) {
  auto broken = std::make_shared<BrokenStore>();
  RetryingStore store(broken, Attempts(5));
  EXPECT_THROW(store.Put("k", Bytes("v")), std::runtime_error);
  EXPECT_EQ(broken->attempts, 1) << "only StoreUnavailable is retryable";
}

TEST(RetryingStore, RetriesTransientGets) {
  auto flaky = std::make_shared<FlakyStore>(0);
  RetryingStore store(flaky, Attempts(3));
  store.Put("k", Bytes("v"));
  flaky->FailNext(2);
  EXPECT_EQ(*store.Get("k"), Bytes("v"));
  EXPECT_EQ(flaky->get_attempts(), 3);
  EXPECT_EQ(store.retries_absorbed(), 2u);
}

TEST(RetryingStore, MetadataOpsPassThrough) {
  auto inner = std::make_shared<InMemoryStore>();
  RetryingStore store(inner, RetryPolicy{});
  store.Put("a/1", Bytes("x"));
  store.Put("a/2", Bytes("yy"));
  EXPECT_TRUE(store.Exists("a/1"));
  EXPECT_EQ(store.List("a/").size(), 2u);
  EXPECT_EQ(store.TotalBytes(), 3u);
  EXPECT_EQ(store.Stats().puts, 2u);
  EXPECT_TRUE(store.Delete("a/1"));
  EXPECT_FALSE(store.Exists("a/1"));
}

TEST(RetryingStore, ComposesWithFaultInjectionAndLatency) {
  // The decorator chain the system runs with: retry over a modeled link
  // over a flaky tier.
  FaultConfig fc;
  fc.put_failure_probability = 0.5;
  fc.seed = 3;
  auto flaky =
      std::make_shared<FaultInjectionStore>(std::make_shared<InMemoryStore>(), fc);
  auto link = std::make_shared<LatencyInjectedStore>(
      flaky, LatencyModel{std::chrono::microseconds(0), std::chrono::microseconds(10),
                          0, 100u << 20});
  RetryingStore store(link, Attempts(64));
  for (int i = 0; i < 20; ++i) {
    store.Put("k" + std::to_string(i), Bytes("v"));
  }
  EXPECT_GT(flaky->injected_put_failures(), 0u);
  EXPECT_GE(link->delayed_puts(), 20u) << "every attempt crosses the modeled link";
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.Exists("k" + std::to_string(i)));
  }
}

TEST(RetryingStore, NonOwningVariantSharesTheBacking) {
  InMemoryStore inner;
  RetryingStore store(inner, RetryPolicy{});
  store.Put("k", Bytes("v"));
  EXPECT_TRUE(inner.Exists("k"));
}

TEST(RetryingStore, InvalidConstructionThrows) {
  EXPECT_THROW(RetryingStore(nullptr, RetryPolicy{}), std::invalid_argument);
  auto inner = std::make_shared<InMemoryStore>();
  EXPECT_THROW(RetryingStore(inner, Attempts(0)), std::invalid_argument);
}

TEST(RetryingStore, BackoffAdvancesSimClockInsteadOfSleeping) {
  // Simulated-time retry storms: the backoff sleep hook advances a SimClock,
  // so two transient failures cost 1 ms + 2 ms of *simulated* time and no
  // measurable wall time.
  util::SimClock clock;
  auto flaky = std::make_shared<FlakyStore>(2);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(1000);
  policy.backoff_multiplier = 2.0;
  policy.sleep = util::SimSleeper(clock);
  RetryingStore store(flaky, policy);

  const auto wall_start = std::chrono::steady_clock::now();
  store.Put("k", Bytes("v"));
  const auto wall = std::chrono::steady_clock::now() - wall_start;

  EXPECT_EQ(clock.now(), 3000);  // 1 ms after attempt 1, 2 ms after attempt 2
  EXPECT_EQ(store.retries_absorbed(), 2u);
  EXPECT_LT(wall, std::chrono::milliseconds(500)) << "sim backoff must not wall-sleep";

  // Gets share the same hook and timeline.
  flaky->FailNext(1);
  EXPECT_EQ(*store.Get("k"), Bytes("v"));
  EXPECT_EQ(clock.now(), 4000);
}

TEST(RetryingStore, DefaultBackoffStillSleepsOnWallClock) {
  auto flaky = std::make_shared<FlakyStore>(1);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = std::chrono::microseconds(2000);
  RetryingStore store(flaky, policy);
  const auto wall_start = std::chrono::steady_clock::now();
  store.Put("k", Bytes("v"));
  EXPECT_GE(std::chrono::steady_clock::now() - wall_start, std::chrono::microseconds(2000));
}

}  // namespace
}  // namespace cnr::storage
