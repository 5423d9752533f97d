#include "util/sim_clock.h"

#include <gtest/gtest.h>

namespace cnr::util {
namespace {

TEST(SimClock, StartsAtZero) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
}

TEST(SimClock, AdvanceAccumulates) {
  SimClock clock;
  clock.Advance(5 * kSecond);
  clock.Advance(30 * kMinute);
  EXPECT_EQ(clock.now(), 5 * kSecond + 30 * kMinute);
}

TEST(SimClock, AdvanceToMonotonic) {
  SimClock clock;
  clock.AdvanceTo(kHour);
  EXPECT_EQ(clock.now(), kHour);
  EXPECT_THROW(clock.AdvanceTo(kMinute), std::invalid_argument);
  EXPECT_THROW(clock.Advance(-1), std::invalid_argument);
}

TEST(SimClock, Reset) {
  SimClock clock;
  clock.Advance(kHour);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(SimClock, UnitRelations) {
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(SimClock, SubscribersWakeOnEveryAdvance) {
  SimClock clock;
  int wakes = 0;
  const auto id = clock.Subscribe([&] { ++wakes; });
  clock.Advance(kMinute);
  clock.AdvanceTo(2 * kMinute);
  clock.Reset();
  EXPECT_EQ(wakes, 3);

  clock.Unsubscribe(id);
  clock.Advance(kSecond);
  EXPECT_EQ(wakes, 3) << "an unsubscribed callback must not fire";

  // Two subscribers both fire; unsubscribing one leaves the other.
  int a = 0, b = 0;
  const auto ida = clock.Subscribe([&] { ++a; });
  const auto idb = clock.Subscribe([&] { ++b; });
  clock.Advance(kSecond);
  clock.Unsubscribe(ida);
  clock.Advance(kSecond);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  clock.Unsubscribe(idb);
}

}  // namespace
}  // namespace cnr::util
