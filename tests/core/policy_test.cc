#include "core/policy.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cnr::core {
namespace {

// Hand-built dirty sets over a single 100-row "table/shard".
DirtySets MakeDirty(std::initializer_list<std::size_t> rows) {
  DirtySets sets(1);
  sets[0].emplace_back(100);
  for (const auto r : rows) sets[0][0].Set(r);
  return sets;
}

DirtySets MakeDirtyRange(std::size_t begin, std::size_t end) {
  DirtySets sets(1);
  sets[0].emplace_back(100);
  for (std::size_t r = begin; r < end; ++r) sets[0][0].Set(r);
  return sets;
}

TEST(PolicyNames, AllNamed) {
  EXPECT_EQ(PolicyName(PolicyKind::kAlwaysFull), "always-full");
  EXPECT_EQ(PolicyName(PolicyKind::kOneShot), "one-shot");
  EXPECT_EQ(PolicyName(PolicyKind::kConsecutive), "consecutive");
  EXPECT_EQ(PolicyName(PolicyKind::kIntermittent), "intermittent");
}

TEST(Policy, FirstCheckpointAlwaysFull) {
  for (const auto kind : {PolicyKind::kAlwaysFull, PolicyKind::kOneShot,
                          PolicyKind::kConsecutive, PolicyKind::kIntermittent}) {
    IncrementalPolicy policy(kind, 100);
    const auto plan = policy.Plan(1, MakeDirty({1, 2}));
    EXPECT_EQ(plan.kind, storage::CheckpointKind::kFull) << PolicyName(kind);
    EXPECT_EQ(plan.parent_id, 0u);
  }
}

TEST(Policy, AlwaysFullStaysFull) {
  IncrementalPolicy policy(PolicyKind::kAlwaysFull, 100);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(policy.Plan(id, MakeDirty({id})).kind, storage::CheckpointKind::kFull);
  }
}

TEST(Policy, IdsMustIncrease) {
  IncrementalPolicy policy(PolicyKind::kOneShot, 100);
  (void)policy.Plan(1, MakeDirty({}));
  (void)policy.Plan(2, MakeDirty({}));
  EXPECT_THROW(policy.Plan(2, MakeDirty({})), std::invalid_argument);
}

// A malformed dirty set throws before the policy changes any state: the
// next well-formed plan equals that of a policy that never saw the bad call.
TEST(Policy, MalformedDirtySetThrowsAndChangesNothing) {
  for (const auto kind : {PolicyKind::kOneShot, PolicyKind::kIntermittent}) {
    IncrementalPolicy policy(kind, 100);
    IncrementalPolicy reference(kind, 100);
    for (IncrementalPolicy* p : {&policy, &reference}) {
      (void)p->Plan(1, MakeDirty({}));
      (void)p->Plan(2, MakeDirty({5}));
    }

    EXPECT_THROW(policy.Plan(3, DirtySets{}), std::invalid_argument) << PolicyName(kind);
    DirtySets wrong_size(1);
    wrong_size[0].emplace_back(99);
    EXPECT_THROW(policy.Plan(3, std::move(wrong_size)), std::invalid_argument)
        << PolicyName(kind);
    DirtySets wrong_split(2);  // 100 rows, but over two tables
    wrong_split[0].emplace_back(50);
    wrong_split[1].emplace_back(50);
    EXPECT_THROW(policy.Plan(3, std::move(wrong_split)), std::invalid_argument)
        << PolicyName(kind);

    const auto plan = policy.Plan(3, MakeDirty({7}));
    const auto expected = reference.Plan(3, MakeDirty({7}));
    EXPECT_EQ(plan.kind, expected.kind) << PolicyName(kind);
    EXPECT_EQ(plan.parent_id, expected.parent_id) << PolicyName(kind);
    EXPECT_EQ(plan.rows, expected.rows) << PolicyName(kind);
    EXPECT_EQ(policy.history(), reference.history()) << PolicyName(kind);
  }
}

TEST(Policy, ZeroRowsThrows) {
  EXPECT_THROW(IncrementalPolicy(PolicyKind::kOneShot, 0), std::invalid_argument);
}

TEST(Policy, OneShotAccumulatesSinceBaseline) {
  IncrementalPolicy policy(PolicyKind::kOneShot, 100);
  (void)policy.Plan(1, MakeDirty({}));  // baseline

  const auto p2 = policy.Plan(2, MakeDirty({1, 2}));
  EXPECT_EQ(p2.kind, storage::CheckpointKind::kIncremental);
  EXPECT_EQ(p2.parent_id, 1u);
  EXPECT_EQ(CountDirtyRows(p2.rows), 2u);

  const auto p3 = policy.Plan(3, MakeDirty({3}));
  EXPECT_EQ(p3.parent_id, 1u);  // still the baseline
  EXPECT_EQ(CountDirtyRows(p3.rows), 3u);  // union {1,2,3}
  EXPECT_TRUE(p3.rows[0][0].Test(1));
  EXPECT_TRUE(p3.rows[0][0].Test(3));

  // Overlapping dirty rows don't double count.
  const auto p4 = policy.Plan(4, MakeDirty({1, 3, 4}));
  EXPECT_EQ(CountDirtyRows(p4.rows), 4u);
}

TEST(Policy, ConsecutiveStoresOnlyLastInterval) {
  IncrementalPolicy policy(PolicyKind::kConsecutive, 100);
  (void)policy.Plan(1, MakeDirty({}));

  const auto p2 = policy.Plan(2, MakeDirty({1, 2}));
  EXPECT_EQ(p2.parent_id, 1u);
  EXPECT_EQ(CountDirtyRows(p2.rows), 2u);

  const auto p3 = policy.Plan(3, MakeDirty({3}));
  EXPECT_EQ(p3.parent_id, 2u);  // chains to the previous checkpoint
  EXPECT_EQ(CountDirtyRows(p3.rows), 1u);
  EXPECT_FALSE(p3.rows[0][0].Test(1));
}

// A sharded job numbers all shards' sub-checkpoints from one counter, so a
// shard's policy sees ids with gaps; its chain must still link its own ids.
TEST(Policy, ConsecutiveChainsToItsOwnLastIdAcrossGaps) {
  IncrementalPolicy policy(PolicyKind::kConsecutive, 100);
  (void)policy.Plan(3, MakeDirty({}));
  EXPECT_EQ(policy.Plan(7, MakeDirty({1})).parent_id, 3u);
  EXPECT_EQ(policy.Plan(11, MakeDirty({2})).parent_id, 7u);
}

TEST(Policy, RebaselinePredictorRule) {
  // Fc = 1 + sum(S), Ic = (i+1) * S_i.
  // history {0.25}: Fc = 1.25, Ic = 2*0.25 = 0.5 -> no rebaseline.
  EXPECT_FALSE(IncrementalPolicy::ShouldRebaseline({0.25}));
  // history {0.25, 0.4, 0.5}: Fc = 2.15, Ic = 4*0.5 = 2.0 -> keep incremental.
  EXPECT_FALSE(IncrementalPolicy::ShouldRebaseline({0.25, 0.4, 0.5}));
  // history {0.25, 0.4, 0.5, 0.55}: Fc = 2.7, Ic = 5*0.55 = 2.75 -> rebaseline.
  EXPECT_TRUE(IncrementalPolicy::ShouldRebaseline({0.25, 0.4, 0.5, 0.55}));
  EXPECT_FALSE(IncrementalPolicy::ShouldRebaseline({}));
}

TEST(Policy, IntermittentRebaselinesWhenIncrementalsGrow) {
  IncrementalPolicy policy(PolicyKind::kIntermittent, 100);
  (void)policy.Plan(1, MakeDirtyRange(0, 0));  // baseline

  // Feed growing dirty sets (one-shot union grows 25, 35, 45, 52, 58...):
  std::uint64_t id = 2;
  bool rebaselined = false;
  std::size_t hi = 25;
  for (int i = 0; i < 12 && !rebaselined; ++i) {
    const auto plan = policy.Plan(id++, MakeDirtyRange(0, hi));
    hi = std::min<std::size_t>(hi + 8, 100);
    if (plan.kind == storage::CheckpointKind::kFull) rebaselined = true;
  }
  EXPECT_TRUE(rebaselined);

  // After the new baseline, incrementals start small again.
  const auto next = policy.Plan(id++, MakeDirty({1, 2, 3}));
  EXPECT_EQ(next.kind, storage::CheckpointKind::kIncremental);
  EXPECT_EQ(CountDirtyRows(next.rows), 3u);
}

TEST(Policy, IntermittentHistoryResetsOnRebaseline) {
  IncrementalPolicy policy(PolicyKind::kIntermittent, 100);
  (void)policy.Plan(1, MakeDirtyRange(0, 0));
  std::uint64_t id = 2;
  std::size_t hi = 40;
  while (true) {
    const auto plan = policy.Plan(id++, MakeDirtyRange(0, hi));
    hi = std::min<std::size_t>(hi + 15, 100);
    if (plan.kind == storage::CheckpointKind::kFull) break;
    ASSERT_LT(id, 50u) << "predictor never rebaselined";
  }
  EXPECT_TRUE(policy.history().empty());
}

TEST(Policy, OneShotNeverRebaselines) {
  IncrementalPolicy policy(PolicyKind::kOneShot, 100);
  (void)policy.Plan(1, MakeDirtyRange(0, 0));
  for (std::uint64_t id = 2; id < 20; ++id) {
    const auto plan = policy.Plan(id, MakeDirtyRange(0, 90));
    EXPECT_EQ(plan.kind, storage::CheckpointKind::kIncremental);
    EXPECT_EQ(plan.parent_id, 1u);
  }
}

TEST(Policy, EwmaPredictorRule) {
  // Flat history: forecast == last size, same decision as the paper's rule.
  EXPECT_EQ(IncrementalPolicy::ShouldRebaselineEwma({0.3, 0.3, 0.3}, 0.5),
            IncrementalPolicy::ShouldRebaseline({0.3, 0.3, 0.3}));
  // Convex growth: the EWMA forecast exceeds the last size, so the EWMA
  // variant re-baselines no later than the paper's rule.
  const std::vector<double> growing = {0.20, 0.30, 0.42, 0.56};
  if (IncrementalPolicy::ShouldRebaseline(growing)) {
    EXPECT_TRUE(IncrementalPolicy::ShouldRebaselineEwma(growing, 0.5));
  }
  EXPECT_FALSE(IncrementalPolicy::ShouldRebaselineEwma({}, 0.5));
}

TEST(Policy, EwmaOptionValidated) {
  PolicyOptions bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(IncrementalPolicy(PolicyKind::kIntermittent, 100, bad), std::invalid_argument);
  bad.ewma_alpha = 1.5;
  EXPECT_THROW(IncrementalPolicy(PolicyKind::kIntermittent, 100, bad), std::invalid_argument);
}

TEST(Policy, EwmaIntermittentRebaselinesEarlierOnConvexGrowth) {
  PolicyOptions ewma;
  ewma.ewma_predictor = true;
  ewma.ewma_alpha = 0.7;
  IncrementalPolicy paper(PolicyKind::kIntermittent, 100);
  IncrementalPolicy smoothed(PolicyKind::kIntermittent, 100, ewma);

  // Convex (accelerating) growth of the incremental view.
  auto feed = [](IncrementalPolicy& p) {
    (void)p.Plan(1, MakeDirtyRange(0, 0));
    std::size_t hi = 10;
    std::size_t growth = 6;
    for (std::uint64_t id = 2; id < 30; ++id) {
      const auto plan = p.Plan(id, MakeDirtyRange(0, std::min<std::size_t>(hi, 100)));
      if (plan.kind == storage::CheckpointKind::kFull) return id;
      hi += growth;
      growth += 3;
    }
    return std::uint64_t{0};
  };
  const auto paper_at = feed(paper);
  const auto ewma_at = feed(smoothed);
  ASSERT_NE(paper_at, 0u);
  ASSERT_NE(ewma_at, 0u);
  EXPECT_LE(ewma_at, paper_at);
}

TEST(Policy, HistoryTracksFractions) {
  IncrementalPolicy policy(PolicyKind::kOneShot, 100);
  (void)policy.Plan(1, MakeDirty({}));
  (void)policy.Plan(2, MakeDirtyRange(0, 25));
  (void)policy.Plan(3, MakeDirtyRange(0, 40));
  ASSERT_EQ(policy.history().size(), 2u);
  EXPECT_DOUBLE_EQ(policy.history()[0], 0.25);
  EXPECT_DOUBLE_EQ(policy.history()[1], 0.40);
}

}  // namespace
}  // namespace cnr::core
