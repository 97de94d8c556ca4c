// Fork-join upper bound (Eq. 9) tests: exactness for one branch, convexity,
// bound validity against Monte-Carlo maxima of independent branches.
#include "math/forkjoin_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace spcache {
namespace {

TEST(ForkJoin, SingleBranchIsExactMean) {
  EXPECT_DOUBLE_EQ(fork_join_upper_bound({{2.5, 100.0}}), 2.5);
}

TEST(ForkJoin, ObjectiveConvexInZ) {
  const std::vector<QueueStat> stats{{1.0, 0.5}, {2.0, 1.0}, {0.5, 0.25}};
  // Midpoint convexity sampled on a grid.
  for (double a = -5.0; a < 5.0; a += 0.7) {
    for (double b = a + 0.3; b < 6.0; b += 0.9) {
      const double mid = fork_join_objective(stats, 0.5 * (a + b));
      const double avg =
          0.5 * (fork_join_objective(stats, a) + fork_join_objective(stats, b));
      EXPECT_LE(mid, avg + 1e-9);
    }
  }
}

TEST(ForkJoin, BoundAtLeastMaxOfMeans) {
  // E[max] >= max of expectations; the bound must respect that too.
  const std::vector<QueueStat> stats{{1.0, 0.2}, {3.0, 0.2}, {2.0, 0.2}};
  EXPECT_GE(fork_join_upper_bound(stats), 3.0 - 1e-9);
}

TEST(ForkJoin, ZeroVarianceDeterministicBranches) {
  // With no variance the max is deterministic: the largest mean.
  const std::vector<QueueStat> stats{{1.0, 0.0}, {4.0, 0.0}, {2.5, 0.0}};
  EXPECT_NEAR(fork_join_upper_bound(stats), 4.0, 1e-6);
}

TEST(ForkJoin, MonotoneInVariance) {
  const double lo = fork_join_upper_bound({{1.0, 0.1}, {1.0, 0.1}});
  const double hi = fork_join_upper_bound({{1.0, 2.0}, {1.0, 2.0}});
  EXPECT_GT(hi, lo);
}

TEST(ForkJoin, MonotoneInBranchCount) {
  std::vector<QueueStat> stats;
  double prev = 0.0;
  for (int k = 1; k <= 8; ++k) {
    stats.push_back({1.0, 1.0});
    const double b = fork_join_upper_bound(stats);
    EXPECT_GE(b, prev - 1e-9);
    prev = b;
  }
}

class ForkJoinMonteCarloTest : public ::testing::TestWithParam<int> {};

TEST_P(ForkJoinMonteCarloTest, UpperBoundsEmpiricalMaxOfExponentials) {
  // k iid Exp(1) branches: E[max] = H_k. The bound must sit above the
  // Monte-Carlo estimate for every k.
  const int k = GetParam();
  std::vector<QueueStat> stats(static_cast<std::size_t>(k), QueueStat{1.0, 1.0});
  const double bound = fork_join_upper_bound(stats);

  Rng rng(1000 + static_cast<std::uint64_t>(k));
  double sum = 0.0;
  const int trials = 200000;
  for (int t = 0; t < trials; ++t) {
    double mx = 0.0;
    for (int j = 0; j < k; ++j) mx = std::max(mx, rng.exponential(1.0));
    sum += mx;
  }
  const double empirical = sum / trials;
  EXPECT_GE(bound, empirical - 0.01) << "k=" << k;
  // The split-merge bound is known to be reasonably tight for iid
  // exponential branches; sanity-check it is not wildly loose either.
  EXPECT_LE(bound, empirical * 2.0 + 0.5) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(BranchCounts, ForkJoinMonteCarloTest, ::testing::Values(1, 2, 3, 5, 10, 20));


TEST(ForkJoin, TwoBranchExponentialClosedForm) {
  // E[max(X1, X2)] for independent exponentials with means m1, m2:
  //   m1 + m2 - 1/(1/m1 + 1/m2).
  // The split-merge bound must dominate it but stay within ~40% for this
  // benign case (its known looseness at small fan-out).
  for (const auto& [m1, m2] : {std::pair{1.0, 1.0}, std::pair{1.0, 3.0}, std::pair{0.2, 2.0}}) {
    const double exact = m1 + m2 - 1.0 / (1.0 / m1 + 1.0 / m2);
    const double bound =
        fork_join_upper_bound({{m1, m1 * m1}, {m2, m2 * m2}});
    EXPECT_GE(bound, exact - 1e-9) << m1 << "," << m2;
    EXPECT_LE(bound, exact * 1.45) << m1 << "," << m2;
  }
}

TEST(ForkJoin, HeterogeneousBranches) {
  // One slow branch dominates: the bound should be near its mean when the
  // other branches are tiny.
  const std::vector<QueueStat> stats{{10.0, 0.01}, {0.1, 0.001}, {0.1, 0.001}};
  const double b = fork_join_upper_bound(stats);
  EXPECT_GE(b, 10.0 - 1e-6);
  EXPECT_LE(b, 10.5);
}

}  // namespace
}  // namespace spcache
