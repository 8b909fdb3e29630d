// SPDX-License-Identifier: MIT
//
// Exact random-walk hitting times, the dense solver behind them, Matthews'
// cover bounds, the exact COBRA cover DP, and cross-checks against the
// Monte Carlo pipeline.
#include "spectral/hitting.hpp"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/cobra.hpp"
#include "core/exact.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "protocols/random_walk.hpp"
#include "stats/online.hpp"

namespace cobra {
namespace {

using spectral::expected_hitting_times;
using spectral::matthews_cover_bounds;
using spectral::max_hitting_time;
using spectral::solve_dense;

TEST(SolveDense, TwoByTwo) {
  // [2 1; 1 3] x = [5; 10]  => x = (1, 3).
  const auto x = solve_dense({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveDense, RequiresPivoting) {
  // Leading zero forces a row swap: [0 1; 1 0] x = [2; 3].
  const auto x = solve_dense({0, 1, 1, 0}, {2, 3}, 2);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveDense, SingularThrows) {
  EXPECT_THROW(solve_dense({1, 2, 2, 4}, {1, 2}, 2), std::invalid_argument);
}

TEST(SolveDense, SizeMismatchThrows) {
  EXPECT_THROW(solve_dense({1.0}, {1, 2}, 2), std::invalid_argument);
}

TEST(HittingTimes, CompleteGraphIsNMinusOne) {
  // On K_n, hitting any fixed vertex is Geometric(1/(n-1)): mean n-1.
  const Graph g = gen::complete(9);
  const auto h = expected_hitting_times(g, 0);
  for (Vertex u = 1; u < 9; ++u) EXPECT_NEAR(h[u], 8.0, 1e-9) << u;
  EXPECT_EQ(h[0], 0.0);
}

TEST(HittingTimes, CycleQuadraticFormula) {
  // On C_n, H(u, v) = d (n - d) with d the cyclic distance.
  const std::size_t n = 11;
  const Graph g = gen::cycle(n);
  const auto h = expected_hitting_times(g, 0);
  for (Vertex u = 1; u < n; ++u) {
    const double d = std::min<std::size_t>(u, n - u);
    EXPECT_NEAR(h[u], d * (static_cast<double>(n) - d), 1e-8) << u;
  }
}

TEST(HittingTimes, PathEndpointFormula) {
  // On P_n (vertices 0..n-1), H(u, 0) = u^2 + ... exact: H(k,0) on a path
  // equals k^2 + k(n-1-k)*0 ... classical: H(k, 0) = k^2 + 2k(n-1-k)?
  // Use the clean special case: H(n-1, 0) = (n-1)^2.
  const std::size_t n = 8;
  const Graph g = gen::path(n);
  const auto h = expected_hitting_times(g, 0);
  EXPECT_NEAR(h[n - 1], static_cast<double>((n - 1) * (n - 1)), 1e-8);
}

TEST(HittingTimes, MatchesSimulatedWalk) {
  const Graph g = gen::petersen();
  const Vertex target = 7;
  const auto h = expected_hitting_times(g, target);
  OnlineStats simulated;
  RandomWalkOptions options;
  for (std::size_t i = 0; i < 20000; ++i) {
    Rng rng = Rng::for_trial(0x417, i);
    const auto steps = walk_hitting_time(g, 0, target, options, rng);
    ASSERT_TRUE(steps.has_value());
    simulated.add(static_cast<double>(*steps));
  }
  const double stderr5 =
      5.0 * simulated.stddev() / std::sqrt(static_cast<double>(simulated.count()));
  EXPECT_NEAR(simulated.mean(), h[0], stderr5);
}

TEST(HittingTimes, RejectsBadInputs) {
  EXPECT_THROW(expected_hitting_times(gen::cycle(5), 9), std::invalid_argument);
  // Disconnected graph.
  Graph disc = [] {
    GraphBuilder b(4);
    b.add_edge(0, 1);
    b.add_edge(2, 3);
    return b.build("disc");
  }();
  EXPECT_THROW(expected_hitting_times(disc, 0), std::invalid_argument);
}

TEST(Matthews, BracketsSimulatedCoverTime) {
  const Graph g = gen::cycle(16);
  const auto bounds = matthews_cover_bounds(g);
  EXPECT_LT(bounds.lower, bounds.upper);
  OnlineStats cover;
  WalkProcess walk(g);
  for (std::size_t i = 0; i < 300; ++i) {
    const auto result = walk.run(Rng::for_trial(0xC0E, i), 0);
    ASSERT_TRUE(result.completed);
    cover.add(static_cast<double>(result.rounds));
  }
  EXPECT_GE(cover.mean(), bounds.lower * 0.9);
  EXPECT_LE(cover.mean(), bounds.upper * 1.1);
}

TEST(Matthews, KnownCompleteGraphCover) {
  // Coupon collector: cover of K_n is (n-1) H_{n-1}; Matthews' upper bound
  // equals it exactly (all hitting times are n-1).
  const std::size_t n = 12;
  const auto bounds = matthews_cover_bounds(gen::complete(n));
  double harmonic = 0.0;
  for (std::size_t i = 1; i < n; ++i) harmonic += 1.0 / static_cast<double>(i);
  EXPECT_NEAR(bounds.upper, (n - 1) * harmonic, 1e-6);
  EXPECT_NEAR(bounds.lower, (n - 1) * harmonic, 1e-6);
}

TEST(MaxHitting, WorstStartOnLollipopIsFar) {
  const Graph g = gen::lollipop(8, 8);
  // Hitting the path tip (last vertex) from inside the clique is the
  // classic Theta(n^3)-flavoured worst case; just check dominance.
  const double tip = max_hitting_time(g, static_cast<Vertex>(15));
  const double clique = max_hitting_time(g, 0);
  EXPECT_GT(tip, clique);
}

// ---- exact COBRA cover DP ----

TEST(ExactCover, SingleAndTwoVertexGraphs) {
  EXPECT_NEAR(exact::cobra_expected_cover_time(gen::complete(2), 0, 2), 1.0,
              1e-10);
  EXPECT_NEAR(exact::cobra_expected_cover_time(gen::complete(2), 0, 1), 1.0,
              1e-10);
}

TEST(ExactCover, TriangleHandComputed) {
  // From {0} on K_3 with k = 2: round 1 reaches both others w.p. 1/2
  // (cover in 1), or one of them w.p. 1/2. From a 1-vertex frontier with
  // one unvisited vertex left, each round finishes w.p. 3/4 (the frontier
  // vertex picks the missing vertex at least once; picking the already-
  // visited one keeps a singleton frontier either way).
  // E = 1 + (1/2) * E[Geometric(3/4)] = 1 + (1/2)(4/3) = 5/3.
  const double expected =
      exact::cobra_expected_cover_time(gen::complete(3), 0, 2);
  EXPECT_NEAR(expected, 5.0 / 3.0, 1e-10);
}

TEST(ExactCover, K1IsWalkCover) {
  // k = 1 COBRA is the simple random walk; on C_4 the walk cover time
  // from any vertex is known: E = 6 for n = 4 (cover time of cycle
  // n(n-1)/2 = 6).
  EXPECT_NEAR(exact::cobra_expected_cover_time(gen::cycle(4), 0, 1), 6.0,
              1e-9);
}

TEST(ExactCover, MatchesMonteCarlo) {
  for (const auto& g : {gen::cycle(6), gen::complete(5), gen::star(5)}) {
    const double exact_mean = exact::cobra_expected_cover_time(g, 0, 2);
    OnlineStats mc;
    CobraOptions options;
    options.record_curves = false;
    for (std::size_t i = 0; i < 40000; ++i) {
      Rng rng = Rng::for_trial(0xC0FE, i);
      const auto result = CobraProcess(g, 0, options).run(rng, 0);
      mc.add(static_cast<double>(result.rounds));
    }
    const double stderr5 =
        5.0 * mc.stddev() / std::sqrt(static_cast<double>(mc.count()));
    EXPECT_NEAR(mc.mean(), exact_mean, stderr5) << g.name();
  }
}

TEST(ExactCover, MoreBranchingCoversFasterInExpectation) {
  const Graph g = gen::petersen();
  const double k1 = exact::cobra_expected_cover_time(g, 0, 1);
  const double k2 = exact::cobra_expected_cover_time(g, 0, 2);
  const double k3 = exact::cobra_expected_cover_time(g, 0, 3);
  EXPECT_GT(k1, k2);
  EXPECT_GT(k2, k3);
}

TEST(ExactCover, RejectsOversize) {
  EXPECT_THROW(exact::cobra_expected_cover_time(gen::cycle(12), 0, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace cobra
