// SPDX-License-Identifier: MIT
//
// Tests for the spatial/scale-free generators, the pull protocol, and the
// chi-square machinery (including an audit of the RNG through it).
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/cobra.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "protocols/pull.hpp"
#include "protocols/push.hpp"
#include "stats/chi_square.hpp"

namespace cobra {
namespace {

// ---- random geometric graphs ----

TEST(RandomGeometric, EdgesRespectRadius) {
  Rng rng(1);
  const Graph g = gen::random_geometric(300, 0.12, rng);
  EXPECT_EQ(g.num_vertices(), 300u);
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(RandomGeometric, EdgeCountNearExpectation) {
  // On the unit torus each pair is adjacent w.p. pi r^2 exactly.
  Rng rng(2);
  const std::size_t n = 500;
  const double r = 0.08;
  double total = 0.0;
  const int reps = 10;
  for (int i = 0; i < reps; ++i) {
    total += static_cast<double>(gen::random_geometric(n, r, rng).num_edges());
  }
  const double expected =
      M_PI * r * r * static_cast<double>(n * (n - 1) / 2);
  EXPECT_NEAR(total / reps, expected, expected * 0.15);
}

TEST(RandomGeometric, DenseRadiusConnects) {
  Rng rng(3);
  const Graph g = gen::random_geometric(400, 0.2, rng);
  EXPECT_TRUE(is_connected(g));
}

TEST(RandomGeometric, RejectsBadRadius) {
  Rng rng(4);
  EXPECT_THROW(gen::random_geometric(10, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(gen::random_geometric(10, 0.5, rng), std::invalid_argument);
}

TEST(RandomGeometric, SymmetricAndSimple) {
  Rng rng(5);
  const Graph g = gen::random_geometric(200, 0.15, rng);
  EXPECT_EQ(degree_sum(g), 2 * g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      EXPECT_NE(w, v);
      EXPECT_TRUE(g.has_edge(w, v));
    }
  }
}

// ---- Barabasi-Albert ----

TEST(BarabasiAlbert, SizeAndEdgeCount) {
  Rng rng(6);
  const std::size_t n = 500;
  const std::size_t m = 3;
  const Graph g = gen::barabasi_albert(n, m, rng);
  EXPECT_EQ(g.num_vertices(), n);
  // Seed clique C(m+1, 2) edges + m per arrival.
  EXPECT_EQ(g.num_edges(), (m + 1) * m / 2 + (n - m - 1) * m);
}

TEST(BarabasiAlbert, ConnectedByConstruction) {
  Rng rng(7);
  EXPECT_TRUE(is_connected(gen::barabasi_albert(400, 2, rng)));
}

TEST(BarabasiAlbert, HeavyTailDegrees) {
  Rng rng(8);
  const Graph g = gen::barabasi_albert(2000, 3, rng);
  // Scale-free signature: max degree far above the mean (which is ~2m).
  const double mean_degree =
      2.0 * static_cast<double>(g.num_edges()) / 2000.0;
  EXPECT_GT(static_cast<double>(g.max_degree()), 8.0 * mean_degree);
  EXPECT_EQ(g.min_degree(), 3u);  // every arrival brings m edges
}

TEST(BarabasiAlbert, RejectsBadParameters) {
  Rng rng(9);
  EXPECT_THROW(gen::barabasi_albert(5, 0, rng), std::invalid_argument);
  EXPECT_THROW(gen::barabasi_albert(3, 3, rng), std::invalid_argument);
}

// ---- pull protocol ----

TEST(Pull, InformsCompleteGraph) {
  const Graph g = gen::complete(128);
  Rng rng(10);
  const auto result = PullProcess(g).run(rng, 0);
  EXPECT_TRUE(result.completed);
  EXPECT_LE(result.rounds, 60u);
}

TEST(Pull, MonotoneCurve) {
  const Graph g = gen::torus({5, 5});
  Rng rng(11);
  const auto result = PullProcess(g).run(rng, 0);
  ASSERT_TRUE(result.completed);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i], result.curve[i - 1]);
  }
}

TEST(Pull, ContactsShrinkAsInformedGrows) {
  // Pull's per-round contacts = uninformed count, so total transmissions
  // are strictly less than rounds * n (contrast with push-pull's n/round).
  const Graph g = gen::complete(256);
  Rng rng(12);
  const auto result = PullProcess(g).run(rng, 0);
  ASSERT_TRUE(result.completed);
  EXPECT_LT(result.total_transmissions,
            result.rounds * g.num_vertices());
}

TEST(Pull, SlowStartOnStar) {
  // Pulling through a star: leaves pull from the center (informed after
  // round 1 if center start)... starting at a LEAF, only the center can
  // pull it in round 1 with probability 1/(n-1) per... center pulls from
  // a uniform leaf, so spread is slow initially but completes.
  const Graph g = gen::star(32);
  Rng rng(13);
  PullOptions options;
  options.max_rounds = 1u << 16;
  const auto result = PullProcess(g, options).run(rng, 1);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.rounds, 1u);
}

TEST(Pull, RejectsBadInputs) {
  const Graph g = gen::cycle(5);
  Rng rng(14);
  EXPECT_THROW(PullProcess(g).run(rng, 9), std::invalid_argument);
}

// ---- chi-square ----

TEST(ChiSquare, PerfectFitGivesPValueOne) {
  const std::vector<std::uint64_t> observed{25, 25, 25, 25};
  const std::vector<double> expected{25, 25, 25, 25};
  const auto result = chi_square_test(observed, expected);
  EXPECT_NEAR(result.statistic, 0.0, 1e-12);
  EXPECT_NEAR(result.p_value, 1.0, 1e-12);
  EXPECT_EQ(result.degrees_of_freedom, 3u);
}

TEST(ChiSquare, GrossMisfitRejected) {
  const std::vector<std::uint64_t> observed{100, 0};
  const std::vector<double> expected{50, 50};
  EXPECT_LT(chi_square_test(observed, expected).p_value, 1e-10);
}

TEST(ChiSquare, TailKnownValues) {
  // Chi-square with 1 dof at x: tail = erfc(sqrt(x/2)).
  for (const double x : {0.5, 1.0, 3.84, 6.63}) {
    EXPECT_NEAR(chi_square_tail(x, 1), std::erfc(std::sqrt(x / 2.0)), 1e-10);
  }
  // 2 dof: tail = exp(-x/2).
  EXPECT_NEAR(chi_square_tail(4.0, 2), std::exp(-2.0), 1e-10);
  // Classic critical value: P(chi2_5 > 11.07) ~ 0.05.
  EXPECT_NEAR(chi_square_tail(11.07, 5), 0.05, 0.001);
}

TEST(ChiSquare, RejectsBadInput) {
  const std::vector<std::uint64_t> one{5};
  const std::vector<double> exp_one{5};
  EXPECT_THROW(chi_square_test(one, exp_one), std::invalid_argument);
  const std::vector<std::uint64_t> obs{5, 5};
  const std::vector<double> bad{5, 0};
  EXPECT_THROW(chi_square_test(obs, bad), std::invalid_argument);
}

TEST(ChiSquare, RngNeighbourPicksAreUniform) {
  // Audit the exact draw the process engines use.
  const Graph g = gen::complete(17);
  Rng rng(99);
  std::vector<std::uint64_t> counts(16, 0);
  const std::size_t draws = 160000;
  for (std::size_t i = 0; i < draws; ++i) {
    const Vertex w =
        g.neighbor(0, static_cast<std::size_t>(rng.next_below(g.degree(0))));
    ++counts[w - 1];  // neighbours of 0 are 1..16
  }
  const std::vector<double> expected(16, static_cast<double>(draws) / 16.0);
  EXPECT_GT(chi_square_test(counts, expected).p_value, 1e-5);
}

// ---- COBRA on the new families (beyond-theorem sweeps) ----

TEST(NewFamilies, CobraCoversGiantComponentOfRgg) {
  Rng rng(20);
  const Graph g = gen::random_geometric(600, 0.1, rng);
  const Graph giant = largest_component(g);
  if (giant.min_degree() == 0 || giant.num_vertices() < 100) {
    GTEST_SKIP() << "degenerate sample";
  }
  Rng process_rng(21);
  CobraOptions options;
  options.max_rounds = 1u << 18;
  const auto result = CobraProcess(giant, 0, options).run(process_rng, 0);
  EXPECT_TRUE(result.completed);
}

TEST(NewFamilies, CobraCoversScaleFreeFast) {
  Rng rng(22);
  const Graph g = gen::barabasi_albert(2000, 3, rng);
  Rng process_rng(23);
  CobraOptions options;
  options.max_rounds = 1u << 16;
  const auto result = CobraProcess(g, 0, options).run(process_rng, 0);
  EXPECT_TRUE(result.completed);
  // Hubs accelerate spreading; generous log-ish budget.
  EXPECT_LE(result.rounds, 200u);
}

}  // namespace
}  // namespace cobra
