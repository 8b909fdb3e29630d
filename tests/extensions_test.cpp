// SPDX-License-Identifier: MIT
//
// Tests for the extension modules: Paley/Kneser generators with closed
// forms, multi-source BIPS and the generalized set-duality (exact),
// KS two-sample test, mixing estimates, frontier tracing, and an
// exact-duality fuzz over random small graphs.
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/bips.hpp"
#include "core/exact.hpp"
#include "core/frontier_stats.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "spectral/closed_form.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/mixing.hpp"
#include "stats/ks_test.hpp"

namespace cobra {
namespace {

// ---- Paley graphs ----

TEST(Paley, StructureQ13) {
  const Graph g = gen::paley(13);
  EXPECT_EQ(g.num_vertices(), 13u);
  EXPECT_EQ(g.regularity(), 6);  // (q-1)/2
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(is_bipartite(g));
}

TEST(Paley, SpectrumMatchesClosedForm) {
  for (const std::size_t q : {13u, 17u, 29u, 37u}) {
    const auto spectrum = spectral::dense_spectrum(gen::paley(q));
    const double lambda =
        std::max(std::fabs(spectrum[1]), std::fabs(spectrum.back()));
    EXPECT_NEAR(lambda, spectral::lambda_paley(q), 1e-9) << "q=" << q;
    // Adjacency eigenvalues (-1 +- sqrt(q))/2 scaled by degree (q-1)/2.
    const double expected_second =
        (std::sqrt(static_cast<double>(q)) - 1.0) / (static_cast<double>(q) - 1.0);
    EXPECT_NEAR(spectrum[1], expected_second, 1e-9) << "q=" << q;
  }
}

TEST(Paley, SelfComplementaryEdgeCount) {
  // Paley graphs have exactly half of all possible edges.
  const Graph g = gen::paley(17);
  EXPECT_EQ(g.num_edges(), 17u * 16u / 4u);
}

TEST(Paley, RejectsBadModulus) {
  EXPECT_THROW(gen::paley(7), std::invalid_argument);   // 3 mod 4
  EXPECT_THROW(gen::paley(15), std::invalid_argument);  // composite
  EXPECT_THROW(gen::paley(4), std::invalid_argument);
}

TEST(Paley, IsAStrongExpander) {
  // lambda = (sqrt(q)+1)/(q-1) -> 0: the gap approaches 1.
  EXPECT_GT(1.0 - spectral::lambda_paley(101), 0.88);
}

// ---- Kneser graphs ----

TEST(Kneser, PetersenIsK52) {
  const Graph g = gen::kneser(5, 2);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(g.regularity(), 3);
  const auto spectrum = spectral::dense_spectrum(g);
  EXPECT_NEAR(spectrum[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(spectrum.back(), -2.0 / 3.0, 1e-9);
}

TEST(Kneser, K72Structure) {
  const Graph g = gen::kneser(7, 2);  // C(7,2)=21 vertices, C(5,2)=10-regular
  EXPECT_EQ(g.num_vertices(), 21u);
  EXPECT_EQ(g.regularity(), 10);
  EXPECT_TRUE(is_connected(g));
}

TEST(Kneser, SpectrumMatchesClosedForm) {
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, std::size_t>>{
           {5, 2}, {6, 2}, {7, 2}, {7, 3}, {8, 3}}) {
    const auto spectrum = spectral::dense_spectrum(gen::kneser(n, k));
    const double lambda =
        std::max(std::fabs(spectrum[1]), std::fabs(spectrum.back()));
    EXPECT_NEAR(lambda, spectral::lambda_kneser(n, k), 1e-9)
        << "K(" << n << "," << k << ")";
  }
}

TEST(Kneser, PerfectMatchingCase) {
  // n = 2k: disjointness pairs each subset with its complement only.
  const Graph g = gen::kneser(6, 3);
  EXPECT_EQ(g.regularity(), 1);
  EXPECT_EQ(g.num_edges(), 10u);
}

TEST(Kneser, RejectsBadParameters) {
  EXPECT_THROW(gen::kneser(5, 3), std::invalid_argument);  // n < 2k
  EXPECT_THROW(gen::kneser(5, 0), std::invalid_argument);
}

// ---- multi-source BIPS + generalized duality ----

TEST(MultiSourceBips, SourcesStayInfected) {
  const Graph g = gen::cycle(12);
  const std::vector<Vertex> sources{0, 6};
  Rng rng(1);
  BipsProcess process(g, std::span<const Vertex>(sources));
  EXPECT_EQ(process.infected_count(), 2u);
  for (int t = 0; t < 60; ++t) {
    process.step(rng);
    EXPECT_TRUE(process.is_infected(0));
    EXPECT_TRUE(process.is_infected(6));
  }
}

TEST(MultiSourceBips, MoreSourcesInfectFaster) {
  const Graph g = gen::cycle(64);
  BipsOptions options;
  options.record_curve = false;
  options.max_rounds = 1u << 16;
  double one_total = 0;
  double four_total = 0;
  const std::vector<Vertex> quad{0, 16, 32, 48};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng r1(seed);
    Rng r4(seed + 100);
    BipsProcess p1(g, Vertex{0}, options);
    while (!p1.fully_infected()) p1.step(r1);
    one_total += static_cast<double>(p1.round());
    BipsProcess p4(g, std::span<const Vertex>(quad), options);
    while (!p4.fully_infected()) p4.step(r4);
    four_total += static_cast<double>(p4.round());
  }
  EXPECT_LT(four_total, one_total);
}

TEST(MultiSourceBips, DuplicateSourcesDeduplicated) {
  const Graph g = gen::cycle(6);
  const std::vector<Vertex> sources{2, 2, 2};
  const BipsProcess process(g, std::span<const Vertex>(sources));
  EXPECT_EQ(process.infected_count(), 1u);
}

TEST(MultiSourceBips, RejectsEmptySourceSet) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(BipsProcess(g, std::span<const Vertex>()),
               std::invalid_argument);
}

// Generalized Theorem 4: P(Hit_C(S) > t) = P(C cap A_t = 0 | A_0 = S),
// verified EXACTLY for source sets |S| >= 2.
TEST(GeneralizedDuality, SetSourcesExact) {
  struct Case {
    Graph graph;
    exact::Mask start;
    exact::Mask sources;
  };
  std::vector<Case> cases;
  cases.push_back({gen::cycle(7), 0b0000001, 0b0011000});
  cases.push_back({gen::complete(5), 0b00001, 0b11000});
  cases.push_back({gen::petersen(), 0b0000000011, 0b1100000000});
  cases.push_back({gen::path(6), 0b000001, 0b110000});
  for (const auto& c : cases) {
    for (std::size_t t = 0; t <= 4; ++t) {
      const double cobra_tail =
          exact::cobra_hitting_tail_set(c.graph, c.start, c.sources, t, 2);
      const auto dist =
          exact::bips_distribution_multi(c.graph, c.sources, t, 2);
      double disjoint = 0.0;
      for (exact::Mask mask = 0; mask < dist.size(); ++mask) {
        if ((mask & c.start) == 0) disjoint += dist[mask];
      }
      EXPECT_NEAR(cobra_tail, disjoint, 1e-10)
          << c.graph.name() << " t=" << t;
    }
  }
}

// Exact-duality FUZZ: random connected graphs on 5-9 vertices, random
// (C, v, k) — the equality must hold on every instance.
TEST(GeneralizedDuality, RandomGraphFuzz) {
  Rng rng(20260612);
  int checked = 0;
  while (checked < 25) {
    const std::size_t n = 5 + rng.next_below(5);
    Graph g = gen::erdos_renyi(n, 0.5, rng);
    if (!is_connected(g) || g.min_degree() == 0) continue;
    const auto v = static_cast<Vertex>(rng.next_below(n));
    exact::Mask start =
        static_cast<exact::Mask>(rng.next_below((1u << n) - 1) + 1);
    start &= static_cast<exact::Mask>(~(1u << v));  // keep v out of C
    if (start == 0) continue;
    const unsigned k = 1 + static_cast<unsigned>(rng.next_below(3));
    const std::size_t t = 1 + rng.next_below(4);
    const double cobra_tail = exact::cobra_hitting_tail(g, start, v, t, k);
    const auto dist = exact::bips_distribution(g, v, t, k);
    double disjoint = 0.0;
    for (exact::Mask mask = 0; mask < dist.size(); ++mask) {
      if ((mask & start) == 0) disjoint += dist[mask];
    }
    ASSERT_NEAR(cobra_tail, disjoint, 1e-10)
        << g.name() << " v=" << v << " C=" << start << " k=" << k
        << " t=" << t;
    ++checked;
  }
}

// ---- KS test ----

TEST(KsTest, IdenticalSamplesGiveZeroStatistic) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const auto result = ks_two_sample(a, a);
  EXPECT_EQ(result.statistic, 0.0);
  EXPECT_NEAR(result.p_value, 1.0, 1e-9);
}

TEST(KsTest, DisjointSamplesGiveStatisticOne) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{10, 11, 12};
  const auto result = ks_two_sample(a, b);
  EXPECT_NEAR(result.statistic, 1.0, 1e-12);
  EXPECT_LT(result.p_value, 0.1);
}

TEST(KsTest, SameDistributionPasses) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.next_double());
    b.push_back(rng.next_double());
  }
  const auto result = ks_two_sample(a, b);
  EXPECT_GT(result.p_value, 1e-4);  // would reject only on a wild fluke
}

TEST(KsTest, ShiftedDistributionRejected) {
  Rng rng(4);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.next_double());
    b.push_back(rng.next_double() + 0.3);
  }
  EXPECT_LT(ks_two_sample(a, b).p_value, 1e-6);
}

TEST(KsTest, KolmogorovTailValues) {
  EXPECT_NEAR(kolmogorov_tail(0.0), 1.0, 1e-12);
  // Q(1.358) ~ 0.05 (the classic 5% critical value).
  EXPECT_NEAR(kolmogorov_tail(1.358), 0.05, 0.002);
  EXPECT_LT(kolmogorov_tail(2.0), 0.001);
}

TEST(KsTest, RejectsEmpty) {
  const std::vector<double> a{1.0};
  EXPECT_THROW(ks_two_sample(a, {}), std::invalid_argument);
  EXPECT_THROW(ks_two_sample({}, a), std::invalid_argument);
}

TEST(KsTest, CoverTimesAreStartInvariantOnTransitiveGraph) {
  // Vertex-transitivity: cover-time distributions from two different
  // starts of a circulant must agree (KS test).
  const Graph g = gen::circulant(64, {1, 9});
  std::vector<double> from0;
  std::vector<double> from17;
  CobraOptions options;
  options.record_curves = false;
  for (std::size_t i = 0; i < 300; ++i) {
    Rng r1 = Rng::for_trial(50, i);
    Rng r2 = Rng::for_trial(60, i);
    from0.push_back(
        static_cast<double>(CobraProcess(g, 0, options).run(r1, 0).rounds));
    from17.push_back(
        static_cast<double>(CobraProcess(g, 17, options).run(r2, 17).rounds));
  }
  EXPECT_GT(ks_two_sample(from0, from17).p_value, 1e-4);
}

// ---- mixing estimates ----

TEST(Mixing, EstimatesAreConsistent) {
  const Graph g = gen::complete(64);
  const auto estimate = spectral::mixing_estimate(g);
  EXPECT_NEAR(estimate.lambda, 1.0 / 63.0, 1e-6);
  EXPECT_NEAR(estimate.relaxation_time, 1.0 / (1.0 - 1.0 / 63.0), 1e-4);
  EXPECT_GT(estimate.paper_T, estimate.relaxation_time);
}

TEST(Mixing, TvDistanceDecreases) {
  const Graph g = gen::petersen();
  const double d1 = spectral::walk_tv_distance(g, 1);
  const double d5 = spectral::walk_tv_distance(g, 5);
  const double d20 = spectral::walk_tv_distance(g, 20);
  EXPECT_GT(d1, d5);
  EXPECT_GT(d5, d20);
  EXPECT_LT(d20, 0.01);
}

TEST(Mixing, TvBoundedByLambdaPower) {
  // Reversible-chain bound: d_TV(t) <= 0.5 sqrt(n) lambda^t on regular
  // graphs (via the spectral decomposition).
  const Graph g = gen::complete(32);
  const double lambda = 1.0 / 31.0;
  for (const std::size_t t : {1u, 2u, 3u}) {
    const double bound =
        0.5 * std::sqrt(32.0) * std::pow(lambda, static_cast<double>(t));
    EXPECT_LE(spectral::walk_tv_distance(g, t), bound + 1e-9) << t;
  }
}

TEST(Mixing, RejectsBadInputs) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(spectral::mixing_estimate(g, 0.0), std::invalid_argument);
  EXPECT_THROW(spectral::mixing_estimate(g, 1.0), std::invalid_argument);
}

// ---- frontier tracing ----

TEST(FrontierTrace, RowsAreConsistent) {
  Rng graph_rng(5);
  const Graph g = gen::connected_random_regular(512, 8, graph_rng);
  Rng rng(6);
  const auto trace = trace_cobra(g, 0, {}, rng);
  ASSERT_TRUE(trace.covered);
  ASSERT_EQ(trace.per_round.size(), trace.rounds);
  std::size_t visited = 1;
  for (const auto& row : trace.per_round) {
    EXPECT_EQ(row.pushes, 2 * row.frontier_size);
    EXPECT_LE(row.next_frontier_size, row.pushes);
    EXPECT_GE(row.next_frontier_size, 1u);
    EXPECT_LE(row.new_visits, row.next_frontier_size);
    visited += row.new_visits;
    EXPECT_EQ(row.visited_total, visited);
    EXPECT_GE(row.coalescing_loss, 0.0);
    EXPECT_LE(row.coalescing_loss, 1.0);
  }
  EXPECT_EQ(visited, 512u);
}

TEST(FrontierTrace, EarlyRoundsNearlyDouble) {
  Rng graph_rng(7);
  const Graph g = gen::connected_random_regular(8192, 16, graph_rng);
  Rng rng(8);
  const auto trace = trace_cobra(g, 0, {}, rng);
  ASSERT_TRUE(trace.covered);
  // While |C_t| << n the frontier grows near-geometrically. Individual
  // rounds fluctuate (from |C_0| = 1 both pushes collide with probability
  // 1/r), so check the aggregate growth over the first 6 rounds.
  ASSERT_GT(trace.per_round.size(), 6u);
  double product = 1.0;
  for (std::size_t t = 0; t < 6; ++t) {
    product *= trace.per_round[t].effective_branching;
  }
  EXPECT_GT(std::pow(product, 1.0 / 6.0), 1.5);  // mean growth factor
  EXPECT_GE(trace.per_round[5].next_frontier_size, 16u);
}

}  // namespace
}  // namespace cobra
