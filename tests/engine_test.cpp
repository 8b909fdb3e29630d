// SPDX-License-Identifier: MIT
//
// Engine regression tests for the high-throughput hot path: results must
// be a pure function of (base_seed, trial index) regardless of thread
// count, workspace reuse, or frontier representation; the 32-bit Lemire
// fast path must be uniform; geometric-skipping Bernoulli must match the
// per-trial law.
#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "rand/sampling.hpp"
#include "sim/trial_runner.hpp"
#include "stats/chi_square.hpp"

namespace cobra {
namespace {

Graph test_expander(std::size_t n) {
  Rng graph_rng(17);
  return gen::connected_random_regular(n, 8, graph_rng);
}

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> starts(g.num_vertices());
  std::iota(starts.begin(), starts.end(), Vertex{0});
  return starts;
}

// threads = 0 runs on the calling thread; otherwise on a pool that size.
std::vector<SpreadResult> cobra_trials(const Graph& g, std::size_t threads,
                                       CobraOptions options) {
  TrialOptions trials;
  trials.trials = 48;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  return run_process_trials(
      trials, [&] { return std::make_unique<CobraProcess>(g, 0, options); },
      all_vertices(g), pool.get());
}

std::vector<SpreadResult> bips_trials(const Graph& g, std::size_t threads) {
  TrialOptions trials;
  trials.trials = 48;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  return run_process_trials(
      trials,
      [&] { return std::make_unique<BipsProcess>(g, 0, BipsOptions{}); },
      all_vertices(g), pool.get());
}

TEST(EngineDeterminism, CobraIdenticalAcrossThreadCounts) {
  const Graph g = test_expander(1024);
  const auto serial = cobra_trials(g, 0, {});
  const auto one = cobra_trials(g, 1, {});
  const auto eight = cobra_trials(g, 8, {});
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
}

TEST(EngineDeterminism, BipsIdenticalAcrossThreadCounts) {
  const Graph g = test_expander(1024);
  const auto serial = bips_trials(g, 0);
  const auto one = bips_trials(g, 1);
  const auto eight = bips_trials(g, 8);
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
}

TEST(EngineDeterminism, WorkspaceReuseMatchesFreshConstruction) {
  const Graph g = test_expander(512);
  const TrialOptions trials;  // the default base seed cobra_trials uses
  const auto reused = cobra_trials(g, 0, {});
  // A fresh process per trial must match the first 32 of the 48 trials
  // that reused one workspace.
  for (std::size_t i = 0; i < 32; ++i) {
    const auto start = static_cast<Vertex>(i % g.num_vertices());
    const SpreadResult fresh = CobraProcess(g, start, CobraOptions{}).run(
        Rng::for_trial(trials.base_seed, i), start);
    EXPECT_EQ(fresh, reused[i]) << "trial " << i;
  }
}

TEST(EngineDeterminism, BipsResetMatchesFreshConstruction) {
  const Graph g = test_expander(512);
  BipsProcess process(g, 0, BipsOptions{});
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto start = static_cast<Vertex>(seed * 37 % g.num_vertices());
    const auto fresh =
        BipsProcess(g, start, BipsOptions{}).run(Rng(seed), start);
    const auto reused = process.run(Rng(seed), start);
    EXPECT_EQ(fresh, reused) << "seed " << seed;
  }
}

TEST(EngineDeterminism, CobraSparseAndDenseFrontiersAgree) {
  const Graph g = test_expander(2048);
  CobraOptions sparse;
  sparse.frontier_mode = FrontierMode::kSparse;
  CobraOptions dense;
  dense.frontier_mode = FrontierMode::kDense;
  CobraOptions hybrid;  // kAuto
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng_sparse(seed);
    Rng rng_dense(seed);
    Rng rng_auto(seed);
    CobraProcess p_sparse(g, 0, sparse);
    CobraProcess p_dense(g, 0, dense);
    CobraProcess p_auto(g, 0, hybrid);
    while (!p_sparse.covered()) {
      p_sparse.step(rng_sparse);
      p_dense.step(rng_dense);
      p_auto.step(rng_auto);
      // Same frontier content, whatever the representation.
      const auto fs = p_sparse.frontier();
      const auto fd = p_dense.frontier();
      const auto fa = p_auto.frontier();
      ASSERT_TRUE(std::equal(fs.begin(), fs.end(), fd.begin(), fd.end()));
      ASSERT_TRUE(std::equal(fs.begin(), fs.end(), fa.begin(), fa.end()));
    }
    EXPECT_TRUE(p_dense.covered());
    EXPECT_TRUE(p_auto.covered());
    EXPECT_EQ(p_sparse.round(), p_dense.round());
    // Identical visit sets and first-visit rounds.
    EXPECT_EQ(p_sparse.first_visit_rounds(), p_dense.first_visit_rounds());
    EXPECT_EQ(p_sparse.first_visit_rounds(), p_auto.first_visit_rounds());
  }
}

TEST(EngineDeterminism, CobraSparseDenseAgreeUnderFractionalBranching) {
  const Graph g = test_expander(1024);
  CobraOptions sparse;
  sparse.branching = Branching::fractional(0.35);
  sparse.frontier_mode = FrontierMode::kSparse;
  CobraOptions dense = sparse;
  dense.frontier_mode = FrontierMode::kDense;
  const auto rs = CobraProcess(g, 3, sparse).run(Rng(5), 3);
  const auto rd = CobraProcess(g, 3, dense).run(Rng(5), 3);
  EXPECT_EQ(rs, rd);
}

TEST(CobraFrontier, ListIsAscendingInBothRepresentations) {
  const Graph g = test_expander(1024);
  for (const FrontierMode mode :
       {FrontierMode::kAuto, FrontierMode::kSparse, FrontierMode::kDense}) {
    CobraOptions options;
    options.frontier_mode = mode;
    Rng rng(7);
    CobraProcess process(g, 0, options);
    for (int t = 0; t < 12; ++t) {
      process.step(rng);
      const auto frontier = process.frontier();
      EXPECT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
      EXPECT_EQ(frontier.size(), process.frontier_size());
      const std::set<Vertex> unique(frontier.begin(), frontier.end());
      EXPECT_EQ(unique.size(), frontier.size());
    }
  }
}

TEST(CobraReset, ReplaysIdenticallyAndRewindsState) {
  const Graph g = test_expander(512);
  CobraOptions options;
  CobraProcess process(g, 0, options);
  const auto first = process.run(Rng(3), 11);
  EXPECT_TRUE(process.covered());
  process.reset(Vertex{11});
  EXPECT_EQ(process.round(), 0u);
  EXPECT_EQ(process.visited_count(), 1u);
  EXPECT_FALSE(process.covered());
  EXPECT_TRUE(process.has_visited(11));
  const auto second = process.run(Rng(3), 11);
  EXPECT_EQ(first, second);
}

TEST(BipsAccounting, CountsActualProbes) {
  const Graph g = gen::complete(64);
  Rng rng(2);
  BipsProcess process(g, 0, BipsOptions{});
  process.step(rng);
  // Round 1: every non-source vertex has exactly one infected neighbour
  // (the source), so all 63 are sampled, drawing 1 or 2 probes each.
  EXPECT_GE(process.total_probes(), 63u);
  EXPECT_LE(process.total_probes(), 126u);
  EXPECT_LE(process.peak_vertex_round_probes(), 2u);
  EXPECT_GE(process.peak_vertex_round_probes(), 1u);
  process.reset(Vertex{0});
  EXPECT_EQ(process.total_probes(), 0u);
  EXPECT_EQ(process.peak_vertex_round_probes(), 0u);
}

TEST(BipsAccounting, FullInfectionReportsDrawnProbes) {
  const Graph g = gen::complete(128);
  const auto result = BipsProcess(g, 0, BipsOptions{}).run(Rng(4), 0);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.total_transmissions, 0u);
  // k = 2 fixed branching: no vertex can draw more than 2 in a round, and
  // the total cannot exceed the nominal 2(n-1) per round.
  EXPECT_LE(result.peak_vertex_round_transmissions, 2u);
  EXPECT_LE(result.total_transmissions,
            2u * (g.num_vertices() - 1) * result.rounds);
}

TEST(BipsMultiSource, ReportsFullSourceSet) {
  const Graph g = gen::cycle(12);
  const std::vector<Vertex> sources{9, 3, 3, 6};
  BipsProcess process(g, std::span<const Vertex>(sources));
  const auto reported = process.sources();
  ASSERT_EQ(reported.size(), 3u);
  EXPECT_EQ(reported[0], 3u);
  EXPECT_EQ(reported[1], 6u);
  EXPECT_EQ(reported[2], 9u);
  EXPECT_EQ(process.source(), 3u);  // lowest-indexed source
  EXPECT_TRUE(process.is_source(3));
  EXPECT_TRUE(process.is_source(6));
  EXPECT_TRUE(process.is_source(9));
  EXPECT_FALSE(process.is_source(0));
  process.reset(Vertex{5});
  EXPECT_EQ(process.sources().size(), 1u);
  EXPECT_EQ(process.source(), 5u);
  EXPECT_FALSE(process.is_source(3));
}

TEST(BipsActiveList, ShrinksNearSaturation) {
  // Late rounds must not pay O(n): once the graph is fully infected the
  // active list is empty (every vertex has a forced outcome).
  const Graph g = test_expander(1024);
  Rng rng(6);
  BipsProcess process(g, 0, BipsOptions{});
  std::size_t rounds = 0;
  while (!process.fully_infected() && rounds < 4096) {
    process.step(rng);
    ++rounds;
  }
  ASSERT_TRUE(process.fully_infected());
  process.step(rng);
  EXPECT_EQ(process.active_size(), 0u);
  EXPECT_TRUE(process.fully_infected());
}

TEST(RngFastPath, NextBelow32StaysInRange) {
  Rng rng(123);
  for (const std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, (1u << 31) + 7u}) {
    for (int i = 0; i < 500; ++i) {
      EXPECT_LT(rng.next_below32(bound), bound);
    }
  }
}

TEST(RngFastPath, NextBelow32IsUniformChiSquare) {
  // Non-power-of-two bound so the Lemire rejection path matters.
  constexpr std::uint32_t kBound = 773;
  constexpr int kDrawsPerBin = 200;
  constexpr std::uint64_t kDraws = kBound * kDrawsPerBin;
  Rng rng(20260729);
  std::vector<std::uint64_t> observed(kBound, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    ++observed[rng.next_below32(kBound)];
  }
  const std::vector<double> expected(kBound, double(kDrawsPerBin));
  const auto result = chi_square_test(observed, expected);
  EXPECT_EQ(result.degrees_of_freedom, kBound - 1);
  EXPECT_GT(result.p_value, 1e-3);
  EXPECT_LT(result.p_value, 1.0 - 1e-6);
}

TEST(BernoulliSkip, MatchesBernoulliLaw) {
  for (const double p : {0.05, 0.3, 0.7}) {
    Rng rng(static_cast<std::uint64_t>(p * 1000));
    BernoulliSkipper skipper(p);
    constexpr int kTrials = 200000;
    int hits = 0;
    for (int i = 0; i < kTrials; ++i) hits += skipper.next(rng);
    EXPECT_NEAR(static_cast<double>(hits) / kTrials, p, 0.01) << "p=" << p;
  }
}

TEST(BernoulliSkip, SaturatesAtEndpoints) {
  Rng rng(9);
  BernoulliSkipper never(0.0);
  BernoulliSkipper always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.next(rng));
    EXPECT_TRUE(always.next(rng));
  }
  // Endpoint skippers consume no randomness at all.
  Rng untouched(9);
  EXPECT_EQ(rng.state(), untouched.state());
}

}  // namespace
}  // namespace cobra
