// SPDX-License-Identifier: MIT
//
// Tests for the ablation/instrumentation modules: the non-coalescing
// branching walk, per-vertex load accounting, and the Accounting class.
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/accounting.hpp"
#include "core/load.hpp"
#include "graph/generators.hpp"
#include "protocols/branching_walk.hpp"

namespace cobra {
namespace {

TEST(BranchingWalk, PopulationDoublesWithoutCoalescing) {
  // On K_n with k = 2 and no collisions with the cap, population is
  // exactly 2^t until saturation.
  const Graph g = gen::complete(32);
  BranchingWalkOptions options;
  options.max_rounds = 6;
  BranchingWalkProcess walk(g, options);
  walk.reset(Rng(1), 0);
  std::vector<std::uint64_t> population_curve{walk.population()};
  while (!walk.done()) {
    walk.step();
    population_curve.push_back(walk.population());
  }
  ASSERT_GE(population_curve.size(), 6u);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(population_curve[t], 1ull << t) << "t=" << t;
  }
}

TEST(BranchingWalk, CoversExpander) {
  Rng graph_rng(2);
  const Graph g = gen::connected_random_regular(256, 8, graph_rng);
  Rng rng(3);
  BranchingWalkOptions options;
  options.max_rounds = 64;
  const auto result = BranchingWalkProcess(g, options).run(rng, 0);
  EXPECT_TRUE(result.completed);
  // Without coalescing, messages blow up exponentially: covering 256
  // vertices costs far more than COBRA's ~2 messages per vertex per round.
  EXPECT_GT(result.total_transmissions, 1000u);
}

TEST(BranchingWalk, MessagesGrowGeometrically) {
  const Graph g = gen::complete(64);
  Rng rng(4);
  BranchingWalkOptions options;
  options.max_rounds = 10;
  const auto result = BranchingWalkProcess(g, options).run(rng, 0);
  // Total messages = 2 + 4 + ... ~ 2^(rounds+1) - 2 until saturation.
  EXPECT_GE(result.total_transmissions, (1ull << result.rounds) - 2);
}

TEST(BranchingWalk, SaturationIsReported) {
  const Graph g = gen::cycle(16);
  Rng rng(5);
  BranchingWalkOptions options;
  options.max_rounds = 40;
  options.vertex_cap = 64;  // force saturation quickly
  BranchingWalkProcess walk(g, options);
  walk.run(rng, 0);
  EXPECT_TRUE(walk.saturated());
}

TEST(BranchingWalk, RejectsBadInputs) {
  const Graph g = gen::cycle(5);
  Rng rng(6);
  EXPECT_THROW(BranchingWalkProcess(g).run(rng, 9), std::invalid_argument);
  BranchingWalkOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW(BranchingWalkProcess(g, zero_k).run(rng, 0),
               std::invalid_argument);
}

TEST(Load, ActivationsCoverRun) {
  const Graph g = gen::complete(64);
  Rng rng(7);
  const auto report = run_cobra_with_load(g, 0, {}, rng);
  ASSERT_TRUE(report.covered);
  // The start vertex counts round 0.
  EXPECT_GE(report.activations[0], 1u);
  // Total activations = sum of frontier sizes = rounds' worth of senders.
  std::uint64_t total = 0;
  for (const auto count : report.activations) total += count;
  EXPECT_GT(total, report.rounds);  // frontier is never empty
  EXPECT_GT(report.mean_activations, 0.0);
  EXPECT_GE(report.max_activations, 1u);
}

TEST(Load, MaxLoadIsModestOnExpanders) {
  Rng graph_rng(8);
  const Graph g = gen::connected_random_regular(1024, 8, graph_rng);
  Rng rng(9);
  const auto report = run_cobra_with_load(g, 0, {}, rng);
  ASSERT_TRUE(report.covered);
  // No hot vertex: max activations stays O(rounds) and in practice far
  // below; mean is around rounds * E|C_t| / n < rounds.
  EXPECT_LE(report.max_activations, report.rounds);
  EXPECT_LT(report.mean_activations, static_cast<double>(report.rounds));
}

TEST(Load, DeterministicUnderSeed) {
  const Graph g = gen::petersen();
  Rng a(10);
  Rng b(10);
  const auto ra = run_cobra_with_load(g, 0, {}, a);
  const auto rb = run_cobra_with_load(g, 0, {}, b);
  EXPECT_EQ(ra.activations, rb.activations);
  EXPECT_EQ(ra.rounds, rb.rounds);
}

TEST(Accounting, TotalsAndPeaks) {
  Accounting acc;
  acc.begin_round();
  acc.record_vertex_send(2);
  acc.record_vertex_send(3);
  acc.begin_round();
  acc.record_vertex_send(7);
  EXPECT_EQ(acc.total(), 12u);
  EXPECT_EQ(acc.rounds(), 2u);
  EXPECT_EQ(acc.round_total(0), 5u);
  EXPECT_EQ(acc.round_total(1), 7u);
  EXPECT_EQ(acc.peak_round_total(), 7u);
  EXPECT_EQ(acc.peak_vertex_round(), 7u);
}

TEST(Accounting, RecordWithoutBeginCountsTotalsOnly) {
  // Bulk Monte Carlo mode: totals and peaks accrue without any per-round
  // tracking (begin_round is the opt-in for the breakdown).
  Accounting acc;
  acc.record_vertex_send(4);
  EXPECT_EQ(acc.rounds(), 0u);
  EXPECT_EQ(acc.total(), 4u);
  EXPECT_EQ(acc.peak_vertex_round(), 4u);
}

TEST(Accounting, EmptyAccounting) {
  const Accounting acc;
  EXPECT_EQ(acc.total(), 0u);
  EXPECT_EQ(acc.rounds(), 0u);
  EXPECT_EQ(acc.peak_round_total(), 0u);
}

}  // namespace
}  // namespace cobra
