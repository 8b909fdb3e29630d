// SPDX-License-Identifier: MIT
//
// BIPS process tests: persistent-source semantics, SIS-style recovery,
// Theorem-2-shaped completion, and the Lemma 1 growth bound (empirically).
#include "core/bips.hpp"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "spectral/closed_form.hpp"
#include "stats/online.hpp"

namespace cobra {
namespace {

TEST(Bips, RejectsBadConstruction) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(BipsProcess(g, 9), std::invalid_argument);
  EXPECT_THROW(BipsProcess(Graph(), 0), std::invalid_argument);
  BipsOptions zero_k;
  zero_k.branching = Branching::fixed(0);
  EXPECT_THROW(BipsProcess(g, 0, zero_k), std::invalid_argument);
}

TEST(Bips, SourceAlwaysInfected) {
  const Graph g = gen::petersen();
  Rng rng(1);
  BipsProcess process(g, 7);
  for (int t = 0; t < 100; ++t) {
    process.step(rng);
    EXPECT_TRUE(process.is_infected(7)) << "round " << t;
    EXPECT_GE(process.infected_count(), 1u);
  }
}

TEST(Bips, InitialStateIsSourceOnly) {
  const Graph g = gen::cycle(9);
  const BipsProcess process(g, 4);
  EXPECT_EQ(process.infected_count(), 1u);
  EXPECT_TRUE(process.is_infected(4));
  EXPECT_FALSE(process.is_infected(3));
  EXPECT_EQ(process.round(), 0u);
}

TEST(Bips, InfectionIsNotMonotone) {
  // SIS character: on a sparse graph the infected count must dip at least
  // once in a long run (a non-source vertex recovers by sampling healthy
  // neighbours). Statistically certain on a cycle.
  const Graph g = gen::cycle(100);
  Rng rng(2);
  BipsProcess process(g, 0);
  bool dipped = false;
  std::size_t prev = 1;
  for (int t = 0; t < 400 && !dipped; ++t) {
    const std::size_t now = process.step(rng);
    dipped = now < prev;
    prev = now;
  }
  EXPECT_TRUE(dipped);
}

TEST(Bips, InfectsCompleteGraphQuickly) {
  const Graph g = gen::complete(256);
  Rng rng(3);
  BipsOptions options;
  options.max_rounds = 500;
  const auto result = BipsProcess(g, 0, options).run(rng, 0);
  EXPECT_TRUE(result.completed);
  EXPECT_LE(result.rounds, 100u);
  EXPECT_EQ(result.final_count, 256u);
}

TEST(Bips, InfectsExpanderInLogarithmicRounds) {
  Rng graph_rng(4);
  const Graph g = gen::connected_random_regular(1024, 6, graph_rng);
  Rng rng(5);
  BipsOptions options;
  options.max_rounds = 2000;
  const auto result = BipsProcess(g, 0, options).run(rng, 0);
  EXPECT_TRUE(result.completed);
  // 10 * log2(1024) = 100 is a generous expander budget.
  EXPECT_LE(result.rounds, 100u);
}

TEST(Bips, CurveStartsAtOneEndsAtN) {
  const Graph g = gen::complete(64);
  Rng rng(6);
  BipsOptions options;
  const auto result = BipsProcess(g, 5, options).run(rng, 5);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.curve.front(), 1u);
  EXPECT_EQ(result.curve.back(), 64u);
}

TEST(Bips, MaxRoundsAborts) {
  const Graph g = gen::cycle(400);
  Rng rng(7);
  BipsOptions options;
  options.max_rounds = 3;
  const auto result = BipsProcess(g, 0, options).run(rng, 0);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 3u);
}

TEST(Bips, MembershipProbeAtTZero) {
  const Graph g = gen::cycle(8);
  Rng rng(8);
  EXPECT_TRUE(bips_membership_after(g, 3, 3, 0, {}, rng));
  EXPECT_FALSE(bips_membership_after(g, 3, 5, 0, {}, rng));
}

TEST(Bips, DeterministicUnderSeed) {
  const Graph g = gen::torus({5, 5});
  BipsOptions options;
  Rng a(99);
  Rng b(99);
  const auto ra = BipsProcess(g, 0, options).run(a, 0);
  const auto rb = BipsProcess(g, 0, options).run(b, 0);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.curve, rb.curve);
}

TEST(Bips, FractionalBranchingInfects) {
  const Graph g = gen::complete(128);
  Rng rng(10);
  BipsOptions options;
  options.branching = Branching::fractional(0.5);
  options.max_rounds = 2000;
  const auto result = BipsProcess(g, 0, options).run(rng, 0);
  EXPECT_TRUE(result.completed);
}

// Lemma 1: E(|A_{t+1}| | A_t = A) >= |A| (1 + (1 - lambda^2)(1 - |A|/n)).
// We verify the one-step expectation empirically on the complete graph,
// where lambda = 1/(n-1) and the bound is essentially 2|A|(1 - |A|/n)-ish.
TEST(Bips, Lemma1GrowthBoundHoldsOnCompleteGraph) {
  const std::size_t n = 64;
  const Graph g = gen::complete(n);
  const double lambda = spectral::lambda_complete(n);
  Rng rng(11);

  // Measure E(|A_{t+1}|) conditioned on a fixed |A_t| by restarting many
  // times from a canonical set of that size (vertex-transitivity makes the
  // particular set irrelevant).
  for (const std::size_t a : {2u, 8u, 24u, 48u}) {
    OnlineStats next_size;
    const int reps = 3000;
    for (int rep = 0; rep < reps; ++rep) {
      BipsProcess process(g, 0);
      // Force the infected set to {0, ..., a-1} by replaying: we cannot set
      // state directly, so emulate one synchronous round by hand instead.
      // Count next-round infections over the forced state.
      std::size_t count = 1;  // source
      for (Vertex u = 1; u < n; ++u) {
        bool hit = false;
        for (int i = 0; i < 2; ++i) {
          const Vertex w = g.neighbor(
              u, static_cast<std::size_t>(rng.next_below(g.degree(u))));
          if (w < a) {  // infected iff in {0..a-1}
            hit = true;
            break;
          }
        }
        count += hit;
      }
      next_size.add(static_cast<double>(count));
    }
    const double bound =
        static_cast<double>(a) *
        (1.0 + (1.0 - lambda * lambda) *
                   (1.0 - static_cast<double>(a) / static_cast<double>(n)));
    // Allow 3 standard errors of slack below the bound.
    const double stderr3 =
        3.0 * next_size.stddev() / std::sqrt(static_cast<double>(reps));
    EXPECT_GE(next_size.mean() + stderr3, bound) << "a=" << a;
  }
}

}  // namespace
}  // namespace cobra
