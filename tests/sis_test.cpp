// SPDX-License-Identifier: MIT
//
// Source-free SIS tests: extinction possibility (the property BIPS's
// persistent source removes), outcome classification, determinism.
#include "core/sis.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace cobra {
namespace {

TEST(Sis, RejectsBadInputs) {
  const Graph g = gen::cycle(5);
  Rng rng(1);
  EXPECT_THROW(SisProcess(g).run(rng, 7), std::invalid_argument);
  EXPECT_THROW(SisProcess(Graph()).run(rng, 0), std::invalid_argument);
}

TEST(Sis, CanGoExtinct) {
  // On a large cycle a single seed with k=2 dies out frequently: the seed
  // itself recovers unless it samples an infected neighbour.
  const Graph g = gen::cycle(50);
  SisOptions options;
  options.max_rounds = 5000;
  SisProcess sis(g, options);
  std::size_t extinctions = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    sis.run(Rng(seed), 0);
    extinctions += (sis.outcome() == SisOutcome::kExtinct);
  }
  EXPECT_GT(extinctions, 0u);
}

TEST(Sis, ExtinctRunsEndWithZero) {
  const Graph g = gen::cycle(30);
  SisOptions options;
  options.max_rounds = 10000;
  SisProcess sis(g, options);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto result = sis.run(Rng(seed), 0);
    if (sis.outcome() == SisOutcome::kExtinct) {
      EXPECT_EQ(result.final_count, 0u);
      EXPECT_EQ(result.curve.back(), 0u);
      return;
    }
  }
  GTEST_SKIP() << "no extinction observed in 50 runs (unexpected but legal)";
}

TEST(Sis, FullInfectionOnCompleteGraphIsCommon) {
  const Graph g = gen::complete(64);
  SisOptions options;
  options.max_rounds = 2000;
  SisProcess sis(g, options);
  std::size_t full = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sis.run(Rng(seed), 0);
    full += (sis.outcome() == SisOutcome::kFullInfection);
  }
  // On K_n the one-step growth is nearly 2x; most runs saturate.
  EXPECT_GT(full, 10u);
}

TEST(Sis, CurveTracksCounts) {
  const Graph g = gen::complete(32);
  Rng rng(7);
  SisOptions options;
  options.max_rounds = 100;
  const auto result = SisProcess(g, options).run(rng, 0);
  ASSERT_FALSE(result.curve.empty());
  EXPECT_EQ(result.curve.front(), 1u);
  EXPECT_EQ(result.curve.back(), result.final_count);
  EXPECT_EQ(result.curve.size(), result.rounds + 1);
}

TEST(Sis, DeterministicUnderSeed) {
  const Graph g = gen::petersen();
  SisOptions options;
  Rng a(42);
  Rng b(42);
  SisProcess pa(g, options);
  SisProcess pb(g, options);
  const auto ra = pa.run(a, 0);
  const auto rb = pb.run(b, 0);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.curve, rb.curve);
  EXPECT_EQ(static_cast<int>(pa.outcome()), static_cast<int>(pb.outcome()));
}

}  // namespace
}  // namespace cobra
