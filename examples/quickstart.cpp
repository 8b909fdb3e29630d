// SPDX-License-Identifier: MIT
//
// Quickstart: build an expander, measure its spectral gap, run one COBRA
// cover and one BIPS infection, and print the round-by-round curves.
//
//   ./quickstart [--n 4096] [--r 8] [--k 2] [--seed 1]
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "spectral/gap.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  const Flags flags(argc, argv);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 4096));
  const auto r = static_cast<std::size_t>(flags.get_int("r", 8));
  const auto k = static_cast<unsigned>(flags.get_int("k", 2));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  // 1. Build a random r-regular graph — with high probability a
  //    near-Ramanujan expander.
  Rng graph_rng(seed);
  const Graph g = gen::connected_random_regular(n, r, graph_rng);
  std::printf("graph      : %s\n", g.name().c_str());
  std::printf("vertices   : %zu, edges: %zu, regular: r=%d\n",
              g.num_vertices(), g.num_edges(), g.regularity());
  std::printf("connected  : %s\n", is_connected(g) ? "yes" : "no");

  // 2. Measure the paper's lambda and the spectral gap 1 - lambda.
  const auto spectrum = spectral::spectral_report(g);
  std::printf("lambda     : %.6f  (method: %s)\n", spectrum.lambda,
              spectrum.method.c_str());
  std::printf("gap 1-l    : %.6f\n", spectrum.gap);

  // 3. Run a COBRA cover from vertex 0 and print the frontier curve.
  CobraOptions cobra_options;
  cobra_options.branching = Branching::fixed(k);
  const auto cover = CobraProcess(g, 0, cobra_options).run(Rng(seed + 1), 0);
  std::printf("\nCOBRA (k=%u) cover time: %zu rounds (%s)\n", k, cover.rounds,
              cover.completed ? "covered" : "ABORTED");
  std::printf("total transmissions: %llu (%.2f per vertex)\n",
              static_cast<unsigned long long>(cover.total_transmissions),
              static_cast<double>(cover.total_transmissions) /
                  static_cast<double>(n));
  std::printf("round: visited (of %zu)\n", n);
  for (std::size_t t = 0; t < cover.curve.size(); ++t) {
    if (t % 5 == 0 || t + 1 == cover.curve.size()) {
      std::printf("  %4zu: %zu\n", t, cover.curve[t]);
    }
  }

  // 4. Run the dual BIPS infection from the same vertex.
  BipsOptions bips_options;
  bips_options.branching = Branching::fixed(k);
  const auto infection =
      BipsProcess(g, 0, bips_options).run(Rng(seed + 2), 0);
  std::printf("\nBIPS (k=%u) infection time: %zu rounds (%s)\n", k,
              infection.rounds,
              infection.completed ? "fully infected" : "ABORTED");
  std::printf(
      "theory: both are O(log n / (1-lambda)^3); log2(n) = %.1f rounds is "
      "the hard lower bound for COBRA\n",
      std::log2(static_cast<double>(n)));
  return 0;
}
