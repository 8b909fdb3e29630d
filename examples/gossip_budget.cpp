// SPDX-License-Identifier: MIT
//
// Datacenter gossip under a transmission budget — the paper's systems
// motivation: "propagate information fast but with a limited number of
// transmissions per vertex per step". An update must reach every node of
// an overlay network; we compare COBRA against push, push-pull, and
// flooding on (a) rounds to completion, (b) total messages, and (c) the
// worst per-node-per-round message burst (the NIC budget).
//
//   ./gossip_budget [--nodes 4096] [--degree 8] [--trials 20]
#include <cstdio>
#include <iostream>

#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "sim/sweep.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  const Flags flags(argc, argv);
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 4096));
  const auto degree = static_cast<std::size_t>(flags.get_int("degree", 8));
  const auto trials_count =
      static_cast<std::size_t>(flags.get_int("trials", 20));

  Rng graph_rng(11);
  const Graph g = gen::connected_random_regular(nodes, degree, graph_rng);
  std::printf("overlay: %s\n\n", g.name().c_str());

  TrialOptions trials;
  trials.trials = trials_count;

  Table table({"protocol", "rounds (mean)", "rounds (p90)", "messages (mean)",
               "peak msgs/node/round"});
  const auto add = [&table](const char* name, const SpreadMeasurement& m,
                            std::uint64_t peak) {
    table.add_row({name, Table::cell(m.rounds.mean, 1),
                   Table::cell(m.rounds.p90, 1),
                   Table::cell(m.transmissions.mean, 0), Table::cell(peak)});
  };

  CobraOptions cobra2;
  cobra2.branching = Branching::fixed(2);
  add("COBRA k=2", measure_cobra(g, cobra2, trials), 2);

  CobraOptions cobra3;
  cobra3.branching = Branching::fixed(3);
  add("COBRA k=3", measure_cobra(g, cobra3, trials), 3);

  add("push", measure_process(g, "push", {}, trials), 1);
  add("push-pull", measure_process(g, "push-pull", {}, trials), 1);
  add("flood", measure_process(g, "flood", {}, trials),
      static_cast<std::uint64_t>(degree));

  table.print(std::cout);
  std::printf(
      "\nReading: all protocols have similar message totals to COMPLETION on\n"
      "a bounded-degree expander, so the differentiator is the budget shape:\n"
      "flood bursts deg(v) messages per node per round (NIC pressure scales\n"
      "with degree); push/push-pull require every node to keep contacting\n"
      "each round — including after the update is fully disseminated, since\n"
      "no node can locally detect completion; COBRA nodes send at most k and\n"
      "fall silent until re-activated, so the steady-state message rate\n"
      "decays instead of staying at n per round.\n");
  return 0;
}
