// SPDX-License-Identifier: MIT
//
// E16 — ablation: what does COALESCING buy? COBRA = branching random walk
// + coalescing of co-located particles. Removing coalescing keeps (or
// slightly improves) the cover rounds but the particle population — and
// hence the message bill — grows like 2^t instead of being capped at
// 2|C_t| <= 2n. This is the design choice that makes COBRA a usable
// protocol rather than a proof device.
#include <cmath>
#include <vector>

#include "exp_common.hpp"
#include "graph/generators.hpp"
#include "protocols/branching_walk.hpp"
#include "sim/sweep.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  bench::ExperimentEnv env(argc, argv);
  Stopwatch watch;
  env.banner("E16", "coalescing ablation: COBRA vs non-coalescing branching walk",
             "coalescing bounds per-round messages at k|C_t| <= kn while "
             "keeping O(log n) rounds");

  const auto trials = env.trials(20, 40, 80);
  Rng graph_rng(env.seed);
  std::vector<std::size_t> sizes{256, 1024};
  if (env.scale.level != ScaleLevel::kSmall) sizes.push_back(4096);

  Table table({"n", "COBRA rounds", "BRW rounds", "COBRA msgs", "BRW msgs",
               "msg ratio", "BRW saturated"});
  for (const std::size_t n : sizes) {
    const Graph g = gen::connected_random_regular(n, 8, graph_rng);
    const auto cobra_m = measure_cobra(g, {}, trials);

    std::vector<double> brw_rounds;
    std::vector<double> brw_msgs;
    bool any_saturated = false;
    BranchingWalkOptions options;
    options.max_rounds = 128;
    BranchingWalkProcess brw(g, options);
    for (std::size_t i = 0; i < trials.trials; ++i) {
      const SpreadResult result = brw.run(Rng::for_trial(env.seed, i),
                                          static_cast<Vertex>(i % n));
      if (!result.completed) continue;
      brw_rounds.push_back(static_cast<double>(result.rounds));
      brw_msgs.push_back(static_cast<double>(result.total_transmissions));
      any_saturated |= brw.saturated();
    }
    const auto brw_round_summary = summarize(brw_rounds);
    const auto brw_msg_summary = summarize(brw_msgs);
    table.add_row(
        {Table::cell(static_cast<std::uint64_t>(n)),
         Table::cell(cobra_m.rounds.mean, 1),
         Table::cell(brw_round_summary.mean, 1),
         Table::cell(cobra_m.transmissions.mean, 0),
         Table::cell(brw_msg_summary.mean, 0),
         Table::cell(brw_msg_summary.mean / cobra_m.transmissions.mean, 0),
         any_saturated ? "yes (msgs = lower bound)" : "no"});
  }
  env.emit(table);
  std::printf(
      "\nshape check: the branching walk covers in slightly FEWER rounds\n"
      "(its occupied set dominates COBRA's), but its population must reach\n"
      "2^rounds ~ n^(2.4*ln 2) ~ n^1.6, so total messages scale ~ n^1.6\n"
      "against COBRA's ~ n log n — the ratio column grows with n. Per-round\n"
      "peak is worse still: the walk concentrates ~2^t sends in the final\n"
      "rounds while COBRA never exceeds 2|C_t| <= 2n per round.\n");
  env.finish(watch);
  return 0;
}
