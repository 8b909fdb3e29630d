// SPDX-License-Identifier: MIT
//
// E14 — why the persistent source matters: BIPS with the source removed is
// a plain discrete SIS process which (like the contact process the paper
// cites) can die out; with the source pinned, infection always completes.
// We measure extinction/completion frequencies side by side.
#include <cmath>
#include <vector>

#include "exp_common.hpp"
#include "core/bips.hpp"
#include "core/sis.hpp"
#include "graph/generators.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  bench::ExperimentEnv env(argc, argv);
  Stopwatch watch;
  env.banner("E14", "persistent source vs source-free SIS",
             "\"a contact process can die out, whereas the COBRA one does "
             "not\" [intro]");

  const std::size_t runs = env.trials(200, 500, 1000).trials;
  Rng graph_rng(env.seed);
  std::vector<Graph> graphs;
  graphs.push_back(gen::connected_random_regular(
      env.scale.pick<std::size_t>(1024, 4096, 16384), 8, graph_rng));
  graphs.push_back(gen::cycle(env.scale.pick<std::size_t>(512, 2048, 8192) + 1));
  graphs.push_back(gen::torus({33, 33}));

  Table table({"graph", "SIS extinct", "SIS full", "SIS timeout",
               "BIPS full", "BIPS mean rounds"});
  for (const Graph& g : graphs) {
    std::size_t extinct = 0;
    std::size_t full = 0;
    std::size_t timeout = 0;
    SisOptions sis_options;
    sis_options.max_rounds = 4096;
    SisProcess sis(g, sis_options);
    for (std::size_t i = 0; i < runs; ++i) {
      sis.run(Rng::for_trial(env.seed + 1, i),
              static_cast<Vertex>(i % g.num_vertices()));
      extinct += (sis.outcome() == SisOutcome::kExtinct);
      full += (sis.outcome() == SisOutcome::kFullInfection);
      timeout += (sis.outcome() == SisOutcome::kTimedOut);
    }

    std::size_t bips_full = 0;
    std::vector<double> bips_rounds;
    BipsOptions bips_options;
    bips_options.record_curve = false;
    bips_options.max_rounds = 1u << 20;
    const std::size_t bips_runs = std::min<std::size_t>(runs, 100);
    for (std::size_t i = 0; i < bips_runs; ++i) {
      const auto source = static_cast<Vertex>(i % g.num_vertices());
      const auto result = BipsProcess(g, source, bips_options)
                              .run(Rng::for_trial(env.seed + 2, i), source);
      bips_full += result.completed;
      if (result.completed) {
        bips_rounds.push_back(static_cast<double>(result.rounds));
      }
    }
    char sis_extinct[32];
    std::snprintf(sis_extinct, sizeof sis_extinct, "%zu/%zu", extinct, runs);
    char sis_full[32];
    std::snprintf(sis_full, sizeof sis_full, "%zu/%zu", full, runs);
    char sis_timeout[32];
    std::snprintf(sis_timeout, sizeof sis_timeout, "%zu/%zu", timeout, runs);
    char bips_cell[32];
    std::snprintf(bips_cell, sizeof bips_cell, "%zu/%zu", bips_full, bips_runs);
    table.add_row({g.name(), sis_extinct, sis_full, sis_timeout, bips_cell,
                   bips_rounds.empty()
                       ? "-"
                       : Table::cell(summarize(bips_rounds).mean, 1)});
  }
  env.emit(table);
  std::printf(
      "\nshape check: source-free SIS shows a non-trivial extinction\n"
      "fraction (all of it early deaths), especially on sparse graphs;\n"
      "BIPS completes in every run — the persistent source converts a\n"
      "transient epidemic into a guaranteed broadcast.\n");
  env.finish(watch);
  return 0;
}
