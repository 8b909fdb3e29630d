// SPDX-License-Identifier: MIT
//
// BVDV herd scenario — the paper's epidemic motivation (its reference [9],
// Innocent et al. 1997): Bovine Viral Diarrhea Virus produces *persistently
// infected* (PI) animals; introducing one PI animal into a herd drives the
// infection through the whole herd. BIPS is exactly this model: the PI
// animal is the persistent source; every other animal re-samples its
// infection state from k random contacts per day.
//
// The herd contact structure is a Watts-Strogatz small world: cattle mostly
// contact pen-neighbours (ring lattice) with occasional cross-pen mixing
// (rewired shortcuts).
//
//   ./bvdv_herd [--herd 512] [--contacts 6] [--mixing 0.1] [--days 365]
#include <cstdio>
#include <iostream>

#include "core/bips.hpp"
#include "core/sis.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "stats/summary.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  const Flags flags(argc, argv);
  const auto herd = static_cast<std::size_t>(flags.get_int("herd", 512));
  const auto contacts = static_cast<std::size_t>(flags.get_int("contacts", 6));
  const double mixing = flags.get_double("mixing", 0.1);
  const auto days = static_cast<std::size_t>(flags.get_int("days", 365));

  Rng graph_rng(2026);
  const Graph g = gen::watts_strogatz(herd, contacts, mixing, graph_rng);
  std::printf("herd contact network: %s (connected: %s)\n", g.name().c_str(),
              is_connected(g) ? "yes" : "no");

  // One PI animal (vertex 0) introduced into an infection-free herd.
  std::printf("\n-- persistently infected (PI) animal introduced --\n");
  BipsOptions options;
  options.branching = Branching::fixed(2);
  options.max_rounds = days;
  const auto result = BipsProcess(g, 0, options).run(Rng(1), 0);
  if (result.completed) {
    std::printf("herd fully infected after %zu days\n", result.rounds);
  } else {
    std::printf("after %zu days: %zu of %zu infected\n", result.rounds,
                result.final_count, herd);
  }
  std::printf("day: infected animals\n");
  for (std::size_t t = 0; t < result.curve.size();
       t += std::max<std::size_t>(1, result.curve.size() / 12)) {
    std::printf("  %4zu: %zu\n", t, result.curve[t]);
  }

  // Contrast: a transiently infected animal (source-free SIS) — the
  // outbreak usually dies out, which is why PI animals are the dangerous
  // case for BVDV.
  std::printf("\n-- same herd, transient (non-PI) index case --\n");
  std::size_t extinct = 0;
  std::size_t endemic = 0;
  const std::size_t outbreak_trials = 50;
  SisOptions sis_options;
  sis_options.max_rounds = days;
  SisProcess sis(g, sis_options);
  for (std::size_t i = 0; i < outbreak_trials; ++i) {
    sis.run(Rng::for_trial(99, i), 0);
    extinct += (sis.outcome() == SisOutcome::kExtinct);
    endemic += (sis.outcome() != SisOutcome::kExtinct);
  }
  std::printf("outbreaks that died out : %zu / %zu\n", extinct, outbreak_trials);
  std::printf("outbreaks still endemic : %zu / %zu\n", endemic, outbreak_trials);

  // Sensitivity: time to full herd infection vs daily contact count k.
  std::printf("\n-- sensitivity: days to full infection vs daily contacts --\n");
  Table table({"contacts k", "mean days", "p90 days", "failed runs"});
  for (const unsigned k : {1u, 2u, 3u, 4u}) {
    std::vector<double> times;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < 30; ++i) {
      BipsOptions opt;
      opt.branching = Branching::fixed(k);
      opt.max_rounds = 20000;
      opt.record_curve = false;
      const auto run = BipsProcess(g, 0, opt).run(Rng::for_trial(7 + k, i), 0);
      if (run.completed) {
        times.push_back(static_cast<double>(run.rounds));
      } else {
        ++failed;
      }
    }
    if (times.empty()) {
      table.add_row({Table::cell(static_cast<std::uint64_t>(k)), "-", "-",
                     Table::cell(static_cast<std::uint64_t>(failed))});
      continue;
    }
    const Summary s = summarize(times);
    table.add_row({Table::cell(static_cast<std::uint64_t>(k)),
                   Table::cell(s.mean, 1), Table::cell(s.p90, 1),
                   Table::cell(static_cast<std::uint64_t>(failed))});
  }
  table.print(std::cout);
  return 0;
}
