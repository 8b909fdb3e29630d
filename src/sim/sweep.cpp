// SPDX-License-Identifier: MIT
#include "sim/sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

namespace {

SpreadMeasurement summarize_results(const std::vector<SpreadResult>& results) {
  SpreadMeasurement measurement;
  std::vector<double> rounds;
  std::vector<double> transmissions;
  rounds.reserve(results.size());
  transmissions.reserve(results.size());
  for (const auto& result : results) {
    if (!result.completed) {
      ++measurement.failed;
      continue;
    }
    rounds.push_back(static_cast<double>(result.rounds));
    transmissions.push_back(static_cast<double>(result.total_transmissions));
    measurement.peak_vertex_round = std::max(
        measurement.peak_vertex_round, result.peak_vertex_round_transmissions);
  }
  if (!rounds.empty()) {
    measurement.rounds = summarize(rounds);
    measurement.transmissions = summarize(transmissions);
  }
  return measurement;
}

}  // namespace

std::vector<Vertex> spreadable_starts(const Graph& g) {
  std::vector<Vertex> starts;
  starts.reserve(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) starts.push_back(v);
  }
  if (starts.empty()) {
    throw std::invalid_argument(
        "spreadable_starts: graph '" + g.name() + "' has no edges");
  }
  return starts;
}

SpreadMeasurement measure_cobra(const Graph& g, const CobraOptions& options,
                                const TrialOptions& trials) {
  const auto starts = spreadable_starts(g);
  // One unified-process workspace per participating thread; each trial
  // resets it in O(1). Transmission totals are counted regardless of
  // options.record_curves, so no flag forcing is needed.
  return summarize_results(run_process_trials(
      trials,
      [&] {
        return std::make_unique<CobraProcess>(g, starts.front(), options);
      },
      starts));
}

SpreadMeasurement measure_bips(const Graph& g, const BipsOptions& options,
                               const TrialOptions& trials) {
  const auto starts = spreadable_starts(g);
  return summarize_results(run_process_trials(
      trials,
      [&] { return std::make_unique<BipsProcess>(g, starts.front(), options); },
      starts));
}

SpreadMeasurement measure_process(const Graph& g, const std::string& name,
                                  const ProcessParams& params,
                                  const TrialOptions& trials) {
  const auto starts = spreadable_starts(g);
  return summarize_results(run_process_trials(
      trials, [&] { return make_process(g, name, params); }, starts));
}

}  // namespace cobra
