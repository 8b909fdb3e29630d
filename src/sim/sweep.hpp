// SPDX-License-Identifier: MIT
//
// Measurement helpers shared by the experiment binaries: run N trials of a
// spreading process on one graph and summarize the interesting scalars.
// Starting vertices rotate deterministically through the graph so the
// sample approximates max-over-start definitions (COV(G), Infec(G)) on
// non-transitive instances.
#pragma once

#include <string>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/process_factory.hpp"
#include "graph/graph.hpp"
#include "sim/trial_runner.hpp"
#include "stats/summary.hpp"

namespace cobra {

struct SpreadMeasurement {
  Summary rounds;          ///< cover/infection rounds over completed trials
  Summary transmissions;   ///< total messages over completed trials
  std::size_t failed = 0;  ///< trials that hit max_rounds (excluded above)
  /// Largest single-vertex single-round send over completed trials.
  std::uint64_t peak_vertex_round = 0;
};

/// Vertices eligible as trial starting points: every vertex of positive
/// degree, ascending. Starting a spreading process on a degree-0 vertex is
/// undefined (the neighbour draw has an empty support), and irregular
/// external graphs (scenario `graph.file=`) can legitimately contain such
/// vertices — the rotation below skips them. Throws std::invalid_argument
/// when the graph has no edges at all.
std::vector<Vertex> spreadable_starts(const Graph& g);

/// Cover time of COBRA over `trials.trials` runs; trial i starts at the
/// (i % #starts)-th non-isolated vertex (vertex-transitive families are
/// start-independent; others get a rotating sample of starts).
SpreadMeasurement measure_cobra(const Graph& g, const CobraOptions& options,
                                const TrialOptions& trials);

/// Infection time of BIPS with the source rotating over vertices.
SpreadMeasurement measure_bips(const Graph& g, const BipsOptions& options,
                               const TrialOptions& trials);

/// Registry-driven variant: measures the factory process named `name`
/// with string `params` (exactly what a scenario spec would pass), one
/// workspace per thread, starts rotating over spreadable_starts(g).
SpreadMeasurement measure_process(const Graph& g, const std::string& name,
                                  const ProcessParams& params,
                                  const TrialOptions& trials);

}  // namespace cobra
