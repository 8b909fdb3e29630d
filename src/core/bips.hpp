// SPDX-License-Identifier: MIT
//
// BIPS — Biased Infection with Persistent Source (paper Section 1), the
// epidemic dual of COBRA under time reversal (Theorem 4).
//
// Round t -> t+1: every vertex u not in the source set independently
// selects k neighbours uniformly with replacement; u is in A_{t+1} iff at
// least one selected neighbour is in A_t. Sources are in A_t for every t.
// Note the infected set is *not* monotone — a vertex can recover by
// sampling only healthy neighbours (SIS type) — but the persistent source
// drives the whole graph to infection w.h.p. (Theorem 2).
//
// Engine notes: a vertex whose neighbourhood is uniformly infected (or
// uniformly healthy) has a forced next state — no sample can change it —
// so skipping its draws is distribution-preserving, exactly like the early
// exit on a hit. The engine runs in one of two modes:
//   * list mode — per-vertex infected-neighbour counts are maintained
//     incrementally from state flips, and a sorted active list holds
//     exactly the undecided (or flip-due) vertices. Early rounds
//     (infection localized near the sources) and late rounds (a handful
//     of undecided stragglers) cost O(boundary), not O(n).
//   * scan mode — one plain pass over all n vertices with zero
//     bookkeeping; used while the undecided boundary is a large fraction
//     of n, where maintaining counts and lists costs more than it saves.
// Transitions have hysteresis: list -> scan is free (the counts are
// dropped); scan -> list rebuilds the counts in one O(m) sweep, is taken
// only when the epidemic is nearly saturated and quiet, and is rationed
// per trial so degenerate instances (e.g. complete graphs, where every
// vertex stays undecided until the last) cannot thrash. Both modes visit
// vertices in ascending order and every transition is a deterministic
// function of the state, so results remain a pure function of
// (seed, trial). reset() re-zeroes a few byte/word arrays (one memset
// each, a few % of a trial) so trial loops reuse one process per thread
// instead of reallocating.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra {

struct BipsOptions {
  Branching branching = Branching::fixed(2);
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
  /// Weighted neighbour probes via the graph's alias tables (requires a
  /// weighted graph). The forced-outcome and first-hit skips remain
  /// distribution-preserving under any draw distribution — "all
  /// neighbours infected" forces infection whatever the weights — so the
  /// engine structure is unchanged; weighted = false leaves the uniform
  /// RNG stream untouched.
  bool weighted = false;
};

/// Process::run goes until A_t = V or max_rounds: result.rounds is
/// infec(source) when completed, curve[t] = |A_t|, and
/// total_transmissions counts the neighbour probes the engine actually
/// drew (see total_probes).
class BipsProcess final : public Process {
 public:
  /// Starts with A_0 = {source}. Requires min degree >= 1 (every vertex
  /// samples neighbours each round).
  BipsProcess(const Graph& g, Vertex source, BipsOptions options = {});

  /// Multi-source variant: every vertex of `sources` is persistently
  /// infected (A_0 = sources). The time-reversal duality generalizes:
  /// P(Hit_C(S) > t) = P(C cap A_t = empty | A_0 = S), where Hit_C(S) is
  /// the first round the COBRA frontier meets the set S (the paper proves
  /// the |S| = 1 case; the induction is verbatim for sets — tested exactly
  /// in tests/exact_test.cpp).
  BipsProcess(const Graph& g, std::span<const Vertex> sources,
              BipsOptions options = {});

  /// Rewinds to round 0 with the given persistent source set. Throws
  /// std::invalid_argument (before mutating) on a bad source set.
  /// (Process::reset(Rng, ...) layers trial-RNG capture on top.)
  using Process::reset;
  void reset(Vertex source);
  void reset(std::span<const Vertex> sources);

  /// Executes one round; returns |A_{t+1}|. The inherited Process::step()
  /// drives this with the captured trial RNG.
  using Process::step;
  std::size_t step(Rng& rng);

  std::size_t round() const noexcept override { return round_; }
  std::size_t infected_count() const noexcept { return infected_count_; }
  bool fully_infected() const noexcept {
    return infected_count_ == graph_->num_vertices();
  }

  // ---- unified Process contract ----
  bool done() const override {
    return fully_infected() || round_ >= options_.max_rounds;
  }
  std::size_t reached_count() const override { return infected_count_; }
  /// Working set = vertices the engine evaluates next round (active list
  /// in list mode, every non-source vertex in scan mode).
  std::size_t active_count() const override { return active_estimate_; }
  bool completed() const override { return fully_infected(); }
  std::uint64_t total_transmissions() const override { return probes_total_; }
  std::uint64_t peak_vertex_round_transmissions() const override {
    return probes_peak_vertex_;
  }
  std::size_t round_limit() const override { return options_.max_rounds; }
  bool is_infected(Vertex v) const { return infected_[v] != 0; }
  bool is_source(Vertex v) const { return is_source_[v] != 0; }

  /// The full persistent source set, ascending and deduplicated.
  std::span<const Vertex> sources() const noexcept { return sources_; }

  /// Lowest-indexed source. With a multi-source construction prefer
  /// sources(); this accessor exists for the common single-source case.
  Vertex source() const noexcept { return sources_.front(); }

  /// Number of vertices the engine will evaluate next round: the active
  /// list in list mode, every non-source vertex in scan mode.
  std::size_t active_size() const noexcept { return active_estimate_; }

  /// Neighbour probes actually drawn since the last reset. A vertex stops
  /// probing at its first infected hit, and in list mode vertices the
  /// engine classifies as forced draw nothing, so this counts the samples
  /// the dynamics consumed, not the nominal k(n - |S|) selections per
  /// round.
  std::uint64_t total_probes() const noexcept { return probes_total_; }

  /// Largest number of probes any single vertex drew in one round.
  std::uint64_t peak_vertex_round_probes() const noexcept {
    return probes_peak_vertex_;
  }

  const Graph& graph() const noexcept { return *graph_; }
  const BipsOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> sources) override { reset(sources); }
  void do_step(Rng& rng) override {
    if (faults() != nullptr) {
      step_faulty(rng);
      return;
    }
    step(rng);
  }
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// Fault-aware round (core/faults.hpp): a plain scan where a probe is a
  /// request/response pair — a vertex that is down or asleep cannot hear
  /// any response and keeps (freezes) its current state, and a vertex
  /// whose every probe was lost likewise keeps its state. Delivered
  /// probes behave normally. The forced-outcome/early-exit machinery is
  /// bypassed (its skips assume lossless probes).
  void step_faulty(Rng& rng);
  /// True if u's next state is random, or forced to differ from its
  /// current state — exactly the vertices that need processing. Valid only
  /// while the neighbour counts are maintained (list mode).
  bool needs_processing(Vertex u) const noexcept;
  void rebuild_counts_and_list();

  const Graph* graph_;
  BipsOptions options_;
  /// Alias tables for weighted probes (see GraphAliasTables::draw_index);
  /// null when unweighted.
  const GraphAliasTables* alias_ = nullptr;
  std::vector<Vertex> sources_;
  std::vector<char> is_source_;
  /// Current round's infected bitmap (1 byte per vertex: the draw loop's
  /// random reads want density, not packing). Scan mode writes the next
  /// round into next_infected_ and swaps — exactly the baseline layout;
  /// list mode edits infected_ in place from its flip list.
  std::vector<char> infected_;
  std::vector<char> next_infected_;
  /// Infected-neighbour count per vertex; maintained from flips in list
  /// mode, stale in scan mode until the next rebuild.
  std::vector<std::uint32_t> inf_nbrs_;
  /// Active list (ascending), its per-round membership markers, and the
  /// scratch vectors of the flip/recruit phases.
  std::vector<Vertex> cand_;
  std::vector<Vertex> next_cand_;
  /// Allocation-free merge scratch for the recruit phase.
  std::vector<Vertex> merge_buf_;
  std::vector<std::uint32_t> cand_mark_;
  std::vector<Vertex> flips_;
  std::vector<Vertex> newly_;
  bool scan_mode_ = false;
  int rebuilds_left_ = 0;
  std::size_t active_estimate_ = 0;
  std::size_t infected_count_ = 0;
  Round round_ = 0;
  std::uint64_t probes_total_ = 0;
  std::uint64_t probes_peak_vertex_ = 0;
};

/// Duality probe (right-hand side of Theorem 4): runs exactly t rounds and
/// reports whether `probe` is in A_t. One Bernoulli sample of
/// P(probe in A_t | A_0 = source).
bool bips_membership_after(const Graph& g, Vertex source, Vertex probe,
                           std::size_t t, BipsOptions options, Rng& rng);

}  // namespace cobra
