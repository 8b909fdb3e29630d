// SPDX-License-Identifier: MIT
//
// Synchronous flooding: every informed vertex forwards to ALL neighbours
// every round. Completes in exactly eccentricity(start) rounds — the
// round-count lower bound for any single-source dissemination — at the
// cost of Theta(m) messages per round. The message-budget extreme opposite
// of COBRA in experiment E12.
#pragma once

#include "core/process.hpp"
#include "core/process_common.hpp"
#include "graph/graph.hpp"

namespace cobra {

struct FloodOptions {
  std::size_t max_rounds = 1u << 20;
  bool record_curve = true;
};

/// Steppable flood with a reusable workspace (see PushProcess).
/// Deterministic: the RNG captured at reset() is never consumed, and a
/// dead frontier (disconnected remainder) makes done() true early.
/// Results are pinned by the golden table in tests/process_test.cpp.
class FloodProcess final : public Process {
 public:
  explicit FloodProcess(const Graph& g, FloodOptions options = {});

  bool done() const override {
    return count_ == graph_->num_vertices() || frontier_.empty() ||
           round_ >= options_.max_rounds;
  }
  std::size_t round() const override { return round_; }
  std::size_t reached_count() const override { return count_; }
  /// Working set = the BFS frontier (only its sends can inform anyone).
  std::size_t active_count() const override { return frontier_.size(); }
  bool completed() const override { return count_ == graph_->num_vertices(); }
  std::uint64_t total_transmissions() const override { return transmissions_; }
  /// At least the graph's max degree (an informed hub transmits its
  /// whole neighbourhood every round).
  std::uint64_t peak_vertex_round_transmissions() const override;
  std::size_t round_limit() const override { return options_.max_rounds; }

  const Graph& graph() const noexcept { return *graph_; }
  const FloodOptions& options() const noexcept { return options_; }

 protected:
  void do_reset(std::span<const Vertex> starts) override;
  void do_step(Rng& rng) override;
  bool curve_enabled() const override { return options_.record_curve; }

 private:
  /// One round. Plain: only frontier sends can inform anyone new, so the
  /// frontier sends and every informed vertex's messages are charged in
  /// bulk. In the kFaulty instantiation (an attached fault model,
  /// core/faults.hpp) that BFS shortcut is wrong — a lost edge message
  /// must be retried — so frontier_ is the full informed list and EVERY
  /// up informed vertex re-sends to all neighbours each round
  /// (Theta(informed-degree) messages per round, the honest flooding
  /// cost). The list never empties, so done() reduces to full cover or
  /// the round budget; transmissions and the per-vertex peak count actual
  /// sends.
  template <bool kFaulty>
  void run_round(Rng& rng);

  const Graph* graph_;
  FloodOptions options_;
  std::vector<char> informed_;
  std::vector<Vertex> frontier_;
  std::vector<Vertex> next_frontier_;
  std::uint64_t informed_degree_sum_ = 0;
  std::size_t count_ = 0;
  std::size_t round_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t peak_ = 0;
};

}  // namespace cobra
