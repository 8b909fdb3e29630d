// SPDX-License-Identifier: MIT
#include "protocols/random_walk.hpp"

#include <algorithm>
#include <stdexcept>

namespace cobra {

RandomWalk::RandomWalk(const Graph& g, Vertex start)
    : graph_(&g), position_(start), first_visit_(g.num_vertices(), kRoundNever) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("RandomWalk requires a non-empty graph");
  }
  if (start >= g.num_vertices()) {
    throw std::invalid_argument("RandomWalk start out of range");
  }
  // Only the start needs an edge: the walk can only stand on vertices it
  // reached along an edge, and undirected edges are traversable back.
  if (g.degree(start) == 0) {
    throw std::invalid_argument("RandomWalk start must have degree >= 1");
  }
  first_visit_[start] = 0;
}

Vertex RandomWalk::step(Rng& rng) {
  const auto degree = static_cast<std::uint32_t>(graph_->degree(position_));
  position_ = graph_->neighbor(position_, rng.next_below32(degree));
  ++steps_;
  if (first_visit_[position_] == kRoundNever) {
    first_visit_[position_] = static_cast<Round>(steps_);
    ++visited_count_;
  }
  return position_;
}

WalkProcess::WalkProcess(const Graph& g, RandomWalkOptions options)
    : graph_(&g), options_(options), first_visit_(g.num_vertices(), kRoundNever) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("WalkProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "WalkProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
}

std::size_t WalkProcess::curve_size_hint() const {
  // One curve entry per distinct visit: bounded by n, not by the budget.
  return std::min(graph_->num_vertices(), kCurveReserveCap);
}

void WalkProcess::append_curve_point() {
  // Visit-event sampling: one entry (the step index) per distinct visit.
  // A step visits at most one new vertex, so catching up is a single push.
  if (mutable_curve().size() < visited_count_) {
    mutable_curve().push_back(steps_);
  }
}

void WalkProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("walk is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("walk start out of range");
  }
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("walk start must have degree >= 1");
  }
  std::fill(first_visit_.begin(), first_visit_.end(), kRoundNever);
  first_visit_[start] = 0;
  position_ = start;
  steps_ = 0;
  visited_count_ = 1;
  fault_tx_ = 0;
}

void WalkProcess::do_step(Rng& rng) {
  faults() != nullptr ? run_round<true>(rng) : run_round<false>(rng);
}

template <bool kFaulty>
void WalkProcess::run_round(Rng& rng) {
  FaultSession* const fs = faults();  // read only when kFaulty
  ++steps_;
  if (kFaulty && !fs->can_send(position_)) return;  // down: token waits
  Vertex w;
  if (alias_ != nullptr) {
    w = alias_->draw(*graph_, position_, rng);
  } else {
    const auto degree = static_cast<std::uint32_t>(graph_->degree(position_));
    w = graph_->neighbor(position_, rng.next_below32(degree));
  }
  if constexpr (kFaulty) {
    ++fault_tx_;
    if (!fs->transmit(fs->sender(position_), 0, w)) return;  // hop lost
  }
  position_ = w;
  if (first_visit_[position_] == kRoundNever) {
    first_visit_[position_] = static_cast<Round>(steps_);
    ++visited_count_;
  }
}

std::optional<std::size_t> walk_hitting_time(const Graph& g, Vertex start,
                                             Vertex target,
                                             RandomWalkOptions options,
                                             Rng& rng) {
  RandomWalk walk(g, start);
  if (start == target) return 0;
  while (walk.steps() < options.max_steps) {
    if (walk.step(rng) == target) return walk.steps();
  }
  return std::nullopt;
}

}  // namespace cobra
