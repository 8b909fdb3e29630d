// SPDX-License-Identifier: MIT
#include "protocols/flood.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

FloodProcess::FloodProcess(const Graph& g, FloodOptions options)
    : graph_(&g), options_(options), informed_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("FloodProcess requires a non-empty graph");
  }
  frontier_.reserve(g.num_vertices());
  next_frontier_.reserve(g.num_vertices());
}

std::uint64_t FloodProcess::peak_vertex_round_transmissions() const {
  // Under faults a down hub genuinely sends nothing, so report the actual
  // peak; the faults-off accounting keeps the max-degree floor.
  if (fault_session() != nullptr) return peak_;
  return std::max<std::uint64_t>(peak_, graph_->max_degree());
}

void FloodProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("flood is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("flood start out of range");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  frontier_.clear();
  next_frontier_.clear();
  informed_[start] = 1;
  frontier_.push_back(start);
  informed_degree_sum_ = graph_->degree(start);
  count_ = 1;
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void FloodProcess::do_step(Rng& rng) {
  if (faults() != nullptr) {
    step_faulty(rng);
    return;
  }
  const Graph& g = *graph_;
  // Every informed vertex sends to all neighbours; only frontier sends
  // can inform anyone new, but the message count charges everyone.
  transmissions_ += informed_degree_sum_;
  next_frontier_.clear();
  for (const Vertex v : frontier_) {
    peak_ = std::max(peak_, static_cast<std::uint64_t>(g.degree(v)));
    for (const Vertex w : g.neighbors(v)) {
      if (!informed_[w]) {
        informed_[w] = 1;
        next_frontier_.push_back(w);
        informed_degree_sum_ += g.degree(w);
        ++count_;
      }
    }
  }
  frontier_.swap(next_frontier_);
  ++round_;
}

void FloodProcess::step_faulty(Rng&) {
  FaultSession& fs = *faults();
  const Graph& g = *graph_;
  // frontier_ is the full informed list in fault mode (do_reset seeds it
  // with the start; every newly informed vertex is appended below). Only
  // the vertices informed at the start of the round send.
  const std::size_t senders = frontier_.size();
  std::uint64_t sends = 0;
  for (std::size_t i = 0; i < senders; ++i) {
    const Vertex v = frontier_[i];
    if (!fs.can_send(v)) continue;  // down: silent this round
    const auto degree = static_cast<std::uint64_t>(g.degree(v));
    peak_ = std::max(peak_, degree);
    sends += degree;
    std::uint32_t index = 0;
    for (const Vertex w : g.neighbors(v)) {
      if (fs.transmit(v, index++, w) && !informed_[w]) {
        informed_[w] = 1;
        frontier_.push_back(w);
        ++count_;
      }
    }
  }
  transmissions_ += sends;
  ++round_;
}

}  // namespace cobra
