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
  faults() != nullptr ? run_round<true>(rng) : run_round<false>(rng);
}

template <bool kFaulty>
void FloodProcess::run_round(Rng&) {
  FaultSession* const fs = faults();  // read only when kFaulty
  const Graph& g = *graph_;
  // Plain: every informed vertex sends to all neighbours; only frontier
  // sends can inform anyone new, but the message count charges everyone.
  // Faulty: the senders are every informed vertex at the start of the
  // round, and new informees join the same list.
  if constexpr (!kFaulty) transmissions_ += informed_degree_sum_;
  std::vector<Vertex>& informees = kFaulty ? frontier_ : next_frontier_;
  if constexpr (!kFaulty) next_frontier_.clear();
  const std::size_t senders = frontier_.size();
  for (std::size_t i = 0; i < senders; ++i) {
    const Vertex v = frontier_[i];
    if (kFaulty && !fs->can_send(v)) continue;  // down: silent this round
    const auto degree = static_cast<std::uint64_t>(g.degree(v));
    peak_ = std::max(peak_, degree);
    if constexpr (kFaulty) transmissions_ += degree;
    const FaultSession::Sender sender =
        kFaulty ? fs->sender(v) : FaultSession::Sender{};
    std::uint32_t index = 0;
    for (const Vertex w : g.neighbors(v)) {
      if (kFaulty && !fs->transmit(sender, index++, w)) continue;
      if (!informed_[w]) {
        informed_[w] = 1;
        informees.push_back(w);
        informed_degree_sum_ += g.degree(w);
        ++count_;
      }
    }
  }
  if constexpr (!kFaulty) frontier_.swap(next_frontier_);
  ++round_;
}

}  // namespace cobra
