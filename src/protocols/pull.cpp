// SPDX-License-Identifier: MIT
#include "protocols/pull.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

PullProcess::PullProcess(const Graph& g, PullOptions options)
    : graph_(&g), options_(options), informed_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("PullProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "PullProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
}

void PullProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("pull is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("pull start out of range");
  }
  // Isolated vertices can never pull anything; they are skipped below and
  // only the start (whose draw seeds nothing but whose reachability
  // matters) must have an edge.
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("pull start must have degree >= 1");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  informed_[start] = 1;
  count_ = 1;
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void PullProcess::do_step(Rng& rng) {
  faults() != nullptr ? run_round<true>(rng) : run_round<false>(rng);
}

template <bool kFaulty>
void PullProcess::run_round(Rng& rng) {
  FaultSession* const fs = faults();  // read only when kFaulty
  const Graph& g = *graph_;
  const std::size_t n = g.num_vertices();
  std::size_t contacts = 0;
  std::size_t new_informed = 0;
  // Synchronous: pulls read the start-of-round state; since informed
  // vertices never revert, evaluating in place is equivalent.
  for (Vertex v = 0; v < n; ++v) {
    if (informed_[v]) continue;
    const auto degree = static_cast<std::uint32_t>(g.degree(v));
    if (degree == 0) continue;  // isolated: nothing to pull from
    // Under faults v must be up and awake to hear the response, and the
    // one transmit models the round trip (the contacted neighbour must be
    // up and awake to answer, and the channel must not drop it).
    if (kFaulty && !fs->can_receive(v)) continue;
    ++contacts;
    const Vertex w = alias_ != nullptr
                         ? alias_->draw(g, v, rng)
                         : g.neighbor(v, rng.next_below32(degree));
    if (kFaulty && !fs->transmit(fs->sender(v), 0, w)) continue;
    if (informed_[w] == 1) {  // == 1: only start-of-round informed count
      informed_[v] = 2;       // mark for activation after the sweep
      ++new_informed;
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    if (informed_[v] == 2) informed_[v] = 1;
  }
  count_ += new_informed;
  transmissions_ += contacts;
  if (!kFaulty || contacts > 0) peak_ = 1;
  ++round_;
}

}  // namespace cobra
