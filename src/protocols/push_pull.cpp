// SPDX-License-Identifier: MIT
#include "protocols/push_pull.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

PushPullProcess::PushPullProcess(const Graph& g, PushPullOptions options)
    : graph_(&g),
      options_(options),
      informed_(g.num_vertices(), 0),
      next_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("PushPullProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "PushPullProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    contactors_ += (g.degree(v) > 0);
  }
}

void PushPullProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("push-pull is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("push_pull start out of range");
  }
  // Isolated vertices make no contacts (skipped below); only the start
  // must have an edge.
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("push_pull start must have degree >= 1");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  std::fill(next_.begin(), next_.end(), char{0});
  informed_[start] = 1;
  next_[start] = 1;
  count_ = 1;
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void PushPullProcess::do_step(Rng& rng) {
  faults() != nullptr ? run_round<true>(rng) : run_round<false>(rng);
}

template <bool kFaulty>
void PushPullProcess::run_round(Rng& rng) {
  FaultSession* const fs = faults();  // read only when kFaulty
  const Graph& g = *graph_;
  const std::size_t n = g.num_vertices();
  // Synchronous semantics: all contacts are evaluated against the state
  // at the start of the round.
  std::size_t contacts = 0;
  for (Vertex v = 0; v < n; ++v) {
    const auto degree = static_cast<std::uint32_t>(g.degree(v));
    if (degree == 0) continue;  // isolated: no one to contact
    // Under faults a pusher must be up; a puller must also be awake to
    // hear the response.
    if (kFaulty && !(informed_[v] ? fs->can_send(v) : fs->can_receive(v))) {
      continue;
    }
    ++contacts;
    const Vertex w = alias_ != nullptr
                         ? alias_->draw(g, v, rng)
                         : g.neighbor(v, rng.next_below32(degree));
    if (kFaulty && !fs->transmit(fs->sender(v), 0, w)) continue;
    if (informed_[v]) {
      next_[w] = 1;  // push
    } else if (informed_[w]) {
      next_[v] = 1;  // pull
    }
  }
  count_ = 0;
  for (Vertex v = 0; v < n; ++v) {
    informed_[v] = next_[v];
    count_ += static_cast<std::size_t>(next_[v]);
  }
  transmissions_ += contacts;
  if (!kFaulty || contacts > 0) peak_ = 1;
  ++round_;
}

}  // namespace cobra
