// SPDX-License-Identifier: MIT
#include "core/sis.hpp"

#include <algorithm>
#include <stdexcept>

namespace cobra {

SisProcess::SisProcess(const Graph& g, SisOptions options)
    : graph_(&g),
      options_(options),
      infected_(g.num_vertices(), 0),
      next_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("SisProcess requires a non-empty graph");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("SisProcess requires min degree >= 1");
  }
  if (!options_.branching.is_fractional() && options_.branching.k == 0) {
    throw std::invalid_argument("SisProcess requires branching k >= 1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "SisProcess weighted=true requires a weighted graph");
    }
    // Build (or fetch the cached) alias tables up front, outside the
    // trial loop.
    alias_ = &g.alias_tables();
  }
}

void SisProcess::do_reset(std::span<const Vertex> seeds) {
  if (seeds.empty()) {
    throw std::invalid_argument("SisProcess requires a non-empty seed set");
  }
  for (const Vertex v : seeds) {
    if (v >= graph_->num_vertices()) {
      throw std::invalid_argument("SIS seed out of range");
    }
  }
  std::fill(infected_.begin(), infected_.end(), char{0});
  std::fill(next_.begin(), next_.end(), char{0});
  count_ = 0;
  for (const Vertex v : seeds) {
    if (!infected_[v]) {
      infected_[v] = 1;
      ++count_;
    }
  }
  round_ = 0;
  probes_ = 0;
  peak_ = 0;
}

void SisProcess::do_step(Rng& rng) {
  if (faults() != nullptr) {
    step_faulty(rng);
    return;
  }
  const Graph& g = *graph_;
  const std::size_t n = g.num_vertices();
  const Branching& branching = options_.branching;
  std::size_t next_count = 0;
  std::uint64_t round_peak = 0;
  for (Vertex u = 0; u < n; ++u) {
    const auto degree = static_cast<std::uint32_t>(g.degree(u));
    const unsigned draws = branching.is_fractional()
                               ? 1u + (rng.bernoulli(branching.rho) ? 1u : 0u)
                               : branching.k;
    char hit = 0;
    unsigned drawn = 0;
    for (unsigned i = 0; i < draws; ++i) {
      const Vertex w = alias_ != nullptr
                           ? alias_->draw(g, u, rng)
                           : g.neighbor(u, rng.next_below32(degree));
      ++drawn;
      if (infected_[w]) {
        hit = 1;
        break;
      }
    }
    probes_ += drawn;
    round_peak = std::max<std::uint64_t>(round_peak, drawn);
    next_[u] = hit;
    next_count += hit;
  }
  peak_ = std::max(peak_, round_peak);
  infected_.swap(next_);
  count_ = next_count;
  ++round_;
}

void SisProcess::step_faulty(Rng& rng) {
  FaultSession& fs = *faults();
  const Graph& g = *graph_;
  const std::size_t n = g.num_vertices();
  const Branching& branching = options_.branching;
  std::size_t next_count = 0;
  std::uint64_t round_peak = 0;
  for (Vertex u = 0; u < n; ++u) {
    // Down or asleep: u cannot hear any probe response; state frozen.
    if (!fs.can_receive(u)) {
      next_[u] = infected_[u];
      next_count += next_[u] != 0;
      continue;
    }
    const auto degree = static_cast<std::uint32_t>(g.degree(u));
    const unsigned draws = branching.is_fractional()
                               ? 1u + (rng.bernoulli(branching.rho) ? 1u : 0u)
                               : branching.k;
    const FaultSession::Sender sender = fs.sender(u);
    bool any_delivered = false;
    char hit = 0;
    for (unsigned i = 0; i < draws; ++i) {
      const Vertex w = alias_ != nullptr
                           ? alias_->draw(g, u, rng)
                           : g.neighbor(u, rng.next_below32(degree));
      if (fs.transmit(sender, i, w)) {
        any_delivered = true;
        if (infected_[w]) hit = 1;
      }
    }
    probes_ += draws;
    round_peak = std::max<std::uint64_t>(round_peak, draws);
    next_[u] = any_delivered ? hit : infected_[u];
    next_count += next_[u] != 0;
  }
  peak_ = std::max(peak_, round_peak);
  infected_.swap(next_);
  count_ = next_count;
  ++round_;
}

}  // namespace cobra
