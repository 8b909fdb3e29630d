// SPDX-License-Identifier: MIT
#include "protocols/branching_walk.hpp"

#include <algorithm>
#include <stdexcept>

#include "rand/sampling.hpp"

namespace cobra {

BranchingWalkProcess::BranchingWalkProcess(const Graph& g,
                                           BranchingWalkOptions options)
    : graph_(&g),
      options_(options),
      counts_(g.num_vertices(), 0),
      next_(g.num_vertices(), 0),
      visited_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("branching walk requires a non-empty graph");
  }
  if (options_.k == 0) {
    throw std::invalid_argument("branching walk needs k>=1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "branching walk weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
}

void BranchingWalkProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("branching walk is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("branching walk start range");
  }
  // Particles occupy only vertices reached along edges, so a start-degree
  // check is sufficient even on graphs with isolated vertices.
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("branching walk start must have degree >= 1");
  }
  std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  std::fill(visited_.begin(), visited_.end(), char{0});
  counts_[start] = 1;
  visited_[start] = 1;
  visited_count_ = 1;
  occupied_ = 1;
  population_ = 1;
  messages_ = 0;
  round_ = 0;
  saturated_ = false;
}

void BranchingWalkProcess::do_step(Rng& rng) {
  if (faults() != nullptr) {
    step_faulty(rng);
    return;
  }
  const Graph& g = *graph_;
  const std::size_t n = g.num_vertices();
  std::fill(next_.begin(), next_.end(), std::uint64_t{0});
  std::uint64_t moves = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t particles = counts_[v];
    if (particles == 0) continue;
    const std::size_t degree = g.degree(v);
    // For small populations simulate each particle's k draws; for large
    // ones (>= degree * 64) every neighbour is hit with overwhelming
    // probability — split the population multinomially-approximate by
    // even shares, which preserves totals and occupied support.
    if (particles < static_cast<std::uint64_t>(degree) * 64) {
      for (std::uint64_t p = 0; p < particles; ++p) {
        for (unsigned i = 0; i < options_.k; ++i) {
          const Vertex w =
              alias_ != nullptr
                  ? alias_->draw(g, v, rng)
                  : g.neighbor(v, rng.next_below32(
                                      static_cast<std::uint32_t>(degree)));
          next_[w] = std::min(options_.vertex_cap, next_[w] + 1);
          ++moves;
        }
      }
    } else {
      const std::uint64_t out = particles * options_.k;
      const std::uint64_t share = out / degree;
      for (const Vertex w : g.neighbors(v)) {
        next_[w] = std::min(options_.vertex_cap, next_[w] + share);
      }
      moves += out;
      saturated_ = true;
    }
  }
  std::uint64_t population = 0;
  std::size_t occupied = 0;
  for (Vertex v = 0; v < n; ++v) {
    counts_[v] = next_[v];
    if (counts_[v] > 0) {
      ++occupied;
      if (!visited_[v]) {
        visited_[v] = 1;
        ++visited_count_;
      }
    }
    population += counts_[v];
    saturated_ |= (counts_[v] >= options_.vertex_cap);
  }
  messages_ += moves;
  population_ = population;
  occupied_ = occupied;
  ++round_;
}

void BranchingWalkProcess::step_faulty(Rng& rng) {
  FaultSession& fs = *faults();
  const Graph& g = *graph_;
  const std::size_t n = g.num_vertices();
  const double keep = 1.0 - fs.model().options().drop;
  std::fill(next_.begin(), next_.end(), std::uint64_t{0});
  std::uint64_t moves = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t particles = counts_[v];
    if (particles == 0) continue;
    if (!fs.can_send(v)) {
      // Down: all particles frozen in place (delay, never corrupt).
      next_[v] = std::min(options_.vertex_cap, next_[v] + particles);
      continue;
    }
    const std::size_t degree = g.degree(v);
    if (particles < static_cast<std::uint64_t>(degree) * 64) {
      // Per-particle path: each spawn is one message; a particle whose
      // every spawn was lost survives in place.
      const FaultSession::Sender sender = fs.sender(v);
      std::uint32_t index = 0;
      for (std::uint64_t p = 0; p < particles; ++p) {
        bool any_delivered = false;
        for (unsigned i = 0; i < options_.k; ++i) {
          const Vertex w =
              alias_ != nullptr
                  ? alias_->draw(g, v, rng)
                  : g.neighbor(v, rng.next_below32(
                                      static_cast<std::uint32_t>(degree)));
          ++moves;
          if (fs.transmit(sender, index++, w)) {
            next_[w] = std::min(options_.vertex_cap, next_[w] + 1);
            any_delivered = true;
          }
        }
        if (!any_delivered) {
          next_[v] = std::min(options_.vertex_cap, next_[v] + 1);
        }
      }
    } else {
      // Saturated even-share path: drops are applied in expectation (the
      // per-neighbour share scaled by 1 - drop — deterministic double
      // arithmetic, so still bitwise reproducible), receivers that cannot
      // receive get nothing, and the split is recorded through the bulk
      // counters so tx == delivered + dropped + blocked holds exactly.
      const std::uint64_t out = particles * options_.k;
      const std::uint64_t share = out / degree;
      const auto delivered_share =
          static_cast<std::uint64_t>(static_cast<double>(share) * keep);
      fs.record_tx_bulk(v, out);
      std::uint64_t accounted = 0;
      std::uint64_t delivered_here = 0;
      for (const Vertex w : g.neighbors(v)) {
        if (fs.can_receive(w)) {
          if (delivered_share > 0) {
            next_[w] =
                std::min(options_.vertex_cap, next_[w] + delivered_share);
            fs.record_rx_bulk(w, delivered_share);
            delivered_here += delivered_share;
          }
          fs.record_dropped_bulk(share - delivered_share);
        } else {
          fs.record_blocked_bulk(share);
        }
        accounted += share;
      }
      // The integer-division remainder of the split is charged as loss.
      fs.record_dropped_bulk(out - accounted);
      // Nothing deliverable (every neighbour blocked, or the scaled share
      // rounded to zero): the population survives in place — faults delay
      // the walk, they never extinguish it.
      if (delivered_here == 0) {
        next_[v] = std::min(options_.vertex_cap, next_[v] + particles);
      }
      moves += out;
      saturated_ = true;
    }
  }
  std::uint64_t population = 0;
  std::size_t occupied = 0;
  for (Vertex v = 0; v < n; ++v) {
    counts_[v] = next_[v];
    if (counts_[v] > 0) {
      ++occupied;
      if (!visited_[v]) {
        visited_[v] = 1;
        ++visited_count_;
      }
    }
    population += counts_[v];
    saturated_ |= (counts_[v] >= options_.vertex_cap);
  }
  messages_ += moves;
  population_ = population;
  occupied_ = occupied;
  ++round_;
}

}  // namespace cobra
