// SPDX-License-Identifier: MIT
#include "core/bips.hpp"

#include <algorithm>
#include <stdexcept>

#include "rand/sampling.hpp"

namespace cobra {

namespace {
/// Scan -> list transitions rebuild the neighbour counts (O(m)); ration
/// them so instances where the boundary never shrinks (complete graphs:
/// every vertex is undecided until the very last round) cannot thrash.
constexpr int kMaxCountRebuilds = 4;
}  // namespace

BipsProcess::BipsProcess(const Graph& g, Vertex source, BipsOptions options)
    : BipsProcess(g, std::span<const Vertex>(&source, 1), std::move(options)) {}

BipsProcess::BipsProcess(const Graph& g, std::span<const Vertex> sources,
                         BipsOptions options)
    : graph_(&g),
      options_(std::move(options)),
      is_source_(g.num_vertices(), 0),
      infected_(g.num_vertices(), 0),
      next_infected_(g.num_vertices(), 0),
      inf_nbrs_(g.num_vertices(), 0),
      cand_mark_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("BipsProcess requires a non-empty graph");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("BipsProcess requires min degree >= 1");
  }
  if (!options_.branching.is_fractional() && options_.branching.k == 0) {
    throw std::invalid_argument("BipsProcess requires branching k >= 1");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "BipsProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
  // Worst-case list capacity up front (every list is bounded by n), so a
  // trial loop's steady state performs zero allocations.
  cand_.reserve(g.num_vertices());
  next_cand_.reserve(g.num_vertices());
  merge_buf_.reserve(g.num_vertices());
  flips_.reserve(g.num_vertices());
  newly_.reserve(g.num_vertices());
  reset(sources);
}

void BipsProcess::reset(Vertex source) {
  reset(std::span<const Vertex>(&source, 1));
}

void BipsProcess::reset(std::span<const Vertex> sources) {
  if (sources.empty()) {
    throw std::invalid_argument("BipsProcess requires >= 1 source");
  }
  for (const Vertex s : sources) {
    if (s >= graph_->num_vertices()) {
      throw std::invalid_argument("BIPS source out of range");
    }
  }
  round_ = 0;
  probes_total_ = 0;
  probes_peak_vertex_ = 0;
  rebuilds_left_ = kMaxCountRebuilds;
  for (const Vertex s : sources_) is_source_[s] = 0;  // undo previous trial
  std::fill(infected_.begin(), infected_.end(), char{0});
  std::fill(inf_nbrs_.begin(), inf_nbrs_.end(), 0u);
  std::fill(cand_mark_.begin(), cand_mark_.end(), 0u);
  sources_.assign(sources.begin(), sources.end());
  std::sort(sources_.begin(), sources_.end());
  sources_.erase(std::unique(sources_.begin(), sources_.end()),
                 sources_.end());
  for (const Vertex s : sources_) {
    is_source_[s] = 1;
    infected_[s] = 1;
  }
  infected_count_ = sources_.size();
  for (const Vertex s : sources_) {
    for (const Vertex u : graph_->neighbors(s)) ++inf_nbrs_[u];
  }
  // Initial active list: non-source neighbours of the sources (everything
  // else has zero infected neighbours and is stably healthy).
  cand_.clear();
  for (const Vertex s : sources_) {
    for (const Vertex u : graph_->neighbors(s)) {
      if (!is_source_[u]) cand_.push_back(u);
    }
  }
  std::sort(cand_.begin(), cand_.end());
  cand_.erase(std::unique(cand_.begin(), cand_.end()), cand_.end());
  std::erase_if(cand_, [this](Vertex u) { return !needs_processing(u); });
  active_estimate_ = cand_.size();
  scan_mode_ = active_estimate_ >= graph_->num_vertices() / 8;
}

bool BipsProcess::needs_processing(Vertex u) const noexcept {
  const std::uint32_t c = inf_nbrs_[u];
  const bool cur = infected_[u] != 0;
  if (c == 0) return cur;  // forced healthy; needs a flip iff infected now
  const auto d = static_cast<std::uint32_t>(graph_->degree(u));
  if (c == d) return !cur;  // forced infected; needs a flip iff healthy now
  return true;              // undecided
}

void BipsProcess::rebuild_counts_and_list() {
  std::fill(inf_nbrs_.begin(), inf_nbrs_.end(), 0u);
  const std::size_t n = graph_->num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (!infected_[v]) continue;
    for (const Vertex u : graph_->neighbors(v)) ++inf_nbrs_[u];
  }
  cand_.clear();
  for (Vertex u = 0; u < n; ++u) {
    if (!is_source_[u] && needs_processing(u)) cand_.push_back(u);
  }
}

std::size_t BipsProcess::step(Rng& rng) {
  const std::size_t n = graph_->num_vertices();
  const auto marker = static_cast<std::uint32_t>(round_) + 1;
  const Branching& branching = options_.branching;
  const bool fractional = branching.is_fractional();
  BernoulliSkipper extra(fractional ? branching.rho : 0.0);
  flips_.clear();
  newly_.clear();

  // Width-adaptive offsets: see the matching comment in cobra.cpp.
  const std::uint32_t* off32 = graph_->offsets32().data();
  const std::uint64_t* off64 = graph_->offsets64().data();
  const bool wide = graph_->offsets_are_wide();
  const Vertex* adjacency = graph_->adjacency().data();
  const int regular = graph_->regularity();
  const char* infected = infected_.data();
  std::uint64_t peak = probes_peak_vertex_;

  const bool weighted = options_.weighted;
  const GraphAliasTables* alias = alias_;

  const auto neighbor_block = [&](Vertex u, std::uint32_t& degree,
                                  std::size_t& begin) {
    if (regular >= 0) {
      degree = static_cast<std::uint32_t>(regular);
      begin = static_cast<std::size_t>(u) * degree;
      return adjacency + begin;
    }
    begin = wide ? off64[u] : off32[u];
    const std::size_t end = wide ? off64[u + 1] : off32[u + 1];
    degree = static_cast<std::uint32_t>(end - begin);
    return adjacency + begin;
  };

  // One neighbour index: uniform Lemire draw (the historical stream), or
  // the one shared alias-draw sequence when weighted.
  const auto draw_index = [&](std::size_t begin, std::uint32_t degree) {
    return weighted ? alias->draw_index(begin, degree, rng)
                    : rng.next_below32(degree);
  };

  // Draws neighbours of u until the first infected hit (the early exit is
  // distribution-preserving: the omitted draws are independent and
  // influence nothing but this indicator). In fractional mode the extra
  // draw exists with probability rho, asked only when the first draw
  // misses (conditionally identical).
  const auto sample = [&](std::uint32_t degree, const Vertex* nbrs,
                          std::size_t begin) -> bool {
    std::uint64_t drawn = 1;
    bool hit = infected[nbrs[draw_index(begin, degree)]] != 0;
    if (fractional) {
      if (!hit && extra.next(rng)) {
        drawn = 2;
        hit = infected[nbrs[draw_index(begin, degree)]] != 0;
      }
    } else {
      for (unsigned i = 1; i < branching.k && !hit; ++i) {
        ++drawn;
        hit = infected[nbrs[draw_index(begin, degree)]] != 0;
      }
    }
    probes_total_ += drawn;
    if (drawn > peak) peak = drawn;
    return hit;
  };

  if (scan_mode_) {
    // Plain pass over every vertex with double-buffered state writes —
    // byte-for-byte the baseline loop. While the boundary is a large
    // fraction of n this is cheaper than maintaining counts and lists.
    char* next_state = next_infected_.data();
    std::size_t count = 0;
    std::size_t changed = 0;
    for (Vertex u = 0; u < n; ++u) {
      if (is_source_[u]) {
        next_state[u] = 1;
        ++count;
        continue;
      }
      std::uint32_t degree;
      std::size_t begin;
      const Vertex* nbrs = neighbor_block(u, degree, begin);
      const char hit = sample(degree, nbrs, begin) ? 1 : 0;
      next_state[u] = hit;
      count += hit;
      changed += (hit != infected[u]);
    }
    infected_.swap(next_infected_);
    infected_count_ = count;
    active_estimate_ = n - sources_.size();
    // Tail transition: nearly saturated and quiet. Rebuilding the counts
    // costs one O(m) sweep, rationed per trial; if the rebuilt boundary
    // turns out structurally large (complete-graph-like), go straight
    // back to scanning and stop trying.
    const std::size_t healthy = n - infected_count_;
    if (rebuilds_left_ > 0 && healthy * 16 < n && changed * 16 < n) {
      --rebuilds_left_;
      rebuild_counts_and_list();
      if (cand_.size() >= n / 8) {
        rebuilds_left_ = 0;  // boundary stays wide; scanning is optimal
      } else {
        scan_mode_ = false;
        active_estimate_ = cand_.size();
      }
    }
  } else {
    // List mode: evaluate exactly the undecided / flip-due vertices, in
    // ascending order. Vertices with forced outcomes draw nothing — the
    // skip is distribution-preserving, like the early exit.
    next_cand_.clear();
    for (const Vertex u : cand_) {
      const std::uint32_t c = inf_nbrs_[u];
      const bool cur = infected[u] != 0;
      if (c == 0) {
        if (cur) flips_.push_back(u);  // forced recovery
        continue;                      // stably healthy: drops off the list
      }
      std::uint32_t degree;
      std::size_t begin;
      const Vertex* nbrs = neighbor_block(u, degree, begin);
      if (c == degree) {
        if (!cur) flips_.push_back(u);  // forced infection
        continue;                       // stably infected: drops off the list
      }
      // Undecided vertices stay on the list.
      cand_mark_[u] = marker;
      next_cand_.push_back(u);
      if (sample(degree, nbrs, begin) != cur) flips_.push_back(u);
    }
    for (const Vertex v : flips_) {
      infected_[v] ^= 1;
      if (infected_[v]) {
        ++infected_count_;
      } else {
        --infected_count_;
      }
    }
    // Propagate flips into neighbour counts and recruit every neighbour of
    // a flipped vertex: its classification may have changed. Recruits are
    // not pre-filtered — evaluating a stably-forced vertex next round is a
    // few loads and drops it from the list, cheaper than classifying here.
    for (const Vertex v : flips_) {
      const bool now = infected_[v] != 0;
      for (const Vertex u : graph_->neighbors(v)) {
        if (now) {
          ++inf_nbrs_[u];
        } else {
          --inf_nbrs_[u];
        }
        if (cand_mark_[u] != marker && !is_source_[u]) {
          cand_mark_[u] = marker;
          newly_.push_back(u);
        }
      }
    }
    // The retained prefix is ascending (evaluation order); merge the
    // sorted recruits to keep the whole list ascending for determinism.
    // Merged through a pre-reserved scratch vector: std::inplace_merge
    // would heap-allocate its temporary buffer every round, breaking the
    // zero-allocation steady state bench/micro_process asserts.
    if (!newly_.empty()) {
      std::sort(newly_.begin(), newly_.end());
      merge_buf_.clear();
      std::merge(next_cand_.begin(), next_cand_.end(), newly_.begin(),
                 newly_.end(), std::back_inserter(merge_buf_));
      next_cand_.swap(merge_buf_);
    }
    cand_.swap(next_cand_);
    active_estimate_ = cand_.size();
    // Hysteresis: leave list mode only once the boundary is a large
    // fraction of n (the counts go stale; a later tail transition
    // rebuilds them).
    if (active_estimate_ >= n / 8) scan_mode_ = true;
  }

  probes_peak_vertex_ = peak;
  ++round_;
  return infected_count_;
}

void BipsProcess::step_faulty(Rng& rng) {
  FaultSession& fs = *faults();
  const std::size_t n = graph_->num_vertices();
  const Branching& branching = options_.branching;
  const bool fractional = branching.is_fractional();
  char* next_state = next_infected_.data();
  std::uint64_t peak = probes_peak_vertex_;
  std::size_t count = 0;
  for (Vertex u = 0; u < n; ++u) {
    if (is_source_[u]) {
      next_state[u] = 1;
      ++count;
      continue;
    }
    // A probe is a request/response pair: a down vertex takes no part in
    // the round, and an asleep one cannot hear the responses — in both
    // cases u's state is frozen (delay, never corrupt).
    if (!fs.can_receive(u)) {
      next_state[u] = infected_[u];
      count += next_state[u] != 0;
      continue;
    }
    const auto degree = static_cast<std::uint32_t>(graph_->degree(u));
    const unsigned draws =
        fractional ? 1u + (rng.bernoulli(branching.rho) ? 1u : 0u)
                   : branching.k;
    const FaultSession::Sender sender = fs.sender(u);
    bool any_delivered = false;
    char hit = 0;
    for (unsigned i = 0; i < draws; ++i) {
      const Vertex w = options_.weighted
                           ? alias_->draw(*graph_, u, rng)
                           : graph_->neighbor(u, rng.next_below32(degree));
      if (fs.transmit(sender, i, w)) {
        any_delivered = true;
        if (infected_[w]) hit = 1;
      }
    }
    probes_total_ += draws;
    if (draws > peak) peak = draws;
    // All probes lost/blocked: state frozen. Otherwise the delivered
    // responses decide as usual.
    next_state[u] = any_delivered ? hit : infected_[u];
    count += next_state[u] != 0;
  }
  infected_.swap(next_infected_);
  infected_count_ = count;
  active_estimate_ = n - sources_.size();
  // The list-mode counts are stale after a fault round; force scan mode
  // (reset() rebuilds everything for the next trial anyway).
  scan_mode_ = true;
  probes_peak_vertex_ = peak;
  ++round_;
}

bool bips_membership_after(const Graph& g, Vertex source, Vertex probe,
                           std::size_t t, BipsOptions options, Rng& rng) {
  options.record_curve = false;
  BipsProcess process(g, source, options);
  for (std::size_t i = 0; i < t; ++i) process.step(rng);
  return process.is_infected(probe);
}

}  // namespace cobra
