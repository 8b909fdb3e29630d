// SPDX-License-Identifier: MIT
#include "protocols/push.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cobra {

PushProcess::PushProcess(const Graph& g, PushOptions options)
    : graph_(&g),
      options_(options),
      informed_(g.num_vertices(), 0) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("PushProcess requires a non-empty graph");
  }
  if (options_.weighted) {
    if (!g.is_weighted()) {
      throw std::invalid_argument(
          "PushProcess weighted=true requires a weighted graph");
    }
    alias_ = &g.alias_tables();
  }
  informed_list_.reserve(g.num_vertices());
  new_informed_.reserve(g.num_vertices());
}

void PushProcess::do_reset(std::span<const Vertex> starts) {
  if (starts.size() != 1) {
    throw std::invalid_argument("push is a single-start process");
  }
  const Vertex start = starts.front();
  if (start >= graph_->num_vertices()) {
    throw std::invalid_argument("push start out of range");
  }
  // Only the start needs an edge: every later sender was informed across
  // an edge, so its degree is >= 1. Isolated vertices elsewhere simply
  // stay uninformed (the trial reports completed = false).
  if (graph_->degree(start) == 0) {
    throw std::invalid_argument("push start must have degree >= 1");
  }
  std::fill(informed_.begin(), informed_.end(), char{0});
  informed_list_.clear();
  new_informed_.clear();
  informed_[start] = 1;
  informed_list_.push_back(start);
  round_ = 0;
  transmissions_ = 0;
  peak_ = 0;
}

void PushProcess::do_step(Rng& rng) {
  faults() != nullptr ? run_round<true>(rng) : run_round<false>(rng);
}

template <bool kFaulty>
void PushProcess::run_round(Rng& rng) {
  FaultSession* const fs = faults();  // read only when kFaulty
  const Graph& g = *graph_;
  const std::size_t senders = informed_list_.size();
  std::size_t sends = senders;
  new_informed_.clear();
  for (std::size_t i = 0; i < senders; ++i) {
    const Vertex v = informed_list_[i];
    if (kFaulty && !fs->can_send(v)) {  // down: no push this round
      --sends;
      continue;
    }
    const Vertex w =
        alias_ != nullptr
            ? alias_->draw(g, v, rng)
            : g.neighbor(
                  v, rng.next_below32(static_cast<std::uint32_t>(g.degree(v))));
    if (kFaulty && !fs->transmit(fs->sender(v), 0, w)) continue;
    if (!informed_[w]) {
      informed_[w] = 1;
      new_informed_.push_back(w);
    }
  }
  merge_new_informed();
  transmissions_ += sends;
  if (!kFaulty || sends > 0) peak_ = 1;
  ++round_;
}

void PushProcess::merge_new_informed() {
  if (new_informed_.empty()) return;
  std::sort(new_informed_.begin(), new_informed_.end());
  // Backward in-place merge of the round's sorted new informees into the
  // sorted sender list. All entries are distinct (the bitmap gates
  // insertion), and both vectors are reserved to n, so this is
  // allocation-free.
  std::size_t ai = informed_list_.size();
  std::size_t bi = new_informed_.size();
  informed_list_.resize(ai + bi);
  std::size_t oi = informed_list_.size();
  while (bi > 0) {
    if (ai > 0 && informed_list_[ai - 1] > new_informed_[bi - 1]) {
      informed_list_[--oi] = informed_list_[--ai];
    } else {
      informed_list_[--oi] = new_informed_[--bi];
    }
  }
}

}  // namespace cobra
