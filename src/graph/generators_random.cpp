// SPDX-License-Identifier: MIT
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/stream.hpp"

namespace cobra::gen {

namespace {

/// Canonical 64-bit key of an undirected edge for hash-set membership.
std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Configuration-model pairing of the n*r stubs (stub k belongs to vertex
/// k / r). The buffers are sized once and reused by every attempt of one
/// random_regular call.
class StubPairing {
 public:
  StubPairing(std::size_t n, std::size_t r)
      : r_(r), stubs_(n * r), rows_(n * r), fill_(n) {
    for (std::size_t k = 0; k < stubs_.size(); ++k) {
      stubs_[k] = static_cast<Vertex>(k / r);
    }
  }

  /// Draws a uniformly random perfect matching of the stubs into `edges`
  /// by a partial Fisher-Yates shuffle: the stub at position i pairs with
  /// a uniform stub from positions (i, S). With reject_defects the draw
  /// stops at the first loop or repeated edge and returns false; a repeat
  /// shows as the partner already sitting in the endpoint's row of the
  /// flat n*r neighbour array. Stopping early decides the same accept /
  /// reject outcome a full pairing would, so an accepted matching is
  /// still uniform over the simple ones. Without reject_defects the
  /// matching is completed as drawn (loops and multi-edges included) for
  /// switch repair; it then returns true. A draw starts from the stub
  /// order the previous one left behind: that order is fixed before the
  /// draw's own random choices, so the matching is uniform all the same.
  bool draw(Rng& rng, bool reject_defects,
            std::vector<std::pair<Vertex, Vertex>>& edges) {
    const std::size_t total = stubs_.size();
    if (reject_defects) std::fill(fill_.begin(), fill_.end(), 0);
    edges.clear();
    edges.reserve(total / 2);
    for (std::size_t i = 0; i < total; i += 2) {
      const std::size_t j = i + 1 + rng.next_below(total - i - 1);
      std::swap(stubs_[i + 1], stubs_[j]);
      const Vertex u = stubs_[i];
      const Vertex v = stubs_[i + 1];
      if (reject_defects) {
        if (u == v) return false;
        Vertex* row_u = rows_.data() + static_cast<std::size_t>(u) * r_;
        Vertex* const row_u_end = row_u + fill_[u];
        if (std::find(row_u, row_u_end, v) != row_u_end) return false;
        *row_u_end = v;
        ++fill_[u];
        rows_[static_cast<std::size_t>(v) * r_ + fill_[v]++] = u;
      }
      edges.emplace_back(u, v);
    }
    return true;
  }

 private:
  std::size_t r_;
  std::vector<Vertex> stubs_;       ///< stub -> vertex, shuffled in place
  std::vector<Vertex> rows_;        ///< row v: v's partners placed so far
  std::vector<std::uint32_t> fill_; ///< occupied length of each row
};

/// Degree-preserving switch repair: replaces loops/duplicate edges by
/// swapping endpoints with randomly chosen good edges. Returns false if the
/// repair stalls (caller restarts with a fresh pairing).
bool repair_pairing(std::vector<std::pair<Vertex, Vertex>>& edges, Rng& rng) {
  std::unordered_set<std::uint64_t> good;
  good.reserve(edges.size() * 2);
  std::vector<std::size_t> bad;
  // is_bad marks the edge *slots* that are loops or surplus duplicate
  // copies. A duplicate's canonical key IS in `good` (via its twin), so key
  // membership alone cannot identify a safe swap partner.
  std::vector<char> is_bad(edges.size(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& [u, v] = edges[i];
    if (u == v || !good.insert(edge_key(u, v)).second) {
      bad.push_back(i);
      is_bad[i] = 1;
    }
  }
  std::size_t failures = 0;
  const std::size_t failure_cap = 200 * (bad.size() + 1);
  while (!bad.empty()) {
    if (failures > failure_cap) return false;
    const std::size_t i = bad.back();
    auto [u, v] = edges[i];
    const std::size_t j =
        static_cast<std::size_t>(rng.next_below(edges.size()));
    // Only swap against currently-good slots: a bad slot either is a loop
    // or shares its key with a good twin, and swapping with it would
    // corrupt the key bookkeeping.
    if (j == i || is_bad[j]) {
      ++failures;
      continue;
    }
    auto [a, b] = edges[j];
    if (rng.bernoulli(0.5)) std::swap(a, b);
    const Vertex n1u = u, n1v = a, n2u = v, n2v = b;
    if (n1u == n1v || n2u == n2v) {
      ++failures;
      continue;
    }
    const std::uint64_t k1 = edge_key(n1u, n1v);
    const std::uint64_t k2 = edge_key(n2u, n2v);
    if (k1 == k2 || good.count(k1) != 0 || good.count(k2) != 0) {
      ++failures;
      continue;
    }
    good.erase(edge_key(edges[j].first, edges[j].second));
    edges[i] = {n1u, n1v};
    edges[j] = {n2u, n2v};
    good.insert(k1);
    good.insert(k2);
    is_bad[i] = 0;
    bad.pop_back();
  }
  return true;
}

}  // namespace

Graph random_regular(std::size_t n, std::size_t r, Rng& rng) {
  if (r >= n) throw std::invalid_argument("random_regular requires r < n");
  if ((n * r) % 2 != 0) {
    throw std::invalid_argument("random_regular requires n*r even");
  }
  const std::string name = "random_regular(n=" + std::to_string(n) +
                           ",r=" + std::to_string(r) + ")";
  if (r == 0) return GraphBuilder(n).build(name);
  if (r == n - 1) return complete(n);  // only one (n-1)-regular graph

  // For small r the probability that a pairing is already simple is a
  // constant (about exp(-(r*r-1)/4)), so rejection sampling gives the
  // exactly-uniform distribution cheaply. For larger r we fall back to
  // switch repair after a few failed rejections. The sampler is one
  // sequential stream, so the sample is a pure function of (seed, n, r),
  // independent of thread count.
  StubPairing pairing(n, r);
  std::vector<std::pair<Vertex, Vertex>> edges;
  const int rejection_budget = (r <= 6) ? 256 : 4;
  for (int attempt = 0; attempt < rejection_budget; ++attempt) {
    if (pairing.draw(rng, /*reject_defects=*/true, edges)) {
      return build_simple_edges(n, std::move(edges), name);
    }
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    pairing.draw(rng, /*reject_defects=*/false, edges);
    if (!repair_pairing(edges, rng)) continue;
    return build_simple_edges(n, std::move(edges), name);
  }
  throw std::runtime_error("random_regular: switch repair failed to converge");
}

Graph connected_random_regular(std::size_t n, std::size_t r, Rng& rng,
                               int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = random_regular(n, r, rng);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      "connected_random_regular: no connected sample in " +
      std::to_string(max_attempts) + " attempts (r=" + std::to_string(r) +
      " too small?)");
}

namespace {

/// Inverse of the row-major pair ranking: linear index t (0-based over the
/// C(n,2) pairs ordered by larger endpoint, then smaller) -> {w, v} with
/// w < v. Row v covers indices [v(v-1)/2, v(v+1)/2).
std::pair<Vertex, Vertex> unrank_pair(std::uint64_t t) {
  auto v = static_cast<std::uint64_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(t))) * 0.5);
  // The double sqrt is exact to ~2^52; nudge across any rounding error.
  while (v > 1 && v * (v - 1) / 2 > t) --v;
  while ((v + 1) * v / 2 <= t) ++v;
  return {static_cast<Vertex>(t - v * (v - 1) / 2), static_cast<Vertex>(v)};
}

}  // namespace

EdgeStream erdos_renyi_stream(std::size_t n, double p, Rng& rng) {
  if (!(p >= 0.0 && p <= 1.0)) {  // written so that NaN fails too
    throw std::invalid_argument("erdos_renyi requires p in [0,1]");
  }
  EdgeStream stream;
  stream.name =
      "erdos_renyi(n=" + std::to_string(n) + ",p=" + std::to_string(p) + ")";
  stream.n = n;
  if (n < 2 || p == 0.0) return stream;  // empty, and no RNG draw

  // Geometric skipping (Batagelj-Brandes) over the linear pair-index
  // space, split into deterministic chunks: chunk c runs the skip
  // sequence over its own index subrange with its own RNG stream
  // (Rng::for_trial(master, c)), so the sample is a pure function of
  // (seed, n, p) — independent of thread count and of whether the stream
  // is built in core or scattered to disk. The chunk count depends only
  // on n. p == 1 enumerates every pair. tests/substrate_test.cpp holds
  // the edge count to its exact Binomial(n(n-1)/2, p) law at one and at
  // two chunks.
  const double log_q = p == 1.0 ? 0.0 : std::log1p(-p);
  const auto nn = static_cast<std::uint64_t>(n);
  const std::uint64_t total_pairs = nn * (nn - 1) / 2;
  const std::uint64_t master = rng();
  const std::uint64_t chunks =
      std::min<std::uint64_t>(4096, std::max<std::uint64_t>(1, nn / 4096));
  const std::uint64_t chunk_pairs = (total_pairs + chunks - 1) / chunks;
  stream.count = total_pairs;
  stream.chunk_items = chunk_pairs;
  stream.edges_hint = p == 1.0
                          ? total_pairs
                          : static_cast<std::uint64_t>(
                                p * static_cast<double>(total_pairs));
  if (p == 1.0) {
    stream.emit = [](std::uint64_t begin, std::uint64_t end,
                     std::vector<std::pair<Vertex, Vertex>>& out) {
      for (std::uint64_t t = begin; t < end; ++t) {
        out.push_back(unrank_pair(t));
      }
    };
    return stream;
  }
  stream.emit = [master, log_q, chunk_pairs](
                    std::uint64_t begin, std::uint64_t end,
                    std::vector<std::pair<Vertex, Vertex>>& out) {
    Rng chunk_rng = Rng::for_trial(master, begin / chunk_pairs);
    std::uint64_t t = begin;
    const std::uint64_t stop = end;
    while (true) {
      const double u01 = 1.0 - chunk_rng.next_double();
      const double skip = std::floor(std::log(u01) / log_q);
      if (skip >= static_cast<double>(stop - t)) break;
      t += static_cast<std::uint64_t>(skip);
      out.push_back(unrank_pair(t));
      if (++t >= stop) break;
    }
  };
  return stream;
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  return build_from_stream(erdos_renyi_stream(n, p, rng));
}

Graph watts_strogatz(std::size_t n, std::size_t k, double beta, Rng& rng) {
  if (k % 2 != 0 || k < 2) {
    throw std::invalid_argument("watts_strogatz requires even k >= 2");
  }
  if (k >= n) throw std::invalid_argument("watts_strogatz requires k < n");
  if (beta < 0.0 || beta > 1.0) {
    throw std::invalid_argument("watts_strogatz requires beta in [0,1]");
  }
  std::unordered_set<std::uint64_t> present;
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(n * k / 2);
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t s = 1; s <= k / 2; ++s) {
      const auto w = static_cast<Vertex>((v + s) % n);
      edges.emplace_back(v, w);
      present.insert(edge_key(v, w));
    }
  }
  for (auto& [u, w] : edges) {
    if (!rng.bernoulli(beta)) continue;
    // Rewire the far endpoint; skip if u is already adjacent to everyone.
    for (int tries = 0; tries < 64; ++tries) {
      const auto candidate = static_cast<Vertex>(rng.next_below(n));
      if (candidate == u || candidate == w) continue;
      const std::uint64_t key = edge_key(u, candidate);
      if (present.count(key) != 0) continue;
      present.erase(edge_key(u, w));
      present.insert(key);
      w = candidate;
      break;
    }
  }
  GraphBuilder builder(n);
  for (const auto& [u, w] : edges) builder.add_edge(u, w);
  return builder.build("watts_strogatz(n=" + std::to_string(n) +
                       ",k=" + std::to_string(k) +
                       ",beta=" + std::to_string(beta) + ")");
}

Graph random_geometric(std::size_t n, double radius, Rng& rng) {
  if (radius <= 0.0 || radius >= 0.5) {
    throw std::invalid_argument(
        "random_geometric requires radius in (0, 0.5) (torus metric)");
  }
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.next_double();
    ys[i] = rng.next_double();
  }
  // Bucket the unit torus into cells of side >= radius; only neighbouring
  // cells can contain an edge partner.
  const auto cells =
      std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / radius));
  const double cell_size = 1.0 / static_cast<double>(cells);
  std::vector<std::vector<Vertex>> buckets(cells * cells);
  const auto cell_of = [&](double x, double y) {
    auto cx = static_cast<std::size_t>(x / cell_size);
    auto cy = static_cast<std::size_t>(y / cell_size);
    cx = std::min(cx, cells - 1);
    cy = std::min(cy, cells - 1);
    return cx * cells + cy;
  };
  for (std::size_t i = 0; i < n; ++i) {
    buckets[cell_of(xs[i], ys[i])].push_back(static_cast<Vertex>(i));
  }
  const auto torus_dist2 = [&](std::size_t i, std::size_t j) {
    double dx = std::fabs(xs[i] - xs[j]);
    double dy = std::fabs(ys[i] - ys[j]);
    dx = std::min(dx, 1.0 - dx);
    dy = std::min(dy, 1.0 - dy);
    return dx * dx + dy * dy;
  };
  GraphBuilder builder(n);
  const double r2 = radius * radius;
  for (std::size_t cx = 0; cx < cells; ++cx) {
    for (std::size_t cy = 0; cy < cells; ++cy) {
      const auto& here = buckets[cx * cells + cy];
      // Same-cell pairs.
      for (std::size_t a = 0; a < here.size(); ++a) {
        for (std::size_t b = a + 1; b < here.size(); ++b) {
          if (torus_dist2(here[a], here[b]) <= r2) {
            builder.add_edge(here[a], here[b]);
          }
        }
      }
      // Half of the 8 neighbouring cells (forward wrap) to see each pair
      // of cells exactly once.
      const std::ptrdiff_t offsets[4][2] = {{1, 0}, {0, 1}, {1, 1}, {1, -1}};
      for (const auto& offset : offsets) {
        const std::size_t ox = (cx + static_cast<std::size_t>(
                                         offset[0] + static_cast<std::ptrdiff_t>(cells))) %
                               cells;
        const std::size_t oy = (cy + static_cast<std::size_t>(
                                         offset[1] + static_cast<std::ptrdiff_t>(cells))) %
                               cells;
        if (ox == cx && oy == cy) continue;  // tiny grids wrap onto self
        const auto& there = buckets[ox * cells + oy];
        for (const Vertex a : here) {
          for (const Vertex b : there) {
            if (torus_dist2(a, b) <= r2) builder.add_edge(a, b);
          }
        }
      }
    }
  }
  // Tiny grids (cells <= 2) can queue a cross-cell pair twice via wraps;
  // dedup keeps the generator total.
  return builder.build_dedup("random_geometric(n=" + std::to_string(n) +
                             ",r=" + std::to_string(radius) + ")");
}

Graph barabasi_albert(std::size_t n, std::size_t attach, Rng& rng) {
  if (attach == 0 || n < attach + 1) {
    throw std::invalid_argument("barabasi_albert requires 1 <= attach < n");
  }
  GraphBuilder builder(n);
  // Repeated-endpoint list: vertex v appears deg(v) times; sampling a
  // uniform entry is sampling proportional to degree.
  std::vector<Vertex> endpoints;
  for (Vertex u = 0; u <= attach; ++u) {
    for (Vertex v = u + 1; v <= attach; ++v) {
      builder.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<Vertex> chosen;
  for (Vertex v = static_cast<Vertex>(attach + 1); v < n; ++v) {
    chosen.clear();
    while (chosen.size() < attach) {
      const Vertex candidate = endpoints[static_cast<std::size_t>(
          rng.next_below(endpoints.size()))];
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
        chosen.push_back(candidate);
      }
    }
    for (const Vertex target : chosen) {
      builder.add_edge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return builder.build("barabasi_albert(n=" + std::to_string(n) +
                       ",m=" + std::to_string(attach) + ")");
}

}  // namespace cobra::gen
