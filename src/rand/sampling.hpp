// SPDX-License-Identifier: MIT
//
// Sampling helpers built on Rng: uniform picks from spans, k-subsets,
// shuffles, and permutations. These are used by the graph generators
// (configuration model, Watts-Strogatz) and by the process engines when a
// vertex selects k random neighbours.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "rand/rng.hpp"

namespace cobra {

/// Sequential Bernoulli(p) trials via geometric skipping. The i-th call to
/// next() is distributed exactly as an independent Bernoulli(p) trial, but
/// the cost is one uniform draw per *success* (plus one priming draw),
/// instead of one per trial: between successes the gap is Geometric(p), so
/// failures are skipped arithmetically. The process engines use this for
/// fractional branching, where asking every frontier vertex "do you get an
/// extra push?" one draw at a time dominated the round cost at small rho.
class BernoulliSkipper {
 public:
  explicit BernoulliSkipper(double p) noexcept
      : p_(p),
        inv_log_q_(p > 0.0 && p < 1.0 ? 1.0 / std::log1p(-p) : 0.0) {}

  /// Outcome of the next trial in the sequence.
  bool next(Rng& rng) noexcept {
    if (p_ >= 1.0) return true;
    if (p_ <= 0.0) return false;
    if (!primed_) {
      gap_ = draw_gap(rng);
      primed_ = true;
    }
    if (gap_ == 0) {
      gap_ = draw_gap(rng);
      return true;
    }
    --gap_;
    return false;
  }

 private:
  /// Failures before the next success: floor(log(u) / log(1 - p)), u in
  /// (0, 1]. Saturates instead of overflowing for extreme draws.
  std::uint64_t draw_gap(Rng& rng) noexcept {
    const double u = 1.0 - rng.next_double();
    const double gap = std::floor(std::log(u) * inv_log_q_);
    if (!(gap < 9.0e18)) return ~0ULL;
    return static_cast<std::uint64_t>(gap);
  }

  double p_;
  double inv_log_q_;
  std::uint64_t gap_ = 0;
  bool primed_ = false;
};

/// Uniformly random element of a non-empty span.
template <typename T>
const T& pick(std::span<const T> items, Rng& rng) noexcept {
  return items[static_cast<std::size_t>(rng.next_below(items.size()))];
}

/// In-place Fisher-Yates shuffle.
template <typename T>
void shuffle(std::span<T> items, Rng& rng) noexcept {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

/// Uniformly random permutation of {0, ..., n-1}.
std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng);

/// Floyd's algorithm: k distinct values sampled uniformly from [0, n).
/// Output order is unspecified. Precondition: k <= n.
std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                      std::size_t k, Rng& rng);

/// k values sampled uniformly with replacement from [0, n).
std::vector<std::uint64_t> sample_with_replacement(std::uint64_t n,
                                                   std::size_t k, Rng& rng);

/// Binomial(n, p) sample. Uses direct Bernoulli summation for small n*? and
/// an inversion on the CDF otherwise; exact for all inputs, O(n) worst case
/// but O(np + 1) typical via the waiting-time (geometric skip) method.
std::uint64_t binomial(std::uint64_t n, double p, Rng& rng);

}  // namespace cobra
