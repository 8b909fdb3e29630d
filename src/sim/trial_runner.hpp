// SPDX-License-Identifier: MIT
//
// The trial loop. Campaign jobs, the sweep helpers and the benches all run
// their Monte Carlo trials through run_process_trials, on a pool the
// caller owns (or on the calling thread). Trial t receives
// Rng::for_trial(base_seed, t) and starts at starts[t % starts.size()], so
// each result is a pure function of (base_seed, t): independent of the
// pool, its size, the batch width and workspace reuse (tested in
// tests/sim_test.cpp, tests/engine_test.cpp and tests/batched_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "rand/rng.hpp"
#include "sim/thread_pool.hpp"

namespace cobra {

struct TrialOptions {
  std::size_t trials = 100;
  std::uint64_t base_seed = 0xc0b7a5eedULL;
  /// Index of the first trial: a call runs trials [first, first + trials).
  std::size_t first = 0;
};

/// Runs the trials and returns their results in trial order (result k is
/// trial first + k). Every participating thread builds one Process
/// workspace via make_process (typically a cobra::make_process factory
/// call; it must be thread-safe) and reuses it across its trials, so
/// per-trial heap allocation stays at zero for every registered process.
///
/// `pool` == nullptr runs every trial on the calling thread; otherwise the
/// trials are tasks on `pool`, which may be the pool whose task is calling
/// (parallel_for nests). `batch` >= 2 runs blocks of `batch` trials in
/// lockstep through the batched engine (sim/batched.hpp); when the process
/// or its fault model has none, or `batch` < 2, every trial runs scalar.
/// Results are bitwise-identical for every pool and batch width. An
/// exception in any trial is rethrown here. `starts` must stay alive for
/// the duration of the call.
std::vector<SpreadResult> run_process_trials(
    const TrialOptions& options,
    const std::function<std::unique_ptr<Process>()>& make_process,
    std::span<const Vertex> starts, ThreadPool* pool = nullptr,
    std::size_t batch = 1);

}  // namespace cobra
