// SPDX-License-Identifier: MIT
#include "sim/trial_runner.hpp"

#include <algorithm>

#include "sim/batched.hpp"

namespace cobra {

std::vector<double> run_trials(
    const TrialOptions& options,
    const std::function<double(std::size_t, Rng&)>& fn) {
  return run_trials_collect<double>(options, fn);
}

std::vector<SpreadResult> run_process_trials(
    const TrialOptions& options,
    const std::function<std::unique_ptr<Process>()>& make_process,
    std::span<const Vertex> starts) {
  std::vector<SpreadResult> results(options.trials);
  const auto run_trial = [&](std::size_t i, Process& process) {
    results[i] = process.run(Rng::for_trial(options.base_seed, i),
                             starts[i % starts.size()]);
  };
  if (options.threads == 0) {
    const std::unique_ptr<Process> process = make_process();
    for (std::size_t i = 0; i < options.trials; ++i) run_trial(i, *process);
    return results;
  }
  ThreadPool pool(options.threads);
  pool.parallel_for_stateful(options.trials, [&]() {
    // One workspace per participating thread (shared_ptr keeps the body
    // copyable for std::function).
    auto process = std::shared_ptr<Process>(make_process());
    return [&, process](std::size_t i) { run_trial(i, *process); };
  });
  return results;
}

std::vector<SpreadResult> run_process_trials_batched(
    const TrialOptions& options,
    const std::function<std::unique_ptr<Process>()>& make_process,
    std::span<const Vertex> starts, std::size_t batch) {
  {
    // Probe once: unsupported process / fault model / batch -> scalar.
    const std::unique_ptr<Process> prototype = make_process();
    if (make_batched_engine(*prototype, batch) == nullptr) {
      return run_process_trials(options, make_process, starts);
    }
  }
  std::vector<SpreadResult> results(options.trials);
  const std::size_t blocks = (options.trials + batch - 1) / batch;
  const auto run_block = [&](std::size_t b, BatchedEngine& engine) {
    const std::size_t first = b * batch;
    const std::size_t count = std::min(batch, options.trials - first);
    engine.run_block(options.base_seed, first, count, starts,
                     results.data() + first);
  };
  if (options.threads == 0) {
    const std::unique_ptr<Process> prototype = make_process();
    const auto engine = make_batched_engine(*prototype, batch);
    for (std::size_t b = 0; b < blocks; ++b) run_block(b, *engine);
    return results;
  }
  ThreadPool pool(options.threads);
  pool.parallel_for_stateful(blocks, [&]() {
    // One engine workspace per participating thread (shared_ptr keeps the
    // body copyable for std::function); blocks are independent, so the
    // schedule cannot affect the per-trial results.
    const std::unique_ptr<Process> prototype = make_process();
    auto engine =
        std::shared_ptr<BatchedEngine>(make_batched_engine(*prototype, batch));
    return [&, engine](std::size_t b) { run_block(b, *engine); };
  });
  return results;
}

}  // namespace cobra
