// SPDX-License-Identifier: MIT
#include "sim/trial_runner.hpp"

#include <algorithm>

#include "sim/batched.hpp"

namespace cobra {

std::vector<SpreadResult> run_process_trials(
    const TrialOptions& options,
    const std::function<std::unique_ptr<Process>()>& make_process,
    std::span<const Vertex> starts, ThreadPool* pool, std::size_t batch) {
  std::vector<SpreadResult> results(options.trials);
  if (options.trials == 0) return results;
  // Probe once: an unsupported process, fault model or batch runs scalar.
  if (batch < 2 || make_batched_engine(*make_process(), batch) == nullptr) {
    batch = 1;
  }
  // One task per trial (scalar) or per block of `batch` trials (lockstep);
  // each writes only its own result slots.
  const auto make_body = [&]() -> std::function<void(std::size_t)> {
    if (batch == 1) {
      std::shared_ptr<Process> process = make_process();
      return [&, process](std::size_t i) {
        const std::size_t t = options.first + i;
        results[i] = process->run(Rng::for_trial(options.base_seed, t),
                                  starts[t % starts.size()]);
      };
    }
    std::shared_ptr<BatchedEngine> engine =
        make_batched_engine(*make_process(), batch);
    return [&, engine](std::size_t block) {
      const std::size_t i = block * batch;
      engine->run_block(options.base_seed, options.first + i,
                        std::min(batch, options.trials - i), starts,
                        results.data() + i);
    };
  };
  const std::size_t tasks = (options.trials + batch - 1) / batch;
  if (pool != nullptr) {
    pool->parallel_for_stateful(tasks, make_body);
  } else {
    const auto body = make_body();
    for (std::size_t task = 0; task < tasks; ++task) body(task);
  }
  return results;
}

}  // namespace cobra
