// SPDX-License-Identifier: MIT
//
// Simulation harness tests: thread pool correctness, trial-runner
// determinism (serial == pooled), and the sweep measurement helpers.
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"
#include "sim/trial_runner.hpp"

namespace cobra {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor drains the queue before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, IdlePoolDestructsPromptly) {
  { ThreadPool pool(2); }  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SizeReflectsConstruction) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPoolTest, NestedParallelForOnTheSamePool) {
  // An outer parallel_for whose every task runs an inner parallel_for on
  // the same pool: the shape of a campaign (jobs) running a job's trials.
  // Each inner call must wait only for its own range, never for the
  // enclosing task, and every (i, j) must be visited exactly once.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 1000;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallel_for(kOuter, [&](std::size_t i) {
      pool.parallel_for(kInner, [&](std::size_t j) {
        hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
      });
    });
    for (std::size_t k = 0; k < hits.size(); ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "threads=" << threads << " k=" << k;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsOnTheCaller) {
  // A throwing index must not end the program on a worker: the first
  // exception reaches the caller once the started helpers have returned.
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(500,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

// Trial results through run_process_trials on a scalar process.
std::vector<SpreadResult> cobra_trials(const Graph& g,
                                       const TrialOptions& options,
                                       ThreadPool* pool) {
  const std::vector<Vertex> starts = {0, 3, 5};
  return run_process_trials(
      options, [&] { return std::make_unique<CobraProcess>(g, 0); }, starts,
      pool);
}

TEST(TrialRunner, SerialEqualsParallel) {
  const Graph g = gen::petersen();
  TrialOptions options;
  options.trials = 64;
  ThreadPool pool(4);
  EXPECT_EQ(cobra_trials(g, options, nullptr),
            cobra_trials(g, options, &pool));
}

TEST(TrialRunner, BaseSeedChangesResults) {
  const Graph g = gen::cycle(64);
  TrialOptions opt1;
  opt1.trials = 16;
  opt1.base_seed = 1;
  TrialOptions opt2 = opt1;
  opt2.base_seed = 2;
  EXPECT_NE(cobra_trials(g, opt1, nullptr), cobra_trials(g, opt2, nullptr));
}

TEST(TrialRunner, ResultsAreTrialOrdered) {
  // Result k is trial first + k: a call starting at trial 10 reproduces the
  // tail of a call starting at 0, on the calling thread or on a pool.
  const Graph g = gen::cycle(64);
  TrialOptions all;
  all.trials = 32;
  TrialOptions tail = all;
  tail.first = 10;
  tail.trials = 22;
  ThreadPool pool(4);
  const auto expected = cobra_trials(g, all, nullptr);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto results = cobra_trials(g, tail, p);
    ASSERT_EQ(results.size(), 22u);
    for (std::size_t k = 0; k < results.size(); ++k) {
      EXPECT_EQ(results[k], expected[10 + k]) << "k=" << k;
    }
  }
}

TEST(Sweep, MeasureCobraCompletesOnExpander) {
  const Graph g = gen::complete(64);
  TrialOptions trials;
  trials.trials = 20;
  const auto m = measure_cobra(g, {}, trials);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.rounds.count, 20u);
  EXPECT_GT(m.rounds.mean, 0.0);
  EXPECT_GT(m.transmissions.mean, 0.0);
}

TEST(Sweep, MeasureBipsCompletes) {
  const Graph g = gen::complete(64);
  TrialOptions trials;
  trials.trials = 20;
  const auto m = measure_bips(g, {}, trials);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.rounds.count, 20u);
}

TEST(Sweep, FailedTrialsAreCounted) {
  const Graph g = gen::cycle(200);
  CobraOptions options;
  options.max_rounds = 2;  // cannot cover a 200-cycle in 2 rounds
  TrialOptions trials;
  trials.trials = 10;
  const auto m = measure_cobra(g, options, trials);
  EXPECT_EQ(m.failed, 10u);
  EXPECT_EQ(m.rounds.count, 0u);
}

TEST(Sweep, DeterministicAcrossCalls) {
  const Graph g = gen::petersen();
  TrialOptions trials;
  trials.trials = 25;
  const auto a = measure_cobra(g, {}, trials);
  const auto b = measure_cobra(g, {}, trials);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

}  // namespace
}  // namespace cobra
