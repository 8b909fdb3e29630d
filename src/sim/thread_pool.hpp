// SPDX-License-Identifier: MIT
//
// Fixed-size thread pool shared by a whole run: run_campaign (and each
// fabric worker) owns one, and both levels of work — jobs, and the
// trials inside a job — are parallel_for calls on it. parallel_for
// dispatches an index range via chunked atomic-counter work claiming:
// helper tasks (and the calling thread) fetch_add a per-call cursor to
// claim chunks, so per-index dispatch costs one relaxed atomic per chunk
// instead of a mutex-guarded deque round-trip per task. Completion is per
// call, so parallel_for may be called from inside a task of the same
// pool: the caller waits only for helpers that actually started on its
// range, never for queued ones or for unrelated tasks. Determinism note:
// the trial runner seeds each trial from its *index*, so results are
// identical whatever thread executes it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace cobra {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw — exceptions would cross thread
  /// boundaries; wrap fallible work and capture errors in the closure.
  /// There is no pool-wide wait (a task waiting for the whole pool would
  /// wait for itself): completion is per parallel_for call, and the
  /// destructor drains whatever is still queued.
  void submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count) across the pool and waits for this
  /// range only. The calling thread participates in the work claiming, and
  /// may itself be a task of this pool. If fn throws, the remaining
  /// indices are abandoned and the first exception is rethrown here once
  /// every started helper has returned.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Per-worker-state variant: every participating thread (helpers and the
  /// caller) that claims at least one chunk invokes make_body() exactly
  /// once — from its own thread, so make_body must be thread-safe — and
  /// then runs the returned body for each index it claims. This is how
  /// trial loops get one reusable workspace per thread instead of one per
  /// trial. Exceptions behave as in parallel_for.
  void parallel_for_stateful(
      std::size_t count,
      const std::function<std::function<void(std::size_t)>()>& make_body);

  /// Per-participant counters sampled by the live progress reporter.
  /// Slot 0 is the calling thread, slot i+1 is worker i.
  struct WorkerTelemetry {
    std::uint64_t tasks = 0;   ///< queue pops (always 0 for the caller)
    std::uint64_t chunks = 0;  ///< parallel_for chunks claimed
    double busy_seconds = 0;   ///< time spent inside chunk bodies
    double queue_wait_seconds = 0;  ///< submit-to-pop latency, summed
  };

  /// Turns on per-participant counters. Call before dispatching work; the
  /// off path stays free of clock reads. Cells are single-writer relaxed
  /// atomics (obs/metrics.hpp), so sampling mid-run is race-free.
  void enable_telemetry();

  /// Snapshot of the per-participant counters; empty when telemetry is
  /// off. Safe to call while work is in flight.
  std::vector<WorkerTelemetry> telemetry() const;

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued{};
  };
  struct TelemetrySlot {
    obs::RelaxedCell tasks;
    obs::RelaxedCell chunks;
    obs::RelaxedCell busy_ns;
    obs::RelaxedCell queue_wait_ns;
  };

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
  /// Empty = telemetry off; else size() + 1 slots (caller + workers).
  /// unique_ptr keeps cell addresses stable and slots cache-line apart.
  std::vector<std::unique_ptr<TelemetrySlot>> slots_;
};

}  // namespace cobra
