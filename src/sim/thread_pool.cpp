// SPDX-License-Identifier: MIT
#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace cobra {

namespace {
// Which pool (if any) owns the current thread, and its telemetry slot.
// Lets run_participant attribute chunk work to the right slot whether it
// runs on a worker (slot index + 1) or on the calling thread (slot 0).
thread_local const ThreadPool* t_owner = nullptr;
thread_local std::size_t t_slot = 0;
// True while this thread runs a timed chunk body.
thread_local bool t_in_chunk = false;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enable_telemetry() {
  if (!slots_.empty()) return;
  slots_.reserve(workers_.size() + 1);
  for (std::size_t i = 0; i < workers_.size() + 1; ++i) {
    slots_.push_back(std::make_unique<TelemetrySlot>());
  }
}

std::vector<ThreadPool::WorkerTelemetry> ThreadPool::telemetry() const {
  std::vector<WorkerTelemetry> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    WorkerTelemetry w;
    w.tasks = slot->tasks.load();
    w.chunks = slot->chunks.load();
    w.busy_seconds = static_cast<double>(slot->busy_ns.load()) * 1e-9;
    w.queue_wait_seconds =
        static_cast<double>(slot->queue_wait_ns.load()) * 1e-9;
    out.push_back(w);
  }
  return out;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    QueuedTask queued;
    queued.fn = std::move(task);
    if (!slots_.empty()) queued.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(queued));
  }
  task_ready_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_stateful(
      count, [&fn]() -> std::function<void(std::size_t)> { return fn; });
}

void ThreadPool::parallel_for_stateful(
    std::size_t count,
    const std::function<std::function<void(std::size_t)>()>& make_body) {
  if (count == 0) return;
  if (count == 1) {
    make_body()(0);
    return;
  }
  // Chunks small enough to balance load (a few per participant) but large
  // enough that the single relaxed fetch_add per chunk is noise.
  const std::size_t participants = size() + 1;  // workers + calling thread
  const std::size_t chunk =
      std::max<std::size_t>(1, count / (participants * 8));
  // Per-call completion state. Helpers hold it by shared_ptr: one that is
  // popped after the caller returned finds `closed` set and does nothing.
  struct Call {
    std::atomic<std::size_t> cursor{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::size_t running = 0;  ///< helpers that joined and have not returned
    bool closed = false;      ///< the caller stopped admitting helpers
    std::exception_ptr error;
  };
  const auto call = std::make_shared<Call>();
  const auto run_participant = [this, &c = *call, &make_body, chunk, count] {
    // Workers of this pool report into their own slot; any other thread
    // (normally the caller) reports into slot 0. A nested call inside a
    // timed chunk is already counted by the enclosing one.
    const std::size_t slot = t_owner == this ? t_slot : 0;
    const bool timed = !slots_.empty() && !t_in_chunk;
    std::function<void(std::size_t)> body;
    try {
      while (true) {
        const std::size_t begin =
            c.cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) break;
        const std::size_t end = std::min(begin + chunk, count);
        if (!body) body = make_body();
        if (timed) {
          const auto start = std::chrono::steady_clock::now();
          t_in_chunk = true;
          for (std::size_t i = begin; i < end; ++i) body(i);
          t_in_chunk = false;
          slots_[slot]->chunks.add(1);
          slots_[slot]->busy_ns.add(elapsed_ns(start));
        } else {
          for (std::size_t i = begin; i < end; ++i) body(i);
        }
      }
    } catch (...) {
      if (timed) t_in_chunk = false;
      c.cursor.store(count, std::memory_order_relaxed);  // abandon the rest
      std::lock_guard lock(c.mutex);
      if (!c.error) c.error = std::current_exception();
    }
  };
  // No point waking more workers than there are chunks to claim.
  const std::size_t helpers =
      std::min(size(), (count + chunk - 1) / chunk);
  for (std::size_t w = 0; w < helpers; ++w) {
    submit([call, run_participant] {
      {
        std::lock_guard lock(call->mutex);
        if (call->closed) return;
        ++call->running;
      }
      run_participant();
      std::lock_guard lock(call->mutex);
      if (--call->running == 0 && call->closed) call->finished.notify_all();
    });
  }
  run_participant();  // the calling thread claims chunks too
  // Every index is claimed; wait only for helpers still inside a chunk.
  std::unique_lock lock(call->mutex);
  call->closed = true;
  call->finished.wait(lock, [&call] { return call->running == 0; });
  if (call->error) std::rethrow_exception(call->error);
}

void ThreadPool::worker_loop(std::size_t index) {
  t_owner = this;
  t_slot = index + 1;
  while (true) {
    QueuedTask task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (!slots_.empty() &&
        task.enqueued != std::chrono::steady_clock::time_point{}) {
      slots_[index + 1]->tasks.add(1);
      slots_[index + 1]->queue_wait_ns.add(elapsed_ns(task.enqueued));
    }
    task.fn();
  }
}

}  // namespace cobra
