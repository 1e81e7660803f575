#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"

namespace hadas::exec {

namespace {
/// Task instruments, resolved once (registry lookups take a mutex).
struct PoolMetrics {
  obs::Counter& tasks =
      obs::MetricsRegistry::global().counter("exec.tasks_total");
  obs::Histogram& task_seconds = obs::MetricsRegistry::global().histogram(
      "exec.task_seconds", obs::default_time_bounds());
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

/// Run one queued task, counting it and (only while obs is enabled, to keep
/// the metrics-off path clock-free) timing it. Strictly observe-only: the
/// task's behavior and exception propagation are unchanged.
void run_task_instrumented(const std::function<void()>& task) {
  PoolMetrics& metrics = pool_metrics();
  metrics.tasks.inc();
  if (!obs::enabled()) {
    task();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  task();
  metrics.task_seconds.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

void run_serial_instrumented(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  PoolMetrics& metrics = pool_metrics();
  for (std::size_t i = 0; i < n; ++i) {
    metrics.tasks.inc();
    if (!obs::enabled()) {
      body(i);
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    body(i);
    metrics.task_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode: no workers, no queue consumers
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Inline mode never queues, and workers drain the queue before exiting,
  // so nothing is left behind here.
}

void ThreadPool::post(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  // Registered by the first queued task, so a run that never queues work
  // (one thread) exports no peak at all rather than a 0.
  static obs::Gauge& queue_peak =
      obs::MetricsRegistry::global().gauge("exec.queue_depth_peak");
  queue_peak.track_max(static_cast<double>(depth));
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task_instrumented(task);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    run_serial_instrumented(n, body);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  // Shared so queued runners outliving this call (they find no iteration
  // left and exit) keep a valid state. `body` stays valid because we do not
  // return before done == total.
  auto state = std::make_shared<State>();
  state->total = n;
  state->body = &body;

  auto run_iterations = [state] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->total) break;
      try {
        (*state->body)(i);
      } catch (...) {
        std::scoped_lock lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->total) {
        std::scoped_lock lock(state->mutex);
        state->cv.notify_all();
      }
    }
  };

  // One helper per worker (they no-op if the caller drains everything
  // first); the caller claims iterations too, so a worker that issues a
  // nested parallel_for still makes progress with zero free workers.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i) post(run_iterations);
  run_iterations();

  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace hadas::exec
