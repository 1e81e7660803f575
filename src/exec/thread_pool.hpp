#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hadas::exec {

/// Run `body(i)` for i in [0, n) on the calling thread, feeding the same
/// "exec.tasks_total" / "exec.task_seconds" instruments the pool's workers
/// do. The serial dispatch paths use this so the task counter means "tasks
/// executed" regardless of thread count (the per-task clock is read only
/// while obs::enabled(), like everywhere else).
void run_serial_instrumented(std::size_t n,
                             const std::function<void(std::size_t)>& body);

/// Fixed-size worker pool with a shared FIFO task queue.
///
/// - `parallel_for` blocks until every iteration ran; the calling thread
///   participates in the work, so nested parallel_for calls (a task that
///   itself fans out) cannot deadlock even with a single worker.
/// - The destructor drains the queue, then stops and joins every worker
///   (clean shutdown: no queued task is dropped).
///
/// A pool constructed with 0 or 1 threads runs everything inline on the
/// calling thread — the serial fallback used for debugging.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 = inline execution).
  std::size_t size() const { return workers_.size(); }

  /// Run `body(i)` for every i in [0, n). Iterations are claimed from an
  /// atomic counter by the caller plus up to size() workers; the call
  /// returns once all n ran. The first exception thrown by any iteration is
  /// rethrown here (remaining iterations still run to completion).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void post(std::function<void()> task);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hadas::exec
