#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace hadas::exec {

/// Execution knobs carried by the engine configurations.
struct ExecConfig {
  /// Worker threads for per-generation static evaluations, concurrent
  /// IOE runs and the exit-head fits of each bank those IOEs train.
  /// 0 = auto (hardware concurrency), 1 = serial (the debugging fallback). The HADAS_THREADS environment variable, when set to a
  /// positive integer, overrides this value.
  std::size_t threads = 0;
};

/// `config.threads` with the 0 = auto rule and the HADAS_THREADS
/// environment override applied.
std::size_t resolve_threads(const ExecConfig& config);

/// Deterministic fan-out helper for the search engines. Tasks are indexed;
/// results are returned in index order, so any reduction over them is
/// independent of the interleaving — the core of the "bit-identical at any
/// thread count" contract. Tasks needing randomness must use
/// `task_rng(seed, index)` (never a generator shared across tasks), which
/// derives an independent stream from (seed, task index) alone.
class ParallelDispatcher {
 public:
  explicit ParallelDispatcher(const ExecConfig& config = {});

  /// Resolved worker count (>= 1).
  std::size_t threads() const { return threads_; }
  bool serial() const { return threads_ <= 1; }

  /// Run `body(i)` for i in [0, n); blocks until all ran. Serial mode (or
  /// n <= 1) executes in index order on the calling thread.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& body) const;

  /// results[i] = fn(i), in index order regardless of thread count. The
  /// result type must be default-constructible and move-assignable.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) const -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "map: vector<bool> is not safe for concurrent writes");
    std::vector<R> results(n);
    for_each(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Independent per-task RNG stream, deterministic in (seed, task_index)
  /// and nothing else — in particular not in scheduling order.
  static util::Rng task_rng(std::uint64_t seed, std::uint64_t task_index) {
    return util::Rng(seed).fork(task_index);
  }

 private:
  std::size_t threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null in serial mode
};

}  // namespace hadas::exec
