#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hadas::exec {

/// Snapshot of an EvalCache's counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t size = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Memo table keyed by a 64-bit hash: one mutex over one unbounded map.
/// Deduplicates repeated deterministic evaluations — cost-model analyses,
/// S(b), inner-engine D(x, f | b) metrics, exit banks — within and across
/// search runs (warm starts). A table holds at most one entry per distinct
/// candidate of the search that owns it.
///
/// Concurrency contract: every method is thread-safe. `get_or_compute`
/// runs the compute function OUTSIDE the lock, so distinct keys compute
/// concurrently and two threads racing on the same key may both compute;
/// the first insert wins, so values must come from a pure deterministic
/// function of the key — which is exactly what makes cached and uncached
/// runs bit-identical.
template <typename Value>
class EvalCache {
 public:
  EvalCache() = default;
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// The cached value for `key`, computing and inserting it on a miss.
  /// `compute` must be a pure deterministic function of the key. Entries
  /// are never removed, so the reference stays valid for the cache's
  /// lifetime.
  template <typename Fn>
  const Value& get_or_compute(std::uint64_t key, Fn&& compute) {
    {
      std::scoped_lock lock(mutex_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        ++hits_;
        return it->second;
      }
      ++misses_;
    }
    Value value = compute();  // outside the lock: computes run concurrently
    std::scoped_lock lock(mutex_);
    return map_.try_emplace(key, std::move(value)).first->second;
  }

  CacheStats stats() const {
    std::scoped_lock lock(mutex_);
    return {hits_, misses_, map_.size()};
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Value> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hadas::exec
