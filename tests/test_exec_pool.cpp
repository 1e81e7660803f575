#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/dispatcher.hpp"
#include "exec/eval_cache.hpp"
#include "exec/thread_pool.hpp"

namespace hadas {
namespace {

TEST(ThreadPool, InlineModeHasNoWorkers) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // inline mode: iterations run on the caller
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, LifecycleRepeatedConstructDestroy) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> ran{0};
    {
      exec::ThreadPool pool(3);
      for (int i = 0; i < 10; ++i)
        pool.parallel_for(4, [&ran](std::size_t) { ran.fetch_add(1); });
    }  // destructor drains and joins
    EXPECT_EQ(ran.load(), 40);
  }
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  // parallel_for may return while helper tasks it queued are still pending
  // (the caller claimed every iteration first); the destructor must drain
  // them without touching the finished call's state.
  std::atomic<int> ran{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.parallel_for(2, [&ran](std::size_t) { ran.fetch_add(1); });
  }  // join: every iteration ran exactly once
  EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  exec::ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // Remaining iterations still ran to completion.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  for (std::size_t threads : {2u, 4u}) {
    exec::ThreadPool pool(threads);
    std::atomic<int> inner_runs{0};
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(8, [&](std::size_t) { inner_runs.fetch_add(1); });
    });
    EXPECT_EQ(inner_runs.load(), 32);
  }
}

TEST(Dispatcher, MapReturnsResultsInIndexOrder) {
  exec::ParallelDispatcher dispatcher({/*threads=*/4});
  const auto out = dispatcher.map(
      100, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(Dispatcher, SerialFallbackMatchesParallel) {
  exec::ParallelDispatcher serial({/*threads=*/1});
  exec::ParallelDispatcher parallel({/*threads=*/4});
  EXPECT_TRUE(serial.serial());
  EXPECT_FALSE(parallel.serial());
  auto fn = [](std::size_t i) { return static_cast<double>(i) * 0.5 + 1.0; };
  EXPECT_EQ(serial.map(37, fn), parallel.map(37, fn));
}

TEST(Dispatcher, HadasThreadsEnvOverridesConfig) {
  ASSERT_EQ(setenv("HADAS_THREADS", "1", /*overwrite=*/1), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8}), 1u);
  ASSERT_EQ(setenv("HADAS_THREADS", "3", 1), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8}), 3u);
  for (const char* rejected : {"not-a-number", "-1", "+3", " 4"}) {
    ASSERT_EQ(setenv("HADAS_THREADS", rejected, 1), 0);
    EXPECT_EQ(exec::resolve_threads({/*threads=*/8}), 8u)  // ignored
        << "HADAS_THREADS=\"" << rejected << '"';
  }
  ASSERT_EQ(unsetenv("HADAS_THREADS"), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8}), 8u);
  EXPECT_GE(exec::resolve_threads({/*threads=*/0}), 1u);  // auto
}

TEST(Dispatcher, TaskRngDeterministicInSeedAndIndex) {
  auto a = exec::ParallelDispatcher::task_rng(42, 7);
  auto b = exec::ParallelDispatcher::task_rng(42, 7);
  auto c = exec::ParallelDispatcher::task_rng(42, 8);
  auto d = exec::ParallelDispatcher::task_rng(43, 7);
  const std::uint64_t va = a.next_u64();
  EXPECT_EQ(va, b.next_u64());   // same (seed, index) -> same stream
  EXPECT_NE(va, c.next_u64());   // different index -> different stream
  EXPECT_NE(va, d.next_u64());   // different seed -> different stream
}

TEST(EvalCache, MemoizesAndCountsHits) {
  exec::EvalCache<int> cache;
  std::atomic<int> computes{0};
  auto compute = [&] {
    computes.fetch_add(1);
    return 11;
  };
  EXPECT_EQ(cache.get_or_compute(5, compute), 11);
  EXPECT_EQ(cache.get_or_compute(5, compute), 11);
  EXPECT_EQ(computes.load(), 1);
  const exec::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(EvalCache, ReferencesStayValidAsTheTableGrows) {
  exec::EvalCache<std::size_t> cache;
  const std::size_t& first =
      cache.get_or_compute(0, [] { return std::size_t{7}; });
  for (std::size_t k = 1; k < 2000; ++k)  // many rehashes
    cache.get_or_compute(k, [k] { return k * 2; });
  EXPECT_EQ(first, 7u);
  EXPECT_EQ(&cache.get_or_compute(0, [] { return std::size_t{0}; }), &first);
  EXPECT_EQ(cache.stats().size, 2000u);
}

TEST(EvalCache, ConcurrentMixedKeysAreConsistent) {
  exec::EvalCache<std::size_t> cache;
  exec::ThreadPool pool(4);
  std::atomic<bool> wrong{false};
  pool.parallel_for(2000, [&](std::size_t i) {
    const std::uint64_t key = i % 64;
    const std::size_t value =
        cache.get_or_compute(key, [key] { return key * 7; });
    if (value != key * 7) wrong.store(true);
  });
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(cache.stats().size, 64u);
}

}  // namespace
}  // namespace hadas
