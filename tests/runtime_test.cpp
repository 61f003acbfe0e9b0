// Tests for the host-side execution runtime: ThreadPool task draining and
// exception propagation, parallel_for coverage, and the SweepRunner
// determinism contract (bit-identical results at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "runtime/sweep_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/random.hpp"

namespace fenix::runtime {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { ++counter; });
  pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 3);
  pool.wait();  // no pending work: returns immediately
}

TEST(ThreadPool, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&completed] { ++completed; });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The remaining tasks still ran to completion.
  EXPECT_EQ(completed.load(), 10);
  // The error does not stick to the pool after being observed.
  pool.submit([&completed] { ++completed; });
  pool.wait();
  EXPECT_EQ(completed.load(), 11);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  // FENIX_THREADS is documented as the runtime's thread knob; an explicit
  // constructor argument must still win over any environment setting.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

// ----------------------------------------------------------- SweepRunner

/// A deterministic-but-chaotic job: all randomness derives from the index,
/// per the SweepRunner contract, so any schedule must produce these bits.
std::uint64_t indexed_job(std::size_t i) {
  sim::RandomStream rng(0x5eed0000 + i);
  std::uint64_t acc = 0;
  const int steps = 100 + static_cast<int>(i % 7) * 50;
  for (int s = 0; s < steps; ++s) {
    acc = acc * 31 + rng.uniform_int(1 << 20);
  }
  return acc;
}

TEST(SweepRunner, ResultsAreBitIdenticalAtAnyThreadCount) {
  constexpr std::size_t kJobs = 40;
  const auto serial = SweepRunner(1).run(kJobs, indexed_job);
  ASSERT_EQ(serial.size(), kJobs);
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = SweepRunner(threads).run(kJobs, indexed_job);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(SweepRunner, ResultsArriveInIndexOrder) {
  SweepRunner runner(4);
  const auto results =
      runner.run(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i], i * i);
  }
}

TEST(SweepRunner, SupportsNonDefaultConstructibleResults) {
  struct Report {
    explicit Report(std::size_t v) : value(v) {}
    std::size_t value;
  };
  SweepRunner runner(2);
  const auto results = runner.run(10, [](std::size_t i) { return Report(i + 1); });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].value, i + 1);
  }
}

TEST(SweepRunner, RunTasksExecutesHeterogeneousBatch) {
  SweepRunner runner(3);
  int a = 0;
  double b = 0.0;
  std::vector<int> c;
  runner.run_tasks({
      [&a] { a = 7; },
      [&b] { b = 2.5; },
      [&c] { c.assign({1, 2, 3}); },
  });
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 2.5);
  EXPECT_EQ(c, (std::vector<int>{1, 2, 3}));
}

TEST(SweepRunner, RunRethrowsJobException) {
  SweepRunner runner(2);
  EXPECT_THROW(runner.run(8,
                          [](std::size_t i) -> int {
                            if (i == 3) throw std::runtime_error("job 3");
                            return static_cast<int>(i);
                          }),
               std::runtime_error);
}

}  // namespace
}  // namespace fenix::runtime
