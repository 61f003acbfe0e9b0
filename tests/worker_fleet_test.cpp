// Tests for runtime::WorkerFleet, the replay's one pool of persistent
// threads: every item of a round runs exactly once, item 0 runs on the
// owner, idle work handed to the fleet is finished before it is destroyed, a
// body's exception reaches the caller after the round and leaves the fleet
// usable, and parked workers are woken and joined on destruction.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>

#include "runtime/worker_fleet.hpp"

namespace fenix::runtime {
namespace {

bool no_idle_work(std::size_t) { return false; }

TEST(WorkerFleet, RunsEveryItemExactlyOncePerRound) {
  constexpr std::size_t kMaxItems = 8;
  for (std::size_t threads : {1, 2, 4, 8}) {
    WorkerFleet fleet(threads, no_idle_work);
    std::array<std::atomic<int>, kMaxItems> hits{};
    for (int round = 0; round < 10000; ++round) {
      const std::size_t n = 1 + static_cast<std::size_t>(round) % kMaxItems;
      fleet.run(n, [&](std::size_t i) { hits[i].fetch_add(1); },
                [] { return false; });
      for (std::size_t i = 0; i < kMaxItems; ++i) {
        ASSERT_EQ(hits[i].exchange(0), i < n ? 1 : 0)
            << "threads " << threads << " round " << round << " item " << i;
      }
    }
  }
}

TEST(WorkerFleet, ItemZeroRunsOnTheOwner) {
  // Back-to-back rounds keep the workers spinning, ready to claim the moment
  // a round is published: were item 0 up for grabs, they would win many of
  // the one-item rounds (a pipes-1 replay's epochs).
  const std::thread::id owner = std::this_thread::get_id();
  for (std::size_t threads : {1, 4}) {
    WorkerFleet fleet(threads, no_idle_work);
    int elsewhere = 0;
    for (int round = 0; round < 10000; ++round) {
      const std::size_t n = 1 + static_cast<std::size_t>(round) % 4;
      std::thread::id ran;
      fleet.run(n,
                [&](std::size_t i) {
                  if (i == 0) ran = std::this_thread::get_id();
                },
                [] { return false; });
      elsewhere += ran != owner ? 1 : 0;
    }
    EXPECT_EQ(elsewhere, 0) << "threads " << threads;
  }
}

TEST(WorkerFleet, IdleWorkSubmittedBetweenRoundsFinishesBeforeDestruction) {
  for (std::size_t threads : {1, 4}) {
    std::atomic<int> queued{0};
    std::atomic<int> finished{0};
    {
      WorkerFleet fleet(threads, [&](std::size_t) {
        int q = queued.load();
        while (q > 0 && !queued.compare_exchange_weak(q, q - 1)) {
        }
        if (q <= 0) return false;
        finished.fetch_add(1);
        return true;
      });
      fleet.run(4, [](std::size_t) {}, [] { return false; });
      queued.store(1000);
      fleet.notify();
    }
    EXPECT_EQ(queued.load(), 0) << "threads " << threads;
    EXPECT_EQ(finished.load(), 1000) << "threads " << threads;
  }
}

TEST(WorkerFleet, RunRethrowsFirstBodyExceptionAfterTheRound) {
  WorkerFleet fleet(4, no_idle_work);
  std::atomic<int> completed{0};
  const auto body = [&](std::size_t i) {
    if (i == 3) throw std::runtime_error("item 3");
    completed.fetch_add(1);
  };
  EXPECT_THROW(fleet.run(16, body, [] { return false; }), std::runtime_error);
  // Every other item of the round ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 15);
  // The error does not stick: the next round runs and returns normally.
  completed.store(0);
  fleet.run(16, [&](std::size_t) { completed.fetch_add(1); },
            [] { return false; });
  EXPECT_EQ(completed.load(), 16);
}

TEST(WorkerFleet, DestroyingParkedWorkersJoinsThem) {
  for (int rounds : {0, 1}) {
    WorkerFleet fleet(8, no_idle_work);
    for (int r = 0; r < rounds; ++r) {
      fleet.run(8, [](std::size_t) {}, [] { return false; });
    }
    // Long past the spin phase: every worker is parked on the signal word.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  SUCCEED();
}

}  // namespace
}  // namespace fenix::runtime
