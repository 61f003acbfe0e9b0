// runtime::MpscQueue — the lock-free Model Engine fan-in of the
// decentralized replay. Multi-producer stress, per-producer FIFO, the
// drain-on-shutdown pattern the coordinator runs at epoch barriers, and the
// full-ring / stats contracts core::InferenceStage relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/mpsc_queue.hpp"

namespace fenix::runtime {
namespace {

/// One fan-in item: producer id in the high bits, per-producer sequence in
/// the low bits — the same symbol shape the replay's fan-in uses.
struct Item {
  std::uint64_t tag = 0;
};

constexpr std::uint64_t make_tag(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 40) | seq;
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<Item> q(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Item item{i};
    ASSERT_TRUE(q.try_push(item));
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto got = q.try_pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, i);
  }
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(MpscQueue, FullRingRejectsAndLeavesValueIntact) {
  MpscQueue<Item> q(4);  // rounds to capacity 4
  ASSERT_EQ(q.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    Item item{i};
    ASSERT_TRUE(q.try_push(item));
  }
  Item rejected{99};
  EXPECT_FALSE(q.try_push(rejected));
  EXPECT_EQ(rejected.tag, 99u);  // unmoved on failure
  EXPECT_GE(q.stats().full_stalls, 1u);

  // One pop frees one slot; the push then succeeds.
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_TRUE(q.try_push(rejected));
}

TEST(MpscQueue, CapacityRoundsUpToPowerOfTwo) {
  MpscQueue<Item> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  MpscQueue<Item> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpscQueue, MultiProducerStressDeliversEverythingOnceInProducerOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscQueue<Item> q(256);

  std::atomic<std::size_t> live_producers{kProducers};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
        Item item{make_tag(p, seq)};
        while (!q.try_push(item)) std::this_thread::yield();
      }
    });
  }

  // The single consumer drains concurrently, checking per-producer FIFO:
  // each producer's sequence numbers must arrive strictly ascending.
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  std::thread consumer([&] {
    while (received < kProducers * kPerProducer) {
      const auto got = q.try_pop();
      if (!got) {
        if (live_producers.load(std::memory_order_acquire) == 0 && q.empty()) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t producer = got->tag >> 40;
      const std::uint64_t seq = got->tag & ((std::uint64_t{1} << 40) - 1);
      ASSERT_LT(producer, kProducers);
      EXPECT_EQ(seq, next_seq[producer]) << "producer " << producer;
      next_seq[producer] = seq + 1;
      ++received;
    }
  });

  for (auto& t : producers) {
    t.join();
    live_producers.fetch_sub(1, std::memory_order_release);
  }
  consumer.join();

  EXPECT_EQ(received, kProducers * kPerProducer);
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer) << "producer " << p;
  }
  const MpscQueueStats stats = q.stats();
  EXPECT_EQ(stats.enqueues, kProducers * kPerProducer);
  EXPECT_EQ(stats.dequeues, kProducers * kPerProducer);
  EXPECT_LE(stats.peak_size, q.capacity());
}

TEST(MpscQueue, DrainOnShutdownRecoversEverythingQueued) {
  // The coordinator's end-of-run pattern: producers stop, then the consumer
  // drains whatever is still queued — nothing may be stranded in the ring.
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kPerProducer = 500;
  MpscQueue<Item> q(4096);  // deep enough that no push ever stalls

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
        Item item{make_tag(p, seq)};
        ASSERT_TRUE(q.try_push(item));
      }
    });
  }
  for (auto& t : producers) t.join();

  // All producers quiescent: size() is exact, and a full drain must yield
  // every element in per-producer order.
  EXPECT_EQ(q.size(), kProducers * kPerProducer);
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t drained = 0;
  while (const auto got = q.try_pop()) {
    const std::uint64_t producer = got->tag >> 40;
    const std::uint64_t seq = got->tag & ((std::uint64_t{1} << 40) - 1);
    EXPECT_EQ(seq, next_seq[producer]) << "producer " << producer;
    next_seq[producer] = seq + 1;
    ++drained;
  }
  EXPECT_EQ(drained, kProducers * kPerProducer);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().full_stalls, 0u);
}

}  // namespace
}  // namespace fenix::runtime
