// Bounded multi-producer / single-consumer ring queue.
//
// The replay does not use it (pipes hand their mirrors to
// core::InferenceStage in lane-owned rows, whose telemetry keeps the
// MpscQueueStats shape); perfbench's runtime.mpsc_ns drives it. Per-slot
// sequence numbers serialize producers without a lock, and the consumer
// observes completed slots in claim order.
//
// The algorithm is the classic bounded MPMC ring (Vyukov) restricted to one
// consumer: producers CAS a shared head cursor to claim a slot, publish the
// element by bumping the slot's sequence number, and the consumer walks the
// tail without contention. Per-producer FIFO holds: a producer's later push
// claims a strictly larger slot than its earlier one, and the consumer pops
// in slot order.
//
// Contract: any number of threads may call try_push; exactly one thread calls
// try_pop. Capacity is rounded up to a power of two.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace fenix::runtime {

/// Contention / occupancy counters of a queue. `cas_retries` counts lost
/// claim races between producers; `full_stalls` counts try_push calls
/// rejected on a full ring. The replay's hand-off reports in the same shape
/// (core::PipelineTelemetry::fanin), with both of those at 0.
struct MpscQueueStats {
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t cas_retries = 0;
  std::uint64_t full_stalls = 0;
  std::uint64_t peak_size = 0;
};

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity)
      : mask_(round_up_pow2(capacity < 2 ? 2 : capacity) - 1),
        slots_(mask_ + 1) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Producer side; safe from any thread. Returns false when the ring is
  /// full (the element is returned to the caller unmoved on failure).
  bool try_push(T& value) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.seq.store(pos + 1, std::memory_order_release);
          enqueues_.fetch_add(1, std::memory_order_relaxed);
          note_size(pos + 1);
          return true;
        }
        cas_retries_.fetch_add(1, std::memory_order_relaxed);
      } else if (diff < 0) {
        // The slot still holds an element the consumer has not drained: the
        // ring is full from this producer's point of view.
        full_stalls_.fetch_add(1, std::memory_order_relaxed);
        return false;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side; exactly one thread. Returns nullopt when empty.
  std::optional<T> try_pop() {
    Slot& slot = slots_[tail_ & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != tail_ + 1) return std::nullopt;
    std::optional<T> value(std::move(slot.value));
    slot.seq.store(tail_ + mask_ + 1, std::memory_order_release);
    ++tail_;
    tail_cache_.store(tail_, std::memory_order_relaxed);
    dequeues_.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  /// Approximate occupancy (exact when producers are quiescent).
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_cache_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

  /// Counter snapshot; coherent when producers are quiescent.
  MpscQueueStats stats() const {
    MpscQueueStats s;
    s.enqueues = enqueues_.load(std::memory_order_relaxed);
    s.dequeues = dequeues_.load(std::memory_order_relaxed);
    s.cas_retries = cas_retries_.load(std::memory_order_relaxed);
    s.full_stalls = full_stalls_.load(std::memory_order_relaxed);
    s.peak_size = peak_size_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  /// Folds the occupancy just after a push that claimed up to `head` into
  /// the peak. The consumer may already have drained past `head` (size 0),
  /// and a stale tail can overstate the size, so it is clamped to capacity.
  void note_size(std::size_t head) {
    const std::size_t tail = tail_cache_.load(std::memory_order_relaxed);
    const std::uint64_t observed =
        head > tail ? std::min(head - tail, capacity()) : 0;
    std::uint64_t peak = peak_size_.load(std::memory_order_relaxed);
    while (observed > peak &&
           !peak_size_.compare_exchange_weak(peak, observed,
                                             std::memory_order_relaxed)) {
    }
  }

  std::size_t mask_;
  std::vector<Slot> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};       ///< Producer claim cursor.
  alignas(64) std::size_t tail_ = 0;                   ///< Consumer cursor.
  std::atomic<std::size_t> tail_cache_{0};             ///< tail_ for producers.
  std::atomic<std::uint64_t> enqueues_{0};
  std::atomic<std::uint64_t> dequeues_{0};
  std::atomic<std::uint64_t> cas_retries_{0};
  std::atomic<std::uint64_t> full_stalls_{0};
  std::atomic<std::uint64_t> peak_size_{0};
};

}  // namespace fenix::runtime
