// Bounded FIFO queues used throughout the hardware models.
//
// Fifo<T> is a plain bounded queue with occupancy statistics. AsyncFifo<T>
// additionally models a clock-domain-crossing FIFO: an element pushed at time
// t only becomes visible to the consumer after a configurable synchronizer
// latency, matching the dual-clock FIFOs the paper uses between the Vector
// I/O Processor and the DNN Inference Module (§5.1).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "sim/time.hpp"

namespace fenix::sim {

/// Occupancy and flow statistics shared by the FIFO variants.
struct FifoStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t drops = 0;         ///< Rejected pushes (queue full).
  std::size_t peak_occupancy = 0;  ///< High-water mark.

  /// Merge: counters summed, peak_occupancy maxed.
  FifoStats& operator+=(const FifoStats& o) {
    pushes += o.pushes;
    pops += o.pops;
    drops += o.drops;
    if (o.peak_occupancy > peak_occupancy) peak_occupancy = o.peak_occupancy;
    return *this;
  }
};

/// Bounded single-clock FIFO.
template <typename T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }
  const FifoStats& stats() const { return stats_; }

  /// Attempts to enqueue. Returns false (and counts a drop) when full.
  bool push(T value) {
    if (full()) {
      ++stats_.drops;
      return false;
    }
    items_.push_back(std::move(value));
    ++stats_.pushes;
    if (items_.size() > stats_.peak_occupancy) stats_.peak_occupancy = items_.size();
    return true;
  }

  /// Dequeues the head element, or nullopt when empty.
  std::optional<T> pop() {
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    return value;
  }

  /// Peeks at the head element without removing it.
  const T* front() const { return items_.empty() ? nullptr : &items_.front(); }

  void clear() { items_.clear(); }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
  FifoStats stats_;
};

/// Dual-clock FIFO model. Elements carry the simulation time at which they
/// become visible on the read side (push time + synchronizer latency).
template <typename T>
class AsyncFifo {
 public:
  AsyncFifo(std::size_t capacity, SimDuration sync_latency)
      : capacity_(capacity), sync_latency_(sync_latency) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool full() const { return items_.size() >= capacity_; }
  const FifoStats& stats() const { return stats_; }
  SimDuration sync_latency() const { return sync_latency_; }

  /// Attempts to enqueue at time `now`. Visible to the reader from
  /// `now + sync_latency`.
  bool push(SimTime now, T value) {
    if (full()) {
      ++stats_.drops;
      return false;
    }
    items_.push_back(Slot{now + sync_latency_, std::move(value)});
    ++stats_.pushes;
    if (items_.size() > stats_.peak_occupancy) stats_.peak_occupancy = items_.size();
    return true;
  }

  /// True when the head element is visible to the reader at time `now`.
  bool readable(SimTime now) const {
    return !items_.empty() && items_.front().visible_at <= now;
  }

  /// Simulation time at which the head element becomes readable, or nullopt
  /// when the FIFO is empty. Lets consumers schedule their next poll exactly.
  std::optional<SimTime> head_visible_at() const {
    if (items_.empty()) return std::nullopt;
    return items_.front().visible_at;
  }

  /// Dequeues the head element if it is visible at `now`.
  std::optional<T> pop(SimTime now) {
    if (!readable(now)) return std::nullopt;
    T value = std::move(items_.front().value);
    items_.pop_front();
    ++stats_.pops;
    return value;
  }

 private:
  struct Slot {
    SimTime visible_at;
    T value;
  };

  std::size_t capacity_;
  SimDuration sync_latency_;
  std::deque<Slot> items_;
  FifoStats stats_;
};

}  // namespace fenix::sim
