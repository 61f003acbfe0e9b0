// Latency accounting: streaming summaries and percentile estimation.
//
// Figure 11 reports a latency breakdown with microsecond resolution; the
// recorder keeps raw samples (bounded by reservoir sampling for very long
// runs) so exact percentiles are available for the bench harness.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace fenix::telemetry {

/// Streaming latency recorder with exact percentiles up to a reservoir bound.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t reservoir_capacity = 1 << 20)
      : capacity_(reservoir_capacity), rng_(0x1a7e9c) {}

  void record(sim::SimDuration d);

  /// Pre-sizes the sample reservoir for an expected `n` records so the hot
  /// replay loop never pays vector growth (clamped to the reservoir bound).
  void reserve(std::size_t n) { samples_.reserve(n < capacity_ ? n : capacity_); }

  std::uint64_t count() const { return count_; }
  sim::SimDuration min() const { return count_ ? min_ : 0; }
  sim::SimDuration max() const { return max_; }
  double mean_ps() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  double mean_us() const { return mean_ps() / static_cast<double>(sim::kMicrosecond); }

  /// Percentile in [0, 100]; exact over the retained reservoir.
  sim::SimDuration percentile(double p) const;

  /// Folds another recorder's contents into this one (sharded replay merge).
  /// Count/sum/min/max are combined exactly; retained samples append until
  /// the reservoir bound. Deterministic — merging the same recorders in the
  /// same order always yields the same summary, which is what lets per-lane
  /// recorders merge into a bit-identical RunReport.
  void absorb(const LatencyRecorder& other) {
    if (other.count_ == 0) return;
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    for (const sim::SimDuration d : other.samples_) {
      if (samples_.size() >= capacity_) break;
      samples_.push_back(d);
    }
    sorted_ = false;
  }

  /// Convenience: p50/p99/p999 in microseconds. p999 is exact while the
  /// sample count stays inside the reservoir bound; beyond it the estimate
  /// degrades gracefully to the reservoir's nearest-rank value.
  double p50_us() const { return sim::to_microseconds(percentile(50.0)); }
  double p99_us() const { return sim::to_microseconds(percentile(99.0)); }
  double p999_us() const { return sim::to_microseconds(percentile(99.9)); }

 private:
  std::size_t capacity_;
  mutable std::vector<sim::SimDuration> samples_;
  mutable bool sorted_ = false;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  sim::SimDuration min_ = ~0ULL;
  sim::SimDuration max_ = 0;
  sim::RandomStream rng_;
};

}  // namespace fenix::telemetry
