// Latency accounting: streaming summaries and percentile estimation.
//
// Figure 11 reports a latency breakdown with microsecond resolution. The
// recorder keeps count, sum, min and max exactly and bins each sample into a
// fixed log-linear histogram (HdrHistogram-style): one bucket per value below
// 2^S ps, then 2^(S-1) equal sub-buckets per power of two up to the 2^44 ps
// (17.6 s) ceiling, whose top bucket also counts every larger value. A
// percentile is its bucket's midpoint, within 2^-S (0.78% at S = 7) of the
// exact value. The counts, kBuckets x 8 bytes (about 20 KB), are allocated on
// the first record() and never grow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace fenix::telemetry {

/// Streaming latency recorder over a fixed log-linear histogram.
class LatencyRecorder {
 public:
  static constexpr unsigned kSubBucketBits = 7;  ///< S: relative error <= 2^-S.
  static constexpr unsigned kCeilingBits = 44;   ///< Values >= 2^44 ps: the top bucket.
  static constexpr std::size_t kBuckets =
      std::size_t{kCeilingBits - kSubBucketBits + 2} << (kSubBucketBits - 1);

  void record(sim::SimDuration d);

  std::uint64_t count() const { return count_; }
  sim::SimDuration min() const { return count_ ? min_ : 0; }
  sim::SimDuration max() const { return max_; }
  double mean_ps() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  double mean_us() const { return mean_ps() / static_cast<double>(sim::kMicrosecond); }

  /// Percentile in [0, 100] by nearest rank, round(p/100 * (count - 1)): the
  /// midpoint of the bucket holding that rank, clamped to [min, max]. Rank 0
  /// is min() and rank count - 1 is max(), exactly.
  sim::SimDuration percentile(double p) const;

  /// Folds another recorder in (sharded replay merge). Every field adds
  /// exactly, so any merge order equals one recorder fed every sample.
  void absorb(const LatencyRecorder& other);

  /// p50/p99/p999 in microseconds.
  double p50_us() const { return sim::to_microseconds(percentile(50.0)); }
  double p99_us() const { return sim::to_microseconds(percentile(99.0)); }
  double p999_us() const { return sim::to_microseconds(percentile(99.9)); }

 private:
  std::vector<std::uint64_t> counts_;  ///< kBuckets entries once count_ > 0.
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  sim::SimDuration min_ = ~0ULL;
  sim::SimDuration max_ = 0;
};

}  // namespace fenix::telemetry
