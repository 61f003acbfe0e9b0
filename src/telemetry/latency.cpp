#include "telemetry/latency.hpp"

#include <algorithm>
#include <bit>

namespace fenix::telemetry {

namespace {

constexpr unsigned kS = LatencyRecorder::kSubBucketBits;
constexpr std::uint64_t kHalf = std::uint64_t{1} << (kS - 1);

// Below 2^S a value is its own bucket. Above, `shift` keeps its top S bits,
// which lie in [2^(S-1), 2^S), so each power of two adds 2^(S-1) buckets.
constexpr std::size_t bucket_of(std::uint64_t v) {
  v = std::min(v, (std::uint64_t{1} << LatencyRecorder::kCeilingBits) - 1);
  const auto width = static_cast<unsigned>(std::bit_width(v));
  const unsigned shift = width > kS ? width - kS : 0;
  return static_cast<std::size_t>(shift * kHalf + (v >> shift));
}
static_assert(bucket_of(~0ULL) == LatencyRecorder::kBuckets - 1);

// bucket_of() inverted: the bucket's lowest value plus half its width.
constexpr std::uint64_t midpoint_of(std::size_t i) {
  const unsigned shift = i < 2 * kHalf ? 0 : static_cast<unsigned>(i / kHalf - 1);
  return ((i - shift * kHalf) << shift) + ((std::uint64_t{1} << shift) >> 1);
}

}  // namespace

void LatencyRecorder::record(sim::SimDuration d) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  ++counts_[bucket_of(d)];
  ++count_;
  sum_ += d;
  min_ = std::min(min_, d);
  max_ = std::max(max_, d);
}

void LatencyRecorder::absorb(const LatencyRecorder& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

sim::SimDuration LatencyRecorder::percentile(double p) const {
  if (count_ == 0) return 0;
  const double q = std::clamp(p, 0.0, 100.0) / 100.0;
  const auto idx = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1) + 0.5);
  if (idx == 0) return min_;
  if (idx >= count_ - 1) return max_;
  std::size_t i = 0;
  for (std::uint64_t seen = counts_[0]; seen <= idx;) seen += counts_[++i];
  return std::clamp(midpoint_of(i), min_, max_);
}

}  // namespace fenix::telemetry
