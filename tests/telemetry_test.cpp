// Tests for metrics, latency recording, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "sim/random.hpp"
#include "telemetry/latency.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/rate_meter.hpp"
#include "telemetry/table.hpp"

namespace fenix::telemetry {
namespace {

TEST(ConfusionMatrix, HandComputedMetrics) {
  ConfusionMatrix cm(2);
  // Class 0: 8 right, 2 predicted as 1. Class 1: 5 right, 5 predicted as 0.
  for (int i = 0; i < 8; ++i) cm.add(0, 0);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  for (int i = 0; i < 5; ++i) cm.add(1, 1);
  for (int i = 0; i < 5; ++i) cm.add(1, 0);

  EXPECT_EQ(cm.total(), 20u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 13.0 / 20.0);
  const auto metrics = cm.per_class();
  // Class 0: precision 8/13, recall 8/10.
  EXPECT_NEAR(metrics[0].precision, 8.0 / 13.0, 1e-9);
  EXPECT_NEAR(metrics[0].recall, 0.8, 1e-9);
  // Class 1: precision 5/7, recall 0.5.
  EXPECT_NEAR(metrics[1].precision, 5.0 / 7.0, 1e-9);
  EXPECT_NEAR(metrics[1].recall, 0.5, 1e-9);
  const double f0 = 2 * (8.0 / 13.0) * 0.8 / (8.0 / 13.0 + 0.8);
  const double f1 = 2 * (5.0 / 7.0) * 0.5 / (5.0 / 7.0 + 0.5);
  EXPECT_NEAR(cm.macro_f1(), (f0 + f1) / 2.0, 1e-9);
}

TEST(ConfusionMatrix, UnpredictedCountsAgainstRecall) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(0, -1);  // no prediction
  EXPECT_EQ(cm.unpredicted(), 1u);
  EXPECT_EQ(cm.total(), 2u);
  const auto metrics = cm.per_class();
  // The unpredicted observation is a false negative of class 0.
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(metrics[0].recall, 0.5);
  EXPECT_EQ(metrics[0].false_negatives, 1u);
}

TEST(ConfusionMatrix, OutOfRangeTruthIgnored) {
  ConfusionMatrix cm(2);
  cm.add(-1, 0);
  cm.add(5, 1);
  EXPECT_EQ(cm.total(), 0u);
}

TEST(ConfusionMatrix, MergeAddsCells) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  b.add(0, 0);
  b.add(1, 0);
  a.merge(b);
  EXPECT_EQ(a.count(0, 0), 2u);
  EXPECT_EQ(a.count(1, 0), 1u);
  EXPECT_EQ(a.total(), 3u);
  ConfusionMatrix c(3);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(ConfusionMatrix, PerfectScore) {
  ConfusionMatrix cm(3);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) cm.add(c, c);
  }
  EXPECT_DOUBLE_EQ(cm.macro_f1(), 1.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

// Nearest-rank percentile of `sorted`, the rule LatencyRecorder follows.
sim::SimDuration exact_percentile(const std::vector<sim::SimDuration>& sorted,
                                  double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[std::min(static_cast<std::size_t>(rank + 0.5), sorted.size() - 1)];
}

// Records `samples` and checks every percentile on a 0.1 grid against the
// exact sorted-sample value: within 2^-S relative below the ceiling, exact
// at p0 and p100.
void expect_within_bound(std::vector<sim::SimDuration> samples) {
  LatencyRecorder rec;
  for (const sim::SimDuration d : samples) rec.record(d);
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(rec.count(), samples.size());
  EXPECT_EQ(rec.min(), samples.front());
  EXPECT_EQ(rec.max(), samples.back());
  EXPECT_EQ(rec.percentile(0.0), samples.front());
  EXPECT_EQ(rec.percentile(100.0), samples.back());
  constexpr sim::SimDuration kCeiling = 1ULL << LatencyRecorder::kCeilingBits;
  for (int tenth = 0; tenth <= 1000; ++tenth) {
    const double p = tenth / 10.0;
    const sim::SimDuration exact = exact_percentile(samples, p);
    if (exact >= kCeiling) continue;
    const sim::SimDuration got = rec.percentile(p);
    const double error = got > exact ? static_cast<double>(got - exact)
                                     : static_cast<double>(exact - got);
    ASSERT_LE(error, std::ldexp(static_cast<double>(exact),
                                -static_cast<int>(LatencyRecorder::kSubBucketBits)))
        << "p" << p << ": " << got << " vs exact " << exact;
  }
}

// Every field a report reads from a recorder, the percentile grid included.
std::vector<double> summary(const LatencyRecorder& rec) {
  std::vector<double> out{static_cast<double>(rec.count()),
                          static_cast<double>(rec.min()),
                          static_cast<double>(rec.max()), rec.mean_ps()};
  for (int tenth = 0; tenth <= 1000; ++tenth) {
    out.push_back(static_cast<double>(rec.percentile(tenth / 10.0)));
  }
  return out;
}

TEST(LatencyRecorder, BasicStatistics) {
  LatencyRecorder rec;
  for (std::uint64_t i = 1; i <= 100; ++i) rec.record(i * sim::kMicrosecond);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.min(), sim::microseconds(1));
  EXPECT_EQ(rec.max(), sim::microseconds(100));
  EXPECT_NEAR(rec.mean_us(), 50.5, 0.01);
  EXPECT_NEAR(sim::to_microseconds(rec.percentile(50)), 50.0, 1.5);
  EXPECT_NEAR(rec.p99_us(), 99.0, 1.5);
}

TEST(LatencyRecorder, EmptySafe) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.percentile(50), 0u);
  EXPECT_EQ(rec.min(), 0u);
  EXPECT_EQ(rec.max(), 0u);
  EXPECT_DOUBLE_EQ(rec.mean_us(), 0.0);
  LatencyRecorder other;
  rec.absorb(other);
  EXPECT_EQ(rec.count(), 0u);
}

TEST(LatencyRecorder, SummaryStaysExactPastTwoToTheTwentySamples) {
  LatencyRecorder rec;
  std::uint64_t sum = 0;
  const std::uint64_t n = (1ULL << 20) + 4096;
  for (std::uint64_t i = 0; i < n; ++i) {
    const sim::SimDuration d = sim::nanoseconds(500) + (i * 7919) % 1'000'003;
    rec.record(d);
    sum += d;
  }
  EXPECT_EQ(rec.count(), n);
  EXPECT_EQ(rec.min(), sim::nanoseconds(500));
  EXPECT_EQ(rec.max(), sim::nanoseconds(500) + 1'000'002);
  EXPECT_DOUBLE_EQ(rec.mean_ps(), static_cast<double>(sum) / static_cast<double>(n));

  LatencyRecorder flat;
  for (std::uint64_t i = 0; i < n; ++i) flat.record(sim::microseconds(10));
  EXPECT_NEAR(flat.mean_us(), 10.0, 1e-9);
  EXPECT_EQ(flat.percentile(50), sim::microseconds(10));
}

TEST(LatencyRecorder, P999EdgeCases) {
  // Empty and single-sample recorders must stay well-defined: the health
  // table exports p999_us unconditionally.
  LatencyRecorder empty;
  EXPECT_DOUBLE_EQ(empty.p999_us(), 0.0);

  LatencyRecorder one;
  one.record(sim::microseconds(7));
  EXPECT_DOUBLE_EQ(one.p999_us(), 7.0);
  EXPECT_DOUBLE_EQ(one.p50_us(), 7.0);

  // Two samples: nearest-rank p999 lands on the max.
  one.record(sim::microseconds(3));
  EXPECT_DOUBLE_EQ(one.p999_us(), 7.0);
}

TEST(LatencyRecorder, P999WithinBoundAndSeparatesTail) {
  // rank = 0.999 * 9999 = 9989.0 -> index 9989 -> sample value 9990us.
  LatencyRecorder rec;
  for (std::uint64_t i = 1; i <= 10'000; ++i) rec.record(i * sim::kMicrosecond);
  EXPECT_EQ(rec.count(), 10'000u);
  EXPECT_NEAR(rec.p999_us(), 9990.0, 9990.0 / 128);
  EXPECT_NEAR(rec.p99_us(), 9900.0, 9900.0 / 128);
  EXPECT_EQ(rec.max(), sim::microseconds(10'000));

  // p999 separates a tail the p99 can't see: 10k samples at 10us with 15
  // outliers at 1000us leave p99 flat but move p999.
  LatencyRecorder tail;
  for (int i = 0; i < 10'000; ++i) tail.record(sim::microseconds(10));
  for (int i = 0; i < 15; ++i) tail.record(sim::microseconds(1000));
  EXPECT_NEAR(tail.p99_us(), 10.0, 10.0 / 128);
  EXPECT_NEAR(tail.p999_us(), 1000.0, 1000.0 / 128);
}

TEST(LatencyRecorder, PercentilesWithinBoundOnRandomInputs) {
  // Log-uniform over 1 ps .. 2^40 ps, so every bucket scale is populated.
  sim::RandomStream rng(0x1a7e);
  std::vector<sim::SimDuration> samples(100'000);
  for (auto& d : samples) {
    d = static_cast<sim::SimDuration>(std::exp2(rng.uniform(0.0, 40.0)));
  }
  expect_within_bound(samples);
}

TEST(LatencyRecorder, PercentilesWithinBoundOnHeavyTailedInputs) {
  // Pareto(alpha 1.1) above 10 us: a long tail, most mass near the bottom.
  sim::RandomStream rng(0x7a11);
  std::vector<sim::SimDuration> samples(100'000);
  for (auto& d : samples) {
    d = static_cast<sim::SimDuration>(rng.bounded_pareto(1e7, 1e13, 1.1));
  }
  expect_within_bound(samples);
}

TEST(LatencyRecorder, PercentilesWithinBoundAtBucketEdges) {
  constexpr unsigned S = LatencyRecorder::kSubBucketBits;
  std::vector<sim::SimDuration> edges = {0, 1, 2, (1ULL << S) - 1, 1ULL << S,
                                         (1ULL << S) + 1};
  for (unsigned k = S + 1; k <= LatencyRecorder::kCeilingBits; ++k) {
    edges.push_back((1ULL << k) - 1);
    edges.push_back(1ULL << k);
    edges.push_back((1ULL << k) + 1);
  }
  // Uneven multiplicities so the ranks of the grid land on every edge.
  std::vector<sim::SimDuration> samples;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    samples.insert(samples.end(), 1 + i % 4, edges[i]);
  }
  expect_within_bound(samples);
  for (const sim::SimDuration edge : edges) {
    LatencyRecorder alone;
    alone.record(edge);
    alone.record(edge);
    EXPECT_EQ(alone.percentile(50.0), edge);
  }
}

TEST(LatencyRecorder, ValuesAtAndAboveCeilingShareTopBucket) {
  constexpr sim::SimDuration kCeiling = 1ULL << LatencyRecorder::kCeilingBits;
  LatencyRecorder rec;
  const sim::SimDuration values[] = {kCeiling - 1, kCeiling, kCeiling + 1,
                                     1ULL << 50, 1ULL << 62};
  for (const sim::SimDuration d : values) rec.record(d);
  EXPECT_EQ(rec.count(), 5u);
  EXPECT_EQ(rec.min(), kCeiling - 1);
  EXPECT_EQ(rec.max(), 1ULL << 62);
  EXPECT_EQ(rec.percentile(100.0), 1ULL << 62);
  // Ranks past the ceiling read the top bucket, clamped to [min, max].
  for (const double p : {25.0, 50.0, 75.0}) {
    EXPECT_GE(rec.percentile(p), kCeiling - 1) << p;
    EXPECT_LE(rec.percentile(p), kCeiling) << p;
  }

  // Samples of 2^63 and up: min and max stay exact, and the middle rank
  // reads the top bucket clamped up to min.
  LatencyRecorder huge;
  huge.record(~0ULL);
  huge.record(1ULL << 63);
  huge.record(~0ULL);
  EXPECT_EQ(huge.percentile(0.0), 1ULL << 63);
  EXPECT_EQ(huge.percentile(100.0), ~0ULL);
  EXPECT_EQ(huge.percentile(50.0), 1ULL << 63);
}

TEST(LatencyRecorder, MergeIsExactInAnyOrder) {
  // 16 lanes with lane-dependent distributions, more than 2^20 samples in
  // all, the last lane's reaching past the ceiling: every merge order must
  // equal one recorder fed every sample.
  constexpr std::size_t kLanes = 16;
  constexpr std::size_t kPerLane = 70'000;
  static_assert(kLanes * kPerLane > (1u << 20));
  sim::RandomStream rng(0x3e46);
  std::vector<LatencyRecorder> lanes(kLanes);
  LatencyRecorder single;
  for (std::size_t i = 0; i < kPerLane; ++i) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const double base = 1e6 * static_cast<double>(lane + 1);
      const sim::SimDuration d = static_cast<sim::SimDuration>(
          lane == kLanes - 1 ? std::exp2(rng.uniform(0.0, 50.0))
          : lane % 2         ? rng.uniform(base, 2 * base)
                             : rng.pareto(base, 1.5 + lane / 8.0));
      lanes[lane].record(d);
      single.record(d);
    }
  }
  const std::vector<double> want = summary(single);

  std::vector<std::size_t> order(kLanes);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<std::size_t>> orders = {order};
  std::reverse(order.begin(), order.end());
  orders.push_back(order);
  std::shuffle(order.begin(), order.end(), rng);
  orders.push_back(order);
  for (const auto& o : orders) {
    LatencyRecorder merged;
    for (const std::size_t lane : o) merged.absorb(lanes[lane]);
    EXPECT_EQ(summary(merged), want);
  }

  // A pairwise tree: lanes fold into their neighbours, then the halves.
  std::vector<LatencyRecorder> level = lanes;
  while (level.size() > 1) {
    std::vector<LatencyRecorder> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(level[i + 1]);
      next.back().absorb(level[i]);
    }
    level = std::move(next);
  }
  EXPECT_EQ(summary(level.front()), want);
}

TEST(TextTable, RendersAligned) {
  TextTable table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| Name  | Value |"), std::string::npos) << out;
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos) << out;
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"A", "B", "C"});
  table.add_row({"x"});
  EXPECT_NE(table.render().find("| x |"), std::string::npos);
}

TEST(RateMeter, FirstUpdateSeedsEstimate) {
  RateMeter meter(0.3);
  EXPECT_FALSE(meter.initialized());
  EXPECT_DOUBLE_EQ(meter.update(500, sim::milliseconds(500)), 1000.0);
  EXPECT_TRUE(meter.initialized());
}

TEST(RateMeter, SmoothsTowardNewRate) {
  RateMeter meter(0.5);
  meter.update(1000, sim::seconds(1));  // 1000/s
  const double after = meter.update(3000, sim::seconds(1));  // 3000/s
  EXPECT_DOUBLE_EQ(after, 2000.0);  // halfway with alpha 0.5
  EXPECT_DOUBLE_EQ(meter.rate(), 2000.0);
}

TEST(RateMeter, AlphaOneTracksInstantaneous) {
  RateMeter meter(1.0);
  meter.update(100, sim::seconds(1));
  EXPECT_DOUBLE_EQ(meter.update(900, sim::seconds(1)), 900.0);
}

TEST(RateMeter, ConvergesToSteadyRate) {
  RateMeter meter(0.3);
  for (int i = 0; i < 50; ++i) meter.update(250, sim::milliseconds(100));
  EXPECT_NEAR(meter.rate(), 2500.0, 1.0);
}

TEST(RateMeter, ResetClears) {
  RateMeter meter(0.3);
  meter.update(10, sim::seconds(1));
  meter.reset();
  EXPECT_FALSE(meter.initialized());
  EXPECT_DOUBLE_EQ(meter.rate(), 0.0);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::num(0.8766), "0.877");
  EXPECT_EQ(TextTable::num(1.5, 1), "1.5");
  EXPECT_EQ(TextTable::pr(0.9, 0.85), "0.900/0.850");
  EXPECT_EQ(TextTable::pct(0.129), "12.9%");
}

}  // namespace
}  // namespace fenix::telemetry
