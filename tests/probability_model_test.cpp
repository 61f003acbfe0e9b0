// Tests for the Rate Limiter probability model (Eq. 2), its lookup-table
// discretization (Figure 6), and the Appendix A fairness property.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/probability_model.hpp"
#include "sim/random.hpp"

namespace fenix::core {
namespace {

TrafficStats figure6_stats() {
  // Figure 6's illustrative setting: 1000 flows, V = 75 Mpps, Q = 1000 Mpps.
  TrafficStats stats;
  stats.flow_count_n = 1000;
  stats.token_rate_v = 75e6;
  stats.packet_rate_q = 1000e6;
  return stats;
}

TEST(TokenRate, Equation1) {
  // V = min(F, B/W).
  EXPECT_DOUBLE_EQ(token_rate_from_hardware(75e6, 100e9, 520), 75e6);
  EXPECT_DOUBLE_EQ(token_rate_from_hardware(300e6, 100e9, 1000), 100e6);
}

TEST(TokenProbability, ZeroBeforeFairPeriodForSlowFlows) {
  const TrafficStats stats = figure6_stats();
  const double fair = stats.flow_count_n / stats.token_rate_v;  // 13.3 us
  // A slow flow (1 packet over the period).
  EXPECT_DOUBLE_EQ(token_probability(stats, fair * 0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(token_probability(stats, fair * 0.99, 1.0), 0.0);
}

TEST(TokenProbability, RampsUpAfterFairPeriod) {
  const TrafficStats stats = figure6_stats();
  const double fair = stats.flow_count_n / stats.token_rate_v;
  const double p1 = token_probability(stats, fair * 1.5, 1.0);
  const double p2 = token_probability(stats, fair * 3.0, 1.0);
  const double p3 = token_probability(stats, fair * 10.0, 1.0);
  EXPECT_GT(p1, 0.0);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LE(p3, 1.0);
}

TEST(TokenProbability, FastFlowsReachOneAtFairPeriod) {
  const TrafficStats stats = figure6_stats();
  const double fair = stats.flow_count_n / stats.token_rate_v;
  // A fast flow: many more packets than the average share.
  const double c_fast = 10.0 * stats.packet_rate_q * fair / stats.flow_count_n;
  EXPECT_DOUBLE_EQ(token_probability(stats, fair, c_fast), 1.0);
  EXPECT_DOUBLE_EQ(token_probability(stats, fair * 2, c_fast), 1.0);
  // Below the fair period the probability ramps linearly from 0.
  const double p_half = token_probability(stats, fair * 0.5, c_fast);
  EXPECT_GT(p_half, 0.0);
  EXPECT_LT(p_half, 1.0);
}

TEST(TokenProbability, AverageRateFlowIsStepFunction) {
  const TrafficStats stats = figure6_stats();
  const double fair = stats.flow_count_n / stats.token_rate_v;
  // Q T = N C  <=>  C = Q T / N.
  const double t = fair * 2;
  const double c = stats.packet_rate_q * t / stats.flow_count_n;
  EXPECT_DOUBLE_EQ(token_probability(stats, t, c), 1.0);
  const double t_small = fair / 2;
  const double c_small = stats.packet_rate_q * t_small / stats.flow_count_n;
  EXPECT_DOUBLE_EQ(token_probability(stats, t_small, c_small), 0.0);
}

TEST(TokenProbability, DegenerateInputs) {
  const TrafficStats stats = figure6_stats();
  EXPECT_DOUBLE_EQ(token_probability(stats, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(token_probability(stats, 1.0, 0.0), 0.0);
  TrafficStats zero = stats;
  zero.token_rate_v = 0.0;
  EXPECT_DOUBLE_EQ(token_probability(zero, 1.0, 1.0), 0.0);
}

TEST(TokenProbability, AlwaysInUnitInterval) {
  const TrafficStats stats = figure6_stats();
  sim::RandomStream rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double t = rng.uniform(1e-7, 0.3);
    const double c = 1.0 + rng.uniform_int(5000);
    const double p = token_probability(stats, t, c);
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
  }
}

class LookupTableResolution : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LookupTableResolution, ApproximatesExactModel) {
  const std::size_t cells = GetParam();
  const TrafficStats stats = figure6_stats();
  ProbabilityLookupTable table(cells, cells, 0.001, 2048);
  table.rebuild(stats);
  sim::RandomStream rng(5);
  double total_error = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const double t = rng.uniform(1e-6, 0.001);
    const double c = 1.0 + rng.uniform_int(2000);
    total_error += std::fabs(table.lookup(t, c) - token_probability(stats, t, c));
  }
  const double mean_error = total_error / n;
  // Figure 6: the table-based approximation closely preserves the model.
  // Finer grids must do better.
  const double budget = cells >= 128 ? 0.05 : cells >= 64 ? 0.08 : 0.15;
  EXPECT_LT(mean_error, budget) << "cells=" << cells;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, LookupTableResolution,
                         ::testing::Values(16, 64, 128, 256));

TEST(LookupTable, LogScaleResolvesSmallBacklogs) {
  // Uniform C partitioning collapses all small C into one cell; log-scale
  // partitioning must track the exact curve for C = 1..64 too.
  const TrafficStats stats = figure6_stats();
  ProbabilityLookupTable table(64, 64, 1.6e-4, 4096, /*log_scale_c=*/true,
                               /*log_scale_t=*/true);
  table.rebuild(stats);
  sim::RandomStream rng(7);
  double total_error = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double t = rng.uniform(1e-6, 1.6e-4);
    const double c = 1.0 + rng.uniform_int(64);
    total_error += std::fabs(table.lookup(t, c) - token_probability(stats, t, c));
  }
  EXPECT_LT(total_error / n, 0.08);
}

TEST(LookupTable, ClampsOutOfRange) {
  ProbabilityLookupTable table(8, 8, 0.01, 64);
  table.rebuild(figure6_stats());
  // Far beyond t_max: clamps to the last T row (high probability region).
  EXPECT_EQ(table.lookup_fixed(1.0, 1.0), table.lookup_fixed(0.0099, 1.0));
  EXPECT_EQ(table.lookup_fixed(0.005, 1e9), table.lookup_fixed(0.005, 64));
  EXPECT_EQ(table.lookup_fixed(-1.0, -5.0), table.lookup_fixed(0.0, 1.0));
}

TEST(LookupTable, SramFootprint) {
  ProbabilityLookupTable table(64, 64, 0.1, 256);
  EXPECT_EQ(table.sram_bits(), 64u * 64 * 16);
}

// Appendix A: over a population of heterogeneous flows, the expected
// feature-transmission period averages to N/V.
TEST(LookupTable, RebuildMatchesPerCallCentreFormula) {
  // rebuild() samples Eq. 2 at cell centres computed once at construction;
  // every cell must equal a rebuild that computes each centre per cell, on
  // log and linear axes and across traffic settings.
  constexpr double kTMin = 1e-6;
  struct Grid {
    std::size_t t_cells, c_cells;
    double t_max, c_max;
    bool log_c, log_t;
  };
  const Grid grids[] = {{64, 64, 0.2, 4096, true, true},
                        {64, 64, 0.2, 4096, false, false},
                        {32, 48, 0.05, 600, true, false},
                        {48, 32, 1.0, 100, false, true}};
  std::vector<TrafficStats> settings = {figure6_stats(), TrafficStats{}};
  settings.push_back({2e5, 3e6, 7000});
  settings.push_back({5e4, 1e5, 3});
  for (const Grid& g : grids) {
    ProbabilityLookupTable table(g.t_cells, g.c_cells, g.t_max, g.c_max,
                                 g.log_c, g.log_t);
    const double c_base = std::pow(g.c_max, 1.0 / static_cast<double>(g.c_cells));
    const double t_base =
        std::pow(g.t_max / kTMin, 1.0 / static_cast<double>(g.t_cells));
    for (const TrafficStats& stats : settings) {
      table.rebuild(stats);
      for (std::size_t ti = 0; ti < g.t_cells; ++ti) {
        const double t =
            g.log_t ? kTMin * std::pow(t_base, static_cast<double>(ti) + 0.5)
                    : (static_cast<double>(ti) + 0.5) * g.t_max /
                          static_cast<double>(g.t_cells);
        for (std::size_t ci = 0; ci < g.c_cells; ++ci) {
          const double c =
              g.log_c ? std::pow(c_base, static_cast<double>(ci) + 0.5)
                      : 1.0 + (static_cast<double>(ci) + 0.5) * (g.c_max - 1.0) /
                                  static_cast<double>(g.c_cells);
          const auto expected = static_cast<std::uint16_t>(
              std::lround(token_probability(stats, t, c) * 65535.0));
          ASSERT_EQ(table.lookup_fixed(t, c), expected)
              << "grid " << g.t_cells << "x" << g.c_cells << " log_t " << g.log_t
              << " log_c " << g.log_c << " cell (" << ti << ", " << ci << ")";
        }
      }
    }
  }
}

TEST(Fairness, ExpectedPeriodAveragesToFairShare) {
  TrafficStats stats;
  stats.flow_count_n = 200;
  stats.token_rate_v = 50'000;    // tokens/s
  stats.packet_rate_q = 400'000;  // packets/s

  sim::RandomStream rng(11);
  // Heterogeneous flow rates spanning two orders of magnitude, scaled so the
  // sum matches Q.
  const int n_flows = 200;
  std::vector<double> rates(n_flows);
  double sum = 0;
  for (double& r : rates) {
    r = rng.pareto(100.0, 1.5);
    sum += r;
  }
  for (double& r : rates) r *= stats.packet_rate_q / sum;

  // Monte-Carlo: simulate each flow's packet process; at each packet, fire
  // with P(T, C); record the period between transmissions.
  double weighted_period = 0.0;  // E = sum_i Q_i E_i / Q (Eq. 7)
  for (int f = 0; f < n_flows; ++f) {
    const double rate = rates[f];
    const double dt = 1.0 / rate;
    double t_since = 0.0;
    double c_since = 0.0;
    double period_sum = 0.0;
    int periods = 0;
    for (int pkt = 0; pkt < 4000; ++pkt) {
      t_since += dt;
      c_since += 1.0;
      const double p = token_probability(stats, t_since, c_since);
      if (rng.bernoulli(p)) {
        period_sum += t_since;
        ++periods;
        t_since = 0.0;
        c_since = 0.0;
      }
    }
    if (periods > 0) {
      const double mean_period = period_sum / periods;
      weighted_period += rate * mean_period / stats.packet_rate_q;
    }
  }
  const double fair = stats.flow_count_n / stats.token_rate_v;  // N/V = 4 ms
  EXPECT_NEAR(weighted_period, fair, fair * 0.25);
}

// Criterion 2: faster flows transmit proportionally more often.
TEST(Fairness, FasterFlowsGetMoreTransmissions) {
  TrafficStats stats;
  stats.flow_count_n = 100;
  stats.token_rate_v = 10'000;
  stats.packet_rate_q = 100'000;

  // Criterion 2 is about the transmission *rate over time*: simulate both
  // flows for the same wall-clock duration.
  auto transmissions = [&](double rate, std::uint64_t seed) {
    sim::RandomStream rng(seed);
    const double dt = 1.0 / rate;
    const double duration_s = 20.0;
    double t_since = 0, c_since = 0;
    int count = 0;
    const auto packets = static_cast<int>(rate * duration_s);
    for (int pkt = 0; pkt < packets; ++pkt) {
      t_since += dt;
      c_since += 1;
      if (rng.bernoulli(token_probability(stats, t_since, c_since))) {
        ++count;
        t_since = 0;
        c_since = 0;
      }
    }
    return count;
  };
  const int slow = transmissions(200, 1);    // 200 pps for 20 s
  const int fast = transmissions(4000, 2);   // 4000 pps for 20 s
  EXPECT_GT(fast, slow);
}

}  // namespace
}  // namespace fenix::core
