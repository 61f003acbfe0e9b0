// ReplayCore diagnostics + VerdictBackend harness.
//
// first_divergence must name the first mismatching RunReport field with
// indices and both values (it is what test failures and the perf gate
// print), and the shared VerdictBackend harness must reproduce each
// baseline's documented classification semantics exactly — the baselines'
// classify_packets/classify_flow entry points are now thin wrappers over it.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bos.hpp"
#include "baselines/flowlens.hpp"
#include "baselines/leo.hpp"
#include "baselines/n3ic.hpp"
#include "baselines/netbeacon.hpp"
#include "core/replay_core.hpp"
#include "core/verdict_backend.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

constexpr std::size_t kClasses = 3;

RunReport make_report() {
  RunReport report(kClasses);
  report.packets = 100;
  report.mirrors = 40;
  report.results_applied = 30;
  report.packet_confusion.add(0, 0);
  report.packet_confusion.add(1, 2);
  report.end_to_end.record(sim::microseconds(5));
  report.end_to_end.record(sim::microseconds(9));
  report.watchdog.heartbeats = 30;
  return report;
}

TEST(FirstDivergenceTest, EqualReportsReturnNullopt) {
  EXPECT_EQ(first_divergence(make_report(), make_report()), std::nullopt);
  EXPECT_TRUE(run_reports_equal(make_report(), make_report()));
}

TEST(FirstDivergenceTest, NamesCounterWithBothValues) {
  // Bump each counter in turn: first_divergence must name exactly that one,
  // with both values, whichever it is.
  const RunReport a = make_report();
  std::set<std::string> names;
  for (std::size_t target = 0; target < run_counter_count(); ++target) {
    RunReport b = make_report();
    std::string name;
    std::string expected;
    std::size_t index = 0;
    for_each_counter(
        [&](const char* field, const std::uint64_t& before, std::uint64_t& after) {
          if (index++ != target) return;
          after += 7;
          name = field;
          expected = name + ": " + std::to_string(before) + " vs " +
                     std::to_string(after);
        },
        a, b);
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter name " << name;
    EXPECT_EQ(first_divergence(a, b), expected);
    EXPECT_FALSE(run_reports_equal(a, b)) << name;
  }
  EXPECT_EQ(names.size(), run_counter_count());
}

TEST(FirstDivergenceTest, NamesConfusionCellWithIndices) {
  const RunReport a = make_report();
  RunReport b = make_report();
  b.inference_confusion.add(2, 1);
  const auto div = first_divergence(a, b);
  ASSERT_TRUE(div.has_value());
  EXPECT_NE(div->find("inference_confusion"), std::string::npos) << *div;
  EXPECT_NE(div->find("truth=2"), std::string::npos) << *div;
  EXPECT_NE(div->find("pred=1"), std::string::npos) << *div;
}

TEST(FirstDivergenceTest, NamesWatchdogField) {
  const RunReport a = make_report();
  RunReport b = make_report();
  b.watchdog.degradations = 3;
  const auto div = first_divergence(a, b);
  ASSERT_TRUE(div.has_value());
  EXPECT_NE(div->find("watchdog"), std::string::npos) << *div;
  EXPECT_NE(div->find("degradations"), std::string::npos) << *div;
}

TEST(FirstDivergenceTest, NamesLatencyRecorderField) {
  // One more sample in each recorder in turn, reached by its member name
  // (not through for_each_latency): the divergence must name that recorder,
  // so a miswired for_each_latency line fails here.
  using Recorder = telemetry::LatencyRecorder RunLatencies::*;
  const std::pair<std::string, Recorder> recorders[] = {
      {"internal_tx", &RunLatencies::internal_tx},
      {"queueing", &RunLatencies::queueing},
      {"inference", &RunLatencies::inference},
      {"return_tx", &RunLatencies::return_tx},
      {"end_to_end", &RunLatencies::end_to_end},
  };
  ASSERT_EQ(std::size(recorders), run_latency_count());
  const RunReport a = make_report();
  for (const auto& [name, recorder] : recorders) {
    RunReport b = make_report();
    (b.*recorder).record(sim::microseconds(11));
    const auto div = first_divergence(a, b);
    ASSERT_TRUE(div.has_value()) << name;
    EXPECT_EQ(div->rfind(name + ".count: ", 0), 0u) << *div;
  }

  // Same count, min and max; the sums differ by 1 ps, so only the means
  // differ, beyond the sixth significant digit. Both must print exactly.
  RunReport c(kClasses);
  RunReport d(kClasses);
  for (const sim::SimDuration sample :
       {sim::microseconds(1), sim::microseconds(3), sim::microseconds(5)}) {
    c.end_to_end.record(sample);
    d.end_to_end.record(sample == sim::microseconds(3) ? sample + 1 : sample);
  }
  const auto mean_div = first_divergence(c, d);
  ASSERT_TRUE(mean_div.has_value());
  const std::string prefix = "end_to_end.mean_ps: ";
  ASSERT_EQ(mean_div->rfind(prefix, 0), 0u) << *mean_div;
  const std::size_t vs = mean_div->find(" vs ");
  ASSERT_NE(vs, std::string::npos) << *mean_div;
  EXPECT_NE(mean_div->substr(prefix.size(), vs - prefix.size()),
            mean_div->substr(vs + 4))
      << *mean_div;
}

TEST(RunCountersTest, PlusEqualsAddsEachFieldIntoTheSameField) {
  // Set each counter of a partial in turn: `total += partial` must move
  // exactly that field of the total, by the partial's value.
  for (std::size_t target = 0; target < run_counter_count(); ++target) {
    RunCounters total;
    RunCounters partial;
    std::size_t index = 0;
    for_each_counter(
        [&](const char*, std::uint64_t& sum, std::uint64_t& part) {
          sum = 1000 + index;  // distinct, so a field added elsewhere shows
          if (index++ == target) part = 7;
        },
        total, partial);
    const RunCounters before = total;
    EXPECT_EQ(&(total += partial), &total);
    index = 0;
    for_each_counter(
        [&](const char* name, std::uint64_t was, std::uint64_t now) {
          EXPECT_EQ(now, was + (index == target ? 7 : 0))
              << name << " after adding entry " << target;
          ++index;
        },
        before, total);
  }
}

TEST(FirstDivergenceTest, NamesPhaseRow) {
  RunReport a = make_report();
  RunReport b = make_report();
  a.phases.emplace_back("steady", 0, 100, kClasses);
  b.phases.emplace_back("steady", 0, 100, kClasses);
  a.phases[0].packets = 10;
  b.phases[0].packets = 12;
  const auto div = first_divergence(a, b);
  ASSERT_TRUE(div.has_value());
  EXPECT_NE(div->find("steady"), std::string::npos) << *div;
  EXPECT_NE(div->find("packets"), std::string::npos) << *div;

  RunReport c = make_report();
  c.phases.emplace_back("steady", 0, 100, kClasses);
  const auto count_div = first_divergence(a, c);
  ASSERT_TRUE(count_div.has_value());
}

TEST(MajorityVerdictTest, TiesBreakToLowestClassAndAbstainsIgnored) {
  const std::vector<std::int16_t> tie = {2, 1, -1, 1, 2, -1};
  EXPECT_EQ(majority_verdict(std::span<const std::int16_t>(tie), kClasses), 1);

  const std::vector<std::int16_t> all_abstain = {-1, -1, -1};
  EXPECT_EQ(majority_verdict(std::span<const std::int16_t>(all_abstain), kClasses),
            -1);

  // Out-of-range verdicts carry no vote.
  const std::vector<std::int16_t> out_of_range = {5, 5, 5, 0};
  EXPECT_EQ(
      majority_verdict(std::span<const std::int16_t>(out_of_range), kClasses), 0);

  EXPECT_EQ(majority_verdict(std::span<const std::int16_t>(), kClasses), -1);
}

/// Counts harness calls so the loop contract is pinned: one begin_flow per
/// flow, one on_packet per packet, in capture order.
class CountingBackend final : public VerdictBackend {
 public:
  std::string name() const override { return "counting"; }
  void begin_flow() override {
    ++flows;
    packets_this_flow = 0;
  }
  std::int16_t on_packet(const net::PacketFeature&) override {
    ++packets_this_flow;
    return static_cast<std::int16_t>(packets_this_flow % kClasses);
  }
  int flows = 0;
  int packets_this_flow = 0;
};

TEST(VerdictBackendTest, HarnessCallsBeginFlowOncePerFlowAndEveryPacket) {
  trafficgen::FlowSample flow;
  flow.features.resize(5);
  CountingBackend backend;
  const auto v1 = classify_flow_packets(backend, flow);
  const auto v2 = classify_flow_packets(backend, flow);
  EXPECT_EQ(backend.flows, 2);
  EXPECT_EQ(v1.size(), 5u);
  EXPECT_EQ(v1, v2);  // begin_flow must fully reset per-flow state
}

/// Flow-level scheme: per-packet verdicts abstain, flow_verdict answers.
class FlowOnlyBackend final : public VerdictBackend {
 public:
  std::string name() const override { return "flow-only"; }
  void begin_flow() override { packets = 0; }
  std::int16_t on_packet(const net::PacketFeature&) override {
    ++packets;
    return -1;
  }
  std::int16_t flow_verdict() override { return packets > 3 ? 1 : 0; }
  int packets = 0;
};

TEST(VerdictBackendTest, FlowLevelEvaluationPrefersFlowVerdictOverride) {
  std::vector<trafficgen::FlowSample> flows(2);
  flows[0].features.resize(2);
  flows[0].label = 0;
  flows[1].features.resize(6);
  flows[1].label = 1;

  FlowOnlyBackend backend;
  const auto cm = evaluate_flow_level(backend, flows, kClasses);
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(1, 1), 1u);

  // Per-packet evaluation of the same backend sees only abstains.
  const auto pcm = evaluate_packet_level(backend, flows, kClasses);
  EXPECT_EQ(pcm.total(), 8u);
  EXPECT_EQ(pcm.unpredicted(), 8u);
}

/// The five baselines' public entry points are wrappers over their
/// backend(); both routes must agree verdict-for-verdict.
class BaselineBackendParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto profile = trafficgen::DatasetProfile::iscx_vpn();
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 120;
    synth.min_flows_per_class = 8;
    synth.seed = 23;
    flows_ = new std::vector<trafficgen::FlowSample>(
        trafficgen::synthesize_flows(profile, synth));
    classes_ = profile.num_classes();
  }
  static void TearDownTestSuite() { delete flows_; }

  static std::vector<trafficgen::FlowSample>* flows_;
  static std::size_t classes_;
};

std::vector<trafficgen::FlowSample>* BaselineBackendParityTest::flows_ = nullptr;
std::size_t BaselineBackendParityTest::classes_ = 0;

TEST_F(BaselineBackendParityTest, NetBeaconBackendMatchesClassifyPackets) {
  baselines::NetBeacon scheme;
  scheme.train(*flows_, classes_);
  const auto backend = scheme.backend();
  for (const auto& flow : *flows_) {
    EXPECT_EQ(classify_flow_packets(*backend, flow), scheme.classify_packets(flow));
  }
}

TEST_F(BaselineBackendParityTest, LeoBackendMatchesClassifyPackets) {
  baselines::Leo scheme;
  scheme.train(*flows_, classes_);
  const auto backend = scheme.backend();
  for (const auto& flow : *flows_) {
    EXPECT_EQ(classify_flow_packets(*backend, flow), scheme.classify_packets(flow));
  }
}

TEST_F(BaselineBackendParityTest, FlowLensBackendMatchesClassifyFlow) {
  baselines::FlowLens scheme;
  scheme.train(*flows_, classes_);
  const auto backend = scheme.backend();
  for (const auto& flow : *flows_) {
    classify_flow_packets(*backend, flow);
    EXPECT_EQ(backend->flow_verdict(), scheme.classify_flow(flow));
  }
}

TEST_F(BaselineBackendParityTest, BosBackendMatchesClassifyPackets) {
  baselines::BosConfig config;
  config.train.epochs = 1;
  baselines::Bos scheme(config);
  scheme.train(*flows_, classes_);
  const auto backend = scheme.backend();
  for (const auto& flow : *flows_) {
    EXPECT_EQ(classify_flow_packets(*backend, flow), scheme.classify_packets(flow));
  }
}

TEST_F(BaselineBackendParityTest, N3icBackendMatchesClassifyPackets) {
  baselines::N3icConfig config;
  config.train.epochs = 1;
  baselines::N3ic scheme(config);
  scheme.train(*flows_, classes_);
  const auto backend = scheme.backend();
  for (const auto& flow : *flows_) {
    EXPECT_EQ(classify_flow_packets(*backend, flow), scheme.classify_packets(flow));
  }
}

}  // namespace
}  // namespace fenix::core
