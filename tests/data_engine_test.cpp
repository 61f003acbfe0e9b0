// Tests for the Data Engine: per-packet orchestration, rate limiting under
// load, control-plane window maintenance, and the preliminary classifier.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/data_engine.hpp"

namespace fenix::core {
namespace {

net::PacketRecord make_packet(std::uint16_t port, sim::SimTime t,
                              std::uint16_t length = 500) {
  net::PacketRecord p;
  p.tuple.src_ip = 0x0a000001;
  p.tuple.dst_ip = 0xac100001;
  p.tuple.src_port = port;
  p.tuple.dst_port = 443;
  p.tuple.proto = 6;
  p.timestamp = t;
  p.orig_timestamp = t;
  p.wire_length = length;
  return p;
}

DataEngineConfig small_config() {
  DataEngineConfig config;
  config.tracker.index_bits = 12;
  config.initial_flow_count = 4;
  config.initial_packet_rate = 1e5;
  return config;
}

TEST(DataEngine, TracksFlowsAndComputesIpd) {
  DataEngine engine(small_config());
  engine.on_packet(make_packet(1, sim::microseconds(0)));
  const auto out = engine.on_packet(make_packet(1, sim::microseconds(100)));
  EXPECT_FALSE(out.flow.new_flow);
  EXPECT_EQ(out.flow.packet_count, 2u);
  EXPECT_EQ(engine.packets_seen(), 2u);
}

TEST(DataEngine, UnknownFlowHasNoForwardClassWithoutTree) {
  DataEngine engine(small_config());
  const auto out = engine.on_packet(make_packet(2, 0));
  EXPECT_EQ(out.forward_class, -1);
  EXPECT_FALSE(out.from_model_engine);
}

TEST(DataEngine, DeliveredResultDrivesForwarding) {
  DataEngine engine(small_config());
  const auto p = make_packet(3, sim::microseconds(1));
  engine.on_packet(p);
  net::InferenceResult result;
  result.tuple = p.tuple;
  result.predicted_class = 4;
  EXPECT_TRUE(engine.deliver_result(result));
  const auto out = engine.on_packet(make_packet(3, sim::microseconds(2)));
  EXPECT_EQ(out.forward_class, 4);
  EXPECT_TRUE(out.from_model_engine);
  EXPECT_EQ(engine.results_applied(), 1u);
}

TEST(DataEngine, StaleResultCounted) {
  DataEngine engine(small_config());
  net::InferenceResult result;
  result.tuple = make_packet(4, 0).tuple;  // flow never seen
  result.predicted_class = 1;
  EXPECT_FALSE(engine.deliver_result(result));
  EXPECT_EQ(engine.results_stale(), 1u);
}

TEST(DataEngine, MirrorCarriesSequenceHistory) {
  auto config = small_config();
  // Make the limiter permissive: tiny flow count, huge token rate.
  config.fpga_inference_rate_hz = 1e9;
  config.initial_flow_count = 1;
  DataEngine engine(config);
  std::optional<net::FeatureVector> last;
  for (int i = 0; i < 40; ++i) {
    auto out = engine.on_packet(
        make_packet(5, static_cast<sim::SimTime>(i) * sim::milliseconds(1),
                    static_cast<std::uint16_t>(100 + i)));
    if (out.mirrored) last = *out.mirrored;
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_GE(last->sequence.size(), 2u);
  EXPECT_LE(last->sequence.size(), 9u);
  // The newest feature is the current packet's.
  EXPECT_GE(last->sequence.back().length, 100);
}

TEST(DataEngine, MirrorRateBoundedByTokenRate) {
  auto config = small_config();
  config.fpga_inference_rate_hz = 1e4;     // V = 10k/s
  config.channel_bandwidth_bps = 100e9;
  DataEngine engine(config);
  // Offer 100k pps from many flows for 1 simulated second.
  sim::SimTime now = 0;
  for (int i = 0; i < 100'000; ++i) {
    now += sim::microseconds(10);
    engine.control_plane_tick(now);
    engine.on_packet(make_packet(static_cast<std::uint16_t>(i % 997), now));
  }
  const double rate =
      static_cast<double>(engine.mirrors_sent()) / sim::to_seconds(now);
  EXPECT_LE(rate, 1.15e4);
  EXPECT_GT(rate, 1e3);  // the limiter must not starve entirely
}

TEST(DataEngine, ControlPlaneRefreshesStatistics) {
  auto config = small_config();
  config.window_tw = sim::milliseconds(10);
  DataEngine engine(config);
  for (int i = 0; i < 100; ++i) {
    engine.on_packet(make_packet(static_cast<std::uint16_t>(i % 10),
                                 static_cast<sim::SimTime>(i) * sim::microseconds(100)));
  }
  engine.control_plane_tick(sim::milliseconds(15));
  // After the tick the table reflects the measured N (10 flows).
  EXPECT_NEAR(engine.prob_table().stats().flow_count_n, 10.0, 0.5);
  EXPECT_GT(engine.prob_table().stats().packet_rate_q, 1000.0);
  // Window counters were reset.
  EXPECT_EQ(engine.tracker().window_packets(), 0u);
}

TEST(DataEngine, ControlPlaneTickIdempotentWithinWindow) {
  auto config = small_config();
  config.window_tw = sim::milliseconds(50);
  DataEngine engine(config);
  engine.on_packet(make_packet(1, sim::microseconds(1)));
  engine.control_plane_tick(sim::milliseconds(60));
  const double n1 = engine.prob_table().stats().flow_count_n;
  engine.control_plane_tick(sim::milliseconds(61));  // same window: no-op
  EXPECT_EQ(engine.prob_table().stats().flow_count_n, n1);
}

TEST(DataEngine, PreliminaryTreeClassifiesUnknownFlows) {
  // Train a trivial tree: length <= 300 -> class 0, else class 1.
  trees::Dataset data;
  data.dim = 2;
  for (int i = 0; i < 200; ++i) {
    const float len = static_cast<float>(i % 2 == 0 ? 100 : 1200);
    const float row[2] = {len, 0.0f};
    data.add_row(row, i % 2 == 0 ? 0 : 1);
  }
  trees::DecisionTree tree;
  trees::TreeConfig tree_config;
  tree_config.max_depth = 2;
  tree.fit(data, 2, tree_config);

  DataEngine engine(small_config());
  engine.install_preliminary_tree(tree);
  const auto small = engine.on_packet(make_packet(7, 0, 100));
  EXPECT_EQ(small.forward_class, 0);
  EXPECT_FALSE(small.from_model_engine);
  const auto large = engine.on_packet(make_packet(8, sim::microseconds(1), 1200));
  EXPECT_EQ(large.forward_class, 1);
}

TEST(DataEngine, CachedVerdictOverridesPreliminaryTree) {
  trees::Dataset data;
  data.dim = 2;
  const float row[2] = {100.0f, 0.0f};
  data.add_row(row, 0);
  trees::DecisionTree tree;
  tree.fit(data, 2, {});

  DataEngine engine(small_config());
  engine.install_preliminary_tree(tree);
  const auto p = make_packet(9, 0);
  engine.on_packet(p);
  net::InferenceResult result;
  result.tuple = p.tuple;
  result.predicted_class = 1;
  engine.deliver_result(result);
  const auto out = engine.on_packet(make_packet(9, sim::microseconds(5)));
  EXPECT_EQ(out.forward_class, 1);
  EXPECT_TRUE(out.from_model_engine);
}

TEST(DataEngine, ResourceFootprintFitsTofino2) {
  DataEngineConfig config;
  config.tracker.index_bits = 15;  // production-size table
  DataEngine engine(config);
  const auto& ledger = engine.ledger();
  EXPECT_LT(ledger.sram_fraction(), 0.5);
  EXPECT_LE(ledger.stages_used(), 12u);
}

TEST(DataEngine, LedgerPinsTable3Allocations) {
  // The deployed program at index_bits 15 and ring depth 8: the exact
  // allocation list behind the FENIX row of Table 3. Registers bill
  // entries x width x 9/8 SRAM bits and their width in action-bus bits.
  DataEngineConfig config;
  config.tracker.index_bits = 15;
  config.tracker.ring_capacity = 8;
  DataEngine engine(config);
  const switchsim::ResourceLedger& ledger = engine.ledger();

  struct Expected {
    const char* owner;
    unsigned stage;
    std::uint64_t sram_bits;
    std::uint64_t bus_bits;
  };
  const std::vector<Expected> expected = {
      {"register:flow_hash", 0, 1'179'648, 32},
      {"register:bklog_n", 1, 1'179'648, 32},
      {"register:bklog_t", 1, 1'179'648, 32},
      {"register:flow_class", 2, 294'912, 8},
      {"register:buff_idx", 2, 294'912, 8},
      {"register:pkt_cnt", 3, 1'179'648, 32},
      {"register:flow_counter_hash", 0, 1'179'648, 32},
      {"register:flow_counter_hash_shadow", 0, 1'179'648, 32},
      {"feature_rings", 5, 9'437'184, 256},
      {"register:feature_last_t", 4, 1'179'648, 32},
      {"prob_lookup_table", 7, 65'536, 16},
      {"token_bucket", 8, 192, 320},
  };
  const auto& allocations = ledger.allocations();
  ASSERT_EQ(allocations.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(allocations[i].owner, expected[i].owner) << i;
    EXPECT_EQ(allocations[i].stage, expected[i].stage) << expected[i].owner;
    EXPECT_EQ(allocations[i].sram_bits, expected[i].sram_bits)
        << expected[i].owner;
    EXPECT_EQ(allocations[i].tcam_bits, 0u) << expected[i].owner;
    EXPECT_EQ(allocations[i].bus_bits, expected[i].bus_bits)
        << expected[i].owner;
  }
  EXPECT_EQ(ledger.sram_bits_used(), 18'350'272u);
  EXPECT_EQ(ledger.tcam_bits_used(), 0u);
  EXPECT_EQ(ledger.bus_bits_used(), 832u);
  EXPECT_EQ(ledger.stages_used(), 9u);
}

TEST(DataEngine, RejectsZeroDepthRing) {
  // A zero-depth ring has no slot for the current feature to land in.
  DataEngineConfig config = small_config();
  config.tracker.ring_capacity = 0;
  EXPECT_THROW(DataEngine{config}, std::invalid_argument);
}

TEST(DataEngine, UsesOrigTimestampsForIpd) {
  auto config = small_config();
  config.fpga_inference_rate_hz = 1e9;
  config.initial_flow_count = 1;
  DataEngine engine(config);
  // Replay-accelerated packets: wall gap 1 us, original gap 1 ms.
  std::optional<net::FeatureVector> mirror;
  for (int i = 0; i < 30; ++i) {
    auto p = make_packet(11, static_cast<sim::SimTime>(i) * sim::microseconds(1));
    p.orig_timestamp = static_cast<sim::SimTime>(i) * sim::milliseconds(1);
    auto out = engine.on_packet(p);
    if (out.mirrored) mirror = *out.mirrored;
  }
  ASSERT_TRUE(mirror.has_value());
  ASSERT_GE(mirror->sequence.size(), 2u);
  // Features must encode ~1 ms (1000 us), not 1 us.
  const auto code = mirror->sequence.back().ipd_code;
  EXPECT_NEAR(net::decode_ipd_us(code), 1000.0, 40.0);
}

}  // namespace
}  // namespace fenix::core
