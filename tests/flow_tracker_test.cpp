// Tests for the Flow Tracker: flow table semantics, collision eviction,
// backlog accounting, ring-index wrap, classification caching, and the
// per-window flow counter.
#include <gtest/gtest.h>

#include "core/flow_tracker.hpp"
#include "switchsim/chip.hpp"

namespace fenix::core {
namespace {

net::FiveTuple tuple_with_port(std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0xac100001;
  t.src_port = port;
  t.dst_port = 443;
  t.proto = 6;
  return t;
}

class FlowTrackerTest : public ::testing::Test {
 protected:
  FlowTrackerTest() : ledger_(switchsim::ChipProfile::tofino2()) {
    FlowTrackerConfig config;
    config.index_bits = 10;  // small table to provoke collisions
    config.ring_capacity = 8;
    tracker_ = std::make_unique<FlowTracker>(ledger_, config);
  }
  switchsim::ResourceLedger ledger_;
  std::unique_ptr<FlowTracker> tracker_;
};

TEST_F(FlowTrackerTest, NewFlowDetected) {
  const auto state = tracker_->on_packet(tuple_with_port(1000), sim::microseconds(5));
  EXPECT_TRUE(state.new_flow);
  EXPECT_FALSE(state.collision_evicted);
  EXPECT_EQ(state.packet_count, 1u);
  EXPECT_EQ(state.backlog_count, 1u);
  EXPECT_EQ(state.verdict, -1);
  EXPECT_EQ(tracker_->tracked_flows(), 1u);
}

TEST_F(FlowTrackerTest, SecondPacketSameFlow) {
  const auto t = tuple_with_port(1000);
  tracker_->on_packet(t, sim::microseconds(5));
  const auto state = tracker_->on_packet(t, sim::microseconds(25));
  EXPECT_FALSE(state.new_flow);
  EXPECT_EQ(state.packet_count, 2u);
  EXPECT_EQ(state.backlog_count, 2u);
  EXPECT_EQ(state.backlog_age, sim::microseconds(20));
}

TEST_F(FlowTrackerTest, RingSlotWrapsWithoutModulo) {
  const auto t = tuple_with_port(2000);
  for (unsigned i = 0; i < 20; ++i) {
    const auto state = tracker_->on_packet(t, sim::microseconds(i));
    EXPECT_EQ(state.ring_slot, i % 8) << "packet " << i;
  }
}

TEST_F(FlowTrackerTest, FeatureSentResetsBacklog) {
  const auto t = tuple_with_port(3000);
  const auto s1 = tracker_->on_packet(t, sim::microseconds(10));
  tracker_->on_packet(t, sim::microseconds(20));
  tracker_->record_feature_sent(s1.index, sim::microseconds(20));
  const auto s3 = tracker_->on_packet(t, sim::microseconds(30));
  EXPECT_EQ(s3.backlog_count, 1u);
  EXPECT_EQ(s3.backlog_age, sim::microseconds(10));
}

TEST_F(FlowTrackerTest, ClassificationCached) {
  const auto t = tuple_with_port(4000);
  tracker_->on_packet(t, sim::microseconds(1));
  EXPECT_TRUE(tracker_->apply_classification(t, 5));
  const auto state = tracker_->on_packet(t, sim::microseconds(2));
  EXPECT_EQ(state.verdict, 5);
  EXPECT_EQ(tracker_->classification_of(t), 5);
}

TEST_F(FlowTrackerTest, ClassZeroRoundTrips) {
  const auto t = tuple_with_port(4001);
  tracker_->on_packet(t, sim::microseconds(1));
  EXPECT_TRUE(tracker_->apply_classification(t, 0));
  EXPECT_EQ(tracker_->classification_of(t), 0);
}

TEST_F(FlowTrackerTest, StaleClassificationRejected) {
  // A verdict for a flow that never hit the table (or was evicted) must not
  // be stored.
  const auto t = tuple_with_port(5000);
  EXPECT_FALSE(tracker_->apply_classification(t, 3));
  EXPECT_EQ(tracker_->classification_of(t), -1);
}

TEST_F(FlowTrackerTest, CollisionEvicts) {
  // Find two tuples that collide in the 10-bit index space.
  const auto base = tuple_with_port(1);
  const std::uint32_t target = net::flow_index(base, 10);
  net::FiveTuple other;
  bool found = false;
  for (std::uint16_t port = 2; port < 60000; ++port) {
    other = tuple_with_port(port);
    if (net::flow_index(other, 10) == target &&
        net::flow_hash32(other) != net::flow_hash32(base)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  tracker_->on_packet(base, sim::microseconds(1));
  tracker_->apply_classification(base, 2);
  const auto state = tracker_->on_packet(other, sim::microseconds(2));
  EXPECT_TRUE(state.new_flow);
  EXPECT_TRUE(state.collision_evicted);
  EXPECT_EQ(state.verdict, -1);  // evicted state reset
  EXPECT_EQ(tracker_->collisions(), 1u);
  // The original flow's verdict is gone and can no longer be applied.
  EXPECT_EQ(tracker_->classification_of(base), -1);
  EXPECT_FALSE(tracker_->apply_classification(base, 2));
}

TEST_F(FlowTrackerTest, WindowCountersAndReset) {
  for (std::uint16_t port = 100; port < 150; ++port) {
    tracker_->on_packet(tuple_with_port(port), sim::microseconds(port));
  }
  // 50 distinct flows, one packet each (collisions in a 1024-slot table are
  // possible but counted as new flows either way).
  EXPECT_EQ(tracker_->window_new_flows(), 50u);
  EXPECT_EQ(tracker_->window_packets(), 50u);

  tracker_->reset_window();
  EXPECT_EQ(tracker_->window_new_flows(), 0u);
  EXPECT_EQ(tracker_->window_packets(), 0u);

  // Existing flows are re-counted in the next window (the paper counts flows
  // that send packets within each interval).
  tracker_->on_packet(tuple_with_port(100), sim::milliseconds(1));
  EXPECT_EQ(tracker_->window_new_flows(), 1u);
}

TEST_F(FlowTrackerTest, ChargesSwitchResources) {
  // Six 1024-entry register arrays plus the counter hashes.
  EXPECT_GT(ledger_.sram_bits_used(), 0u);
  EXPECT_GE(ledger_.stages_used(), 4u);
}

TEST(FlowTrackerTiming, TimestampWrapHandled) {
  switchsim::ResourceLedger ledger(switchsim::ChipProfile::tofino2());
  FlowTrackerConfig config;
  config.index_bits = 8;
  FlowTracker tracker(ledger, config);
  const auto t = tuple_with_port(1);
  // First packet just before the 32-bit microsecond counter wraps (~71.6 min).
  const sim::SimTime before_wrap = sim::microseconds(0xFFFFFFF0ULL);
  tracker.on_packet(t, before_wrap);
  tracker.record_feature_sent(net::flow_index(t, 8), before_wrap);
  const auto state = tracker.on_packet(t, before_wrap + sim::microseconds(0x20));
  EXPECT_EQ(state.backlog_age, sim::microseconds(0x20));
}

}  // namespace
}  // namespace fenix::core
