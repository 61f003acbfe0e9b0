#include "core/flow_tracker.hpp"

#include "switchsim/register_array.hpp"

namespace fenix::core {

FlowTracker::Lane::Lane(std::size_t slots)
    : hash(slots, 0), bklog_n(slots, 0), bklog_t(slots, 0),
      verdict(slots, kNoVerdict), buff_idx(slots, 0), pkt_cnt(slots, 0),
      counter_hash(slots, 0), counter_epoch(slots, 0) {}

FlowTracker::FlowTracker(switchsim::ResourceLedger& ledger,
                         const FlowTrackerConfig& config)
    : config_(config), table_size_(std::size_t{1} << config.index_bits) {
  // The ledger bills the hardware registers. The verdict register is the
  // 8-bit flow_class; the flow counter is double-buffered so the control
  // plane can read one copy while the data plane counts in the other (the
  // window epoch tags stand in for that rotation here).
  const unsigned s = config.first_stage;
  switchsim::allocate_register(ledger, "flow_hash", s, table_size_, 32);
  switchsim::allocate_register(ledger, "bklog_n", s + 1, table_size_, 32);
  switchsim::allocate_register(ledger, "bklog_t", s + 1, table_size_, 32);
  switchsim::allocate_register(ledger, "flow_class", s + 2, table_size_, 8);
  switchsim::allocate_register(ledger, "buff_idx", s + 2, table_size_, 8);
  switchsim::allocate_register(ledger, "pkt_cnt", s + 3, table_size_, 32);
  switchsim::allocate_register(ledger, "flow_counter_hash", s, table_size_, 32);
  switchsim::allocate_register(ledger, "flow_counter_hash_shadow", s,
                               table_size_, 32);
  lanes_.reserve(kCoordinationLanes);
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    lanes_.emplace_back(lane_slots(table_size_));
  }
}

FlowState FlowTracker::on_packet(const net::FiveTuple& tuple, std::uint32_t slot,
                                 sim::SimTime now) {
  FlowState state;
  state.flow_hash = net::flow_hash32(tuple);
  state.index = slot;
  Lane& L = lanes_[lane_of_slot(slot)];
  const std::size_t i = lane_index(slot);
  const std::uint32_t now_us = to_us(now);
  ++L.window_packets;

  // Stage 0: fingerprint check-and-claim. The new hash is written when the
  // slot is empty or owned by a different flow (eviction); the old value
  // classifies the case.
  const std::uint32_t old_hash = L.hash[i];
  if (old_hash != state.flow_hash) {
    L.hash[i] = state.flow_hash;
    state.new_flow = true;
    state.collision_evicted = old_hash != 0;
    if (state.collision_evicted) ++L.collisions;
    ++L.tracked_flows;
    // Reset the recycled slot's per-flow state (same-stage writes in the
    // real pipeline).
    L.bklog_n[i] = 0;
    L.bklog_t[i] = now_us;
    L.verdict[i] = kNoVerdict;
    L.buff_idx[i] = 0;
    L.pkt_cnt[i] = 0;
  }

  // Flow counter (Figure 4a): independent hash registers detect flows that
  // are new within the current window.
  const std::uint32_t tag = window_epoch_ + 1;
  const std::uint32_t counted =
      L.counter_epoch[i] == tag ? L.counter_hash[i] : 0;
  if (counted != state.flow_hash) ++L.window_new_flows;
  L.counter_hash[i] = state.flow_hash;
  L.counter_epoch[i] = tag;

  // Stage 1: backlog accumulators. C_i counts packets since the last feature
  // transmission (including this one); T_i is the elapsed time since then,
  // by wrap-aware 32-bit subtraction exactly as the switch ALU computes it.
  state.backlog_count = ++L.bklog_n[i];
  const std::uint32_t age_us = now_us - L.bklog_t[i];
  state.backlog_age = static_cast<sim::SimDuration>(age_us) * sim::kMicrosecond;

  // Stage 2: cached verdict.
  state.verdict = L.verdict[i];

  // Stage 2: ring-buffer index, wrapping without modulo (Figure 4b): reset
  // to 0 when the stored index reaches capacity-1, else increment. The
  // packet uses the *old* value as its write slot.
  state.ring_slot = L.buff_idx[i];
  L.buff_idx[i] =
      state.ring_slot >= config_.ring_capacity - 1 ? 0 : state.ring_slot + 1;

  // Stage 3: total packet count.
  state.packet_count = ++L.pkt_cnt[i];
  return state;
}

void FlowTracker::record_feature_sent(std::uint32_t index, sim::SimTime now) {
  Lane& L = lanes_[lane_of_slot(index)];
  const std::size_t i = lane_index(index);
  L.bklog_n[i] = 0;
  L.bklog_t[i] = to_us(now);
}

bool FlowTracker::apply_verdict(const net::FiveTuple& tuple, std::uint32_t slot,
                                VerdictSymbol symbol) {
  Lane& L = lanes_[lane_of_slot(slot)];
  const std::size_t i = lane_index(slot);
  if (L.hash[i] != net::flow_hash32(tuple)) {
    return false;  // slot recycled while the inference was in flight
  }
  L.verdict[i] = symbol;
  return true;
}

bool FlowTracker::apply_classification(const net::FiveTuple& tuple,
                                       std::int16_t cls) {
  if (cls < 0 || cls > 254) return false;
  return apply_verdict(tuple, net::flow_index(tuple, config_.index_bits), cls);
}

std::int16_t FlowTracker::classification_of(const net::FiveTuple& tuple) const {
  const std::uint32_t slot = net::flow_index(tuple, config_.index_bits);
  const Lane& L = lanes_[lane_of_slot(slot)];
  const std::size_t i = lane_index(slot);
  if (L.hash[i] != net::flow_hash32(tuple)) return -1;
  return static_cast<std::int16_t>(L.verdict[i]);
}

std::uint64_t FlowTracker::window_new_flows() const {
  return sum_lanes(lanes_, &Lane::window_new_flows);
}
std::uint64_t FlowTracker::window_packets() const {
  return sum_lanes(lanes_, &Lane::window_packets);
}
std::uint64_t FlowTracker::collisions() const {
  return sum_lanes(lanes_, &Lane::collisions);
}
std::uint64_t FlowTracker::tracked_flows() const {
  return sum_lanes(lanes_, &Lane::tracked_flows);
}

void FlowTracker::reset_window() {
  for (Lane& lane : lanes_) {
    lane.window_new_flows = 0;
    lane.window_packets = 0;
  }
  ++window_epoch_;
}

}  // namespace fenix::core
