// The Flow Tracker (§4.1): per-flow state in switch SRAM register arrays.
//
// The Flow Info Table is keyed by a truncated CRC of the five-tuple and
// stores, per slot: the full 32-bit flow hash (collision detection), backlog
// packet count and timestamp (the C_i / T_i inputs of the Rate Limiter),
// the cached verdict from the Model Engine, the ring-buffer index, and the
// total packet count. A separate hash-register flow counter counts new flows
// per timeout window T_w (Figure 4a); both it and the packet counter are read
// and reset by the control plane each window.
//
// Every register is a plain integer array updated with PISA-legal integer
// operations (compare-and-assign, increment, wrap-aware subtraction), and
// is billed to the switch resource ledger at its hardware width. Storage is
// grouped by coordination lane (core/lane_coordination.hpp): lane l holds
// the slots with slot % kCoordinationLanes == l, at local index
// slot / kCoordinationLanes, and its window counters sit on their own cache
// lines. Packets and results of different lanes can therefore be processed
// concurrently; only reset_window() touches every lane, at an epoch barrier.
#pragma once

#include <cstdint>
#include <vector>

#include "core/lane_coordination.hpp"
#include "net/five_tuple.hpp"
#include "net/hash.hpp"
#include "sim/time.hpp"
#include "switchsim/resources.hpp"

namespace fenix::core {

/// A Model Engine verdict as the switch caches it and the replay accounts it.
/// It resolves to a class once inference completes: a class delivered
/// directly is its own symbol, while the replay's inference stage encodes
/// (generation, lane, sequence). kNoVerdict marks "none".
using VerdictSymbol = std::int64_t;
inline constexpr VerdictSymbol kNoVerdict = -1;

struct FlowTrackerConfig {
  unsigned index_bits = 15;        ///< Flow Info Table slots = 2^index_bits.
  unsigned ring_capacity = 8;      ///< Buffer Manager ring depth (F1..F8).
  unsigned first_stage = 0;        ///< Pipeline stage of the first register.
};

/// Per-packet view of a flow's state after the Flow Tracker update.
struct FlowState {
  std::uint32_t index = 0;        ///< Flow Info Table slot.
  std::uint32_t flow_hash = 0;    ///< 32-bit fingerprint.
  bool new_flow = false;          ///< First packet of a (tracked) flow.
  bool collision_evicted = false; ///< Slot was recycled from another flow.
  std::uint32_t backlog_count = 0;///< C_i: packets since last feature send.
  sim::SimDuration backlog_age = 0;///< T_i: time since last feature send.
  VerdictSymbol verdict = kNoVerdict;///< Cached Model Engine verdict.
  std::uint32_t ring_slot = 0;    ///< buff_idx for this packet's feature.
  std::uint32_t packet_count = 0; ///< Total packets of the flow.
};

class FlowTracker {
 public:
  FlowTracker(switchsim::ResourceLedger& ledger, const FlowTrackerConfig& config);

  std::size_t table_size() const { return table_size_; }
  const FlowTrackerConfig& config() const { return config_; }

  /// Data-plane update for one packet. `now` drives T_i computation (the
  /// tracker stores microsecond-truncated 32-bit timestamps, as the switch
  /// does).
  FlowState on_packet(const net::FiveTuple& tuple, sim::SimTime now) {
    return on_packet(tuple, net::flow_index(tuple, config_.index_bits), now);
  }

  /// on_packet() for a caller that already hashed the tuple to its slot.
  FlowState on_packet(const net::FiveTuple& tuple, std::uint32_t slot,
                      sim::SimTime now);

  /// Marks that the flow in `index` transmitted its features at `now`:
  /// resets bklog_n and bklog_t (the C_i/T_i accumulators).
  void record_feature_sent(std::uint32_t index, sim::SimTime now);

  /// Caches `symbol` for the flow of `tuple` (whose slot is `slot`). Ignored
  /// when the slot has been recycled to a different flow since the mirror
  /// left. Returns true when the verdict was stored.
  bool apply_verdict(const net::FiveTuple& tuple, std::uint32_t slot,
                     VerdictSymbol symbol);

  /// apply_verdict() for a class delivered directly; classes outside the
  /// 8-bit flow_class register's range (0..254) are rejected.
  bool apply_classification(const net::FiveTuple& tuple, std::int16_t cls);

  /// The cached class of a flow whose verdicts are delivered as classes
  /// (-1 when none or the slot belongs to another flow). No state change.
  std::int16_t classification_of(const net::FiveTuple& tuple) const;

  // ---- window statistics (read + reset by the control plane each T_w) ----
  std::uint64_t window_new_flows() const;
  std::uint64_t window_packets() const;
  /// Starts the next window: zeroes the counters and advances the window
  /// epoch that tags the flow-counter hash registers, which clears them
  /// without a pass over every slot.
  void reset_window();

  // ---- diagnostics ----
  std::uint64_t collisions() const;
  std::uint64_t tracked_flows() const;

 private:
  /// One coordination lane's registers (dense over its slots) and counters.
  struct alignas(64) Lane {
    explicit Lane(std::size_t slots);

    std::vector<std::uint32_t> hash;
    std::vector<std::uint32_t> bklog_n;
    std::vector<std::uint32_t> bklog_t;
    std::vector<VerdictSymbol> verdict;
    std::vector<std::uint32_t> buff_idx;
    std::vector<std::uint32_t> pkt_cnt;
    // Flow counter (Figure 4a): the hash register plus the window each entry
    // was written in (window epoch + 1; 0 = never). An entry from an older
    // window reads as cleared.
    std::vector<std::uint32_t> counter_hash;
    std::vector<std::uint32_t> counter_epoch;

    std::uint64_t window_new_flows = 0;
    std::uint64_t window_packets = 0;
    std::uint64_t collisions = 0;
    std::uint64_t tracked_flows = 0;
  };

  static std::uint32_t to_us(sim::SimTime t) {
    return static_cast<std::uint32_t>(t / sim::kMicrosecond);
  }

  FlowTrackerConfig config_;
  std::size_t table_size_;
  std::vector<Lane> lanes_;  ///< kCoordinationLanes entries.
  std::uint32_t window_epoch_ = 0;  ///< Advanced by reset_window() only.
};

}  // namespace fenix::core
