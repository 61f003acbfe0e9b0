// Overload-resilient admission control: a deterministic load-shedding ladder
// between the Rate Limiter's mirror grant and the actual mirror emission.
//
// The paper's FENIX design assumes the Model Engine keeps up with the mirror
// stream; the open-loop scenario presets (flash crowd, DDoS flood) can offer
// load far past that point. Instead of queueing blind until the inference
// FIFO drops, the AdmissionController tracks offered-vs-served pressure per
// reconcile epoch and walks a shedding ladder with hysteresis:
//
//   tier 0  full inference — every granted mirror is emitted
//   tier 1  probabilistic thinning — a fixed fraction of the flow-key hash
//           space loses its mirrors (whole flows, never per-packet jitter,
//           so verdict streams stay coherent)
//   tier 2  new-flow freeze — flows born while frozen never get mirrors;
//           established flows keep full inference
//   tier 3  victim isolation — flows targeting the detected hot destination
//           (the DDoS victim) are diverted to the TCAM fallback tree; the
//           rest of traffic keeps full inference
//   tier 4  board-wide degrade — HealthWatchdog::force_degrade pins the
//           switch-local ladder, and the degraded probe stride sheds
//           mirrors for everyone
//
// Tiers are cumulative (tier 3 also thins and freezes) with attribution
// precedence isolate > freeze > thin, so every shed grant is charged to
// exactly one counter and the conservation law
//
//   offered == admitted + shed_thinned + shed_frozen + shed_isolated
//              + mirrors_suppressed
//
// is enforced as a standard invariant (`shed-conservation`).
//
// Determinism: the ladder tier, the pinned victim, and the frozen bits are
// *epoch-barrier-published* state in the LaneWatchdog mold — per-packet
// decisions between barriers read only published values plus lane-owned
// state (a flow's frozen bit lives in its flow-table slot, touched only by
// the slot's lane owner), and the pressure fold + tier walk run at the
// barrier in canonical lane order. Serial and pipelined replays therefore
// decide identically and RunReport stays bit-identical at any pipe count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/lane_coordination.hpp"
#include "core/run_counters.hpp"
#include "sim/time.hpp"

namespace fenix::core {

struct AdmissionConfig {
  /// Gates the *ladder* only. Offered/admitted/shed accounting always runs,
  /// so the shed-conservation invariant holds whether or not shedding is
  /// armed (with every shed counter zero when disabled).
  bool enabled = false;

  /// Epoch pressure (fifo drops + deadline misses per offered grant) at or
  /// above which an epoch counts toward escalation.
  double enter_pressure = 0.02;
  /// Epoch pressure at or below which an epoch counts toward de-escalation.
  /// Must sit below enter_pressure; the band between the two is hysteresis
  /// dead space that resets both streaks.
  double exit_pressure = 0.005;
  /// Consecutive qualifying epochs required to climb one tier.
  unsigned enter_epochs = 2;
  /// Consecutive calm epochs required to descend one tier (longer than
  /// enter_epochs so recovery is the slow direction).
  unsigned exit_epochs = 4;

  /// Tier >= 1: fraction of the flow-key hash space whose mirrors are shed.
  double thin_fraction = 0.5;

  /// Tier 3 pin rule: the majority-candidate destination qualifies as the
  /// victim when its residual count covers at least this share of the
  /// epoch's offered grants...
  double victim_min_share = 0.05;
  /// ...and at least this many grants in absolute terms (guards tiny epochs).
  std::uint64_t victim_min_count = 32;

  /// Size of the frozen-flow bit table — the flow tracker's slot count
  /// (1 << index_bits). The replay driver fills this in; 0 disables the
  /// freeze tier's bookkeeping.
  std::size_t table_slots = 0;
};

class AdmissionController {
 public:
  static constexpr unsigned kTopTier = 4;

  explicit AdmissionController(const AdmissionConfig& config);

  // ---- data path (lane owner only, between barriers) ----

  /// A flow was born (its flow-table slot claimed, including collision
  /// re-claims): stamp its frozen bit from the published tier.
  void on_new_flow(std::size_t slot) {
    if (slot < frozen_.size()) {
      frozen_[slot] = published_tier_ >= 2 ? std::uint8_t{1} : std::uint8_t{0};
    }
  }

  /// A mirror grant was presented (the token bucket said yes). Returns true
  /// when the grant is admitted toward emission; otherwise exactly one shed
  /// counter has been charged.
  bool on_grant(std::size_t lane, std::uint64_t flow_hash, std::size_t slot,
                std::uint32_t dst_ip) {
    LaneState& L = lanes_[lane];
    ++L.offered;
    ++L.epoch_offered;
    // Boyer-Moore majority vote over this epoch's offered destinations —
    // lane-local, so the fold at the barrier is deterministic.
    if (L.cand_count == 0) {
      L.cand_ip = dst_ip;
      L.cand_count = 1;
    } else if (L.cand_ip == dst_ip) {
      ++L.cand_count;
    } else {
      --L.cand_count;
    }
    const unsigned tier = published_tier_;
    if (tier >= 3 && victim_pinned_ && dst_ip == victim_ip_) {
      ++L.shed_isolated;
      return false;
    }
    if (tier >= 2 && slot < frozen_.size() && frozen_[slot] != 0) {
      ++L.shed_frozen;
      return false;
    }
    if (tier >= 1 && thinned(flow_hash)) {
      ++L.shed_thinned;
      return false;
    }
    return true;
  }

  /// The admitted grant actually became a mirror (ReplayCore::emit_mirror).
  /// Counted there — after the degraded probe stride — so that
  /// admitted == RunReport.mirrors holds exactly and stride suppressions
  /// stay attributed to mirrors_suppressed.
  void note_admitted(std::size_t lane) { ++lanes_[lane].admitted; }

  /// Whole-flow thinning decision for tier >= 1 (exposed for tests).
  bool thinned(std::uint64_t flow_hash) const {
    return (mix(flow_hash ^ kThinSalt) & 0xffffu) < thin_threshold_;
  }

  // ---- barrier (coordinator only) ----

  /// Feed one lane's cumulative pressure inputs (ReplayCore's per-lane
  /// inference-FIFO drop and deadline-miss counters); the controller keeps
  /// last-barrier snapshots and accumulates the epoch delta. Call for every
  /// lane in canonical order, then advance with reconcile().
  void observe_lane(std::size_t lane, std::uint64_t cum_fifo_drops,
                    std::uint64_t cum_deadline_misses);

  /// Fold the epoch, walk the ladder one step at most, publish the new tier.
  /// Returns true exactly when tier 4 was entered this barrier — the caller
  /// forces the board-wide watchdog degrade (kept outside so the controller
  /// has no watchdog dependency).
  bool reconcile(sim::SimTime now);

  // ---- published / merged state ----

  unsigned tier() const { return published_tier_; }
  unsigned peak_tier() const { return peak_tier_; }
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t reconciles() const { return reconciles_; }
  bool victim_pinned() const { return victim_pinned_; }
  std::uint32_t victim_ip() const { return victim_ip_; }

  /// The admission partial report: the offered / admitted / shed totals
  /// summed in lane order, plus admission_transitions and
  /// admission_peak_tier. Every other counter is zero.
  RunCounters totals() const;

  const AdmissionConfig& config() const { return config_; }

  static const char* tier_name(unsigned tier);

 private:
  // Salt decorrelates the thinning hash from the flow-table index hash so
  // tier 1 does not systematically shed one slice of the table.
  static constexpr std::uint64_t kThinSalt = 0x5ad0'5ad0'5ad0'5ad0ULL;

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  struct alignas(64) LaneState {
    // Cumulative attribution counters (merged in lane order).
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed_thinned = 0;
    std::uint64_t shed_frozen = 0;
    std::uint64_t shed_isolated = 0;
    // Epoch-local scratch, consumed and reset at each barrier.
    std::uint64_t epoch_offered = 0;
    std::uint32_t cand_ip = 0;
    std::uint64_t cand_count = 0;
    // Last-barrier snapshots of the cumulative pressure inputs.
    std::uint64_t seen_fifo_drops = 0;
    std::uint64_t seen_deadline_misses = 0;
  };

  AdmissionConfig config_;
  std::uint32_t thin_threshold_ = 0;  ///< thin_fraction in 16-bit fixed point.
  // One byte per flow-table slot (NOT vector<bool>: adjacent slots belong to
  // different lanes, hence different pipe threads, and must not share bits).
  std::vector<std::uint8_t> frozen_;
  std::array<LaneState, kCoordinationLanes> lanes_;

  // Barrier-published ladder state.
  unsigned published_tier_ = 0;
  unsigned peak_tier_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t reconciles_ = 0;
  bool victim_pinned_ = false;
  std::uint32_t victim_ip_ = 0;

  // Hysteresis streaks + epoch pressure accumulator (coordinator-only).
  unsigned above_streak_ = 0;
  unsigned below_streak_ = 0;
  std::uint64_t epoch_pressure_events_ = 0;
};

}  // namespace fenix::core
