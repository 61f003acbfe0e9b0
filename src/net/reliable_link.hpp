// Reliable framing over one switch<->FPGA channel.
//
// Wraps a sim::Channel with the transport the FENIX board needs but the raw
// link does not give: sequence numbers, checksummed frames (net/frame.hpp), a
// bounded receiver-side reorder window with duplicate suppression, and a
// NACK-driven retransmit loop paced by a deterministic token bucket. An
// epoch tag resynchronizes the stream after an FPGA reboot: resync() bumps
// the epoch, and frames stamped with a dead epoch are discarded by the
// consumer (core::ReplayCore checks SendOutcome::epoch on delivery).
//
// The model is synchronous to match the rest of the simulator: send() walks
// the whole attempt/NACK/retransmit exchange for one frame and returns either
// the in-order *release* time at the far end or a drop with a reason. Every
// frame offered to send() is therefore delivered exactly once or accounted in
// exactly one drop counter — the conservation law the chaos harness checks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/frame.hpp"
#include "sim/channel.hpp"
#include "sim/pacing_bucket.hpp"
#include "sim/time.hpp"

namespace fenix::net {

/// Why a frame was not delivered. Exactly one reason per dropped frame.
enum class DropReason : std::uint8_t {
  kNone = 0,     ///< Delivered.
  kLost = 1,     ///< Lost in flight, retransmit budget exhausted.
  kCorrupt = 2,  ///< Arrived corrupt, retransmit budget exhausted.
  kPacer = 3,    ///< Repair abandoned: NACK pacer had no token.
  kWindow = 4,   ///< Reorder window full at arrival.
};

const char* drop_reason_name(DropReason reason);

/// Counters for one direction of the reliable path. `data_frames` counts
/// logical frames offered to send(); physical re-sends are `retransmits`.
/// Conservation: data_frames == delivered + drops_lost + drops_corrupt +
/// drops_pacer + window_overflow_drops.
struct ReliableLinkStats {
  std::uint64_t data_frames = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;      ///< NACK-triggered physical re-sends.
  std::uint64_t nacks = 0;            ///< Negative acks raised by the receiver.
  std::uint64_t corrupt_drops = 0;    ///< Arrivals failing frame verify().
  std::uint64_t dup_suppressed = 0;   ///< Duplicate copies discarded by seq.
  std::uint64_t reorder_held = 0;     ///< Frames parked awaiting earlier seqs.
  std::uint64_t window_overflow_drops = 0;
  std::uint64_t drops_lost = 0;
  std::uint64_t drops_corrupt = 0;
  std::uint64_t drops_pacer = 0;
  std::uint64_t peak_window = 0;      ///< Max reorder-window occupancy seen.
  std::uint64_t resyncs = 0;          ///< Epoch bumps (FPGA reboots).
  std::uint64_t monotone_violations = 0;  ///< Release-time inversions (must be 0).

  /// Merge: counters summed, peak_window maxed.
  ReliableLinkStats& operator+=(const ReliableLinkStats& other);
  /// What accrued since `start`: counters subtracted; peak_window stays
  /// this snapshot's high-water mark.
  ReliableLinkStats operator-(const ReliableLinkStats& start) const;
};

/// What happened to one logical frame.
struct SendOutcome {
  std::optional<sim::SimTime> delivered_at;  ///< In-order release time.
  DropReason reason = DropReason::kNone;
  std::uint16_t epoch = 0;   ///< Epoch the frame was stamped with.
  unsigned attempts = 0;     ///< Physical transmissions (1 + retransmits).
};

class ReliableLink {
 public:
  struct Config {
    /// Receiver-side reorder window, in frames. Arrivals that would push the
    /// held-frame count past this bound are dropped (kWindow).
    std::size_t reorder_window = 32;
    /// NACK-driven re-sends allowed per frame. 0 degenerates to the bare
    /// lossy channel (one shot, no repair).
    unsigned max_retransmits = 0;
    /// Pacing for NACK-triggered repairs (shared PR 2 token-bucket shape).
    double nack_rate_hz = 500e3;
    double nack_burst = 64.0;
    /// Receiver turnaround between noticing a bad/missing frame and the
    /// repair copy leaving the sender (NACK transit + scheduler latency).
    sim::SimDuration nack_turnaround = sim::microseconds(2);
  };

  ReliableLink(sim::Channel& channel, const Config& cfg)
      : chan_(channel),
        cfg_(cfg),
        nack_bucket_(cfg.nack_rate_hz, cfg.nack_burst) {}

  /// Sends one logical frame of `payload_bytes` at `now`. Walks loss /
  /// corruption / reorder / duplication and the NACK-repair loop; returns the
  /// in-order release time at the far end, or the drop reason.
  SendOutcome send(sim::SimTime now, std::size_t payload_bytes);

  /// Starts a new epoch after an FPGA reboot at time `now`: in-flight frames
  /// of the old epoch become stale (the consumer discards them on delivery)
  /// and the reorder window is flushed.
  void resync(sim::SimTime now);

  /// True when a frame stamped with `epoch` reaching the consumer at `at` is
  /// stale: its epoch has ended and the delivery happens at or after the
  /// reset that ended it. A frame delivered *before* the reset instant was
  /// consumed in time and is not stale, even if a later resync retired its
  /// epoch before the consumer's event pump caught up.
  bool stale(std::uint16_t epoch, sim::SimTime at) const {
    return epoch < epoch_ && at >= epoch_ends_[epoch];
  }

  std::uint16_t epoch() const { return epoch_; }
  const ReliableLinkStats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }
  sim::Channel& channel() { return chan_; }
  const sim::Channel& channel() const { return chan_; }

 private:
  void purge_window(sim::SimTime arrival);

  sim::Channel& chan_;
  Config cfg_;
  sim::PacingBucket nack_bucket_;
  std::uint32_t next_seq_ = 0;
  std::uint16_t epoch_ = 0;
  std::vector<sim::SimTime> epoch_ends_;  ///< epoch_ends_[e] = reset ending epoch e.
  sim::SimTime last_release_ = 0;
  std::vector<sim::SimTime> window_;  ///< Release times of held frames.
  ReliableLinkStats stats_;
};

}  // namespace fenix::net
