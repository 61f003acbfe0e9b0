// Point-to-point link model.
//
// Models the serialization + propagation behaviour of the board-level links in
// the FENIX prototype: the 100G PCB channels between the Tofino and the FPGA,
// the front-panel optical ports, and (for the FlowLens baseline) a PCIe +
// kernel-software path. A transfer occupies the link for bits/rate seconds and
// arrives after an additional fixed propagation delay; back-to-back transfers
// queue behind one another (store-and-forward).
//
// Beyond clean delivery the channel models four seeded signal-integrity
// faults, each with an independently tunable rate and its own counter:
//   loss       the frame never arrives (CRC drop at the far MAC);
//   corruption the frame arrives with flipped bits (caught by the framing
//              checksum one layer up, net::ReliableLink);
//   reorder    the frame is delayed by `reorder_delay`, overtaken by later
//              traffic (lane skew / retimer hiccup across the PCB lanes);
//   duplicate  a second copy of the frame arrives back-to-back.
// All draws come from one RandomStream owned by the channel, and a mutator
// whose rate is zero consumes no randomness — so enabling a new fault never
// perturbs the replay of a schedule that does not use it.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace fenix::sim {

/// Statistics for a Channel. One counter per fault mode, split so the chaos
/// harness can conserve frames by cause (a corrupted frame *arrives* and is
/// dropped by the receiver's checksum; a lost frame never arrives).
struct ChannelStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  std::uint64_t losses = 0;        ///< Frames dropped in flight (never arrive).
  std::uint64_t corruptions = 0;   ///< Frames delivered with flipped bits.
  std::uint64_t duplicates = 0;    ///< Extra copies delivered.
  std::uint64_t reorders = 0;      ///< Frames delivered late (overtaken).
  SimDuration busy_time = 0;       ///< Total serialization time.
  SimDuration max_queueing = 0;    ///< Worst-case wait behind earlier transfers.

  /// Merge: counters summed, max_queueing maxed.
  ChannelStats& operator+=(const ChannelStats& o) {
    transfers += o.transfers;
    bytes += o.bytes;
    losses += o.losses;
    corruptions += o.corruptions;
    duplicates += o.duplicates;
    reorders += o.reorders;
    busy_time += o.busy_time;
    if (o.max_queueing > max_queueing) max_queueing = o.max_queueing;
    return *this;
  }
};

/// Everything that happened to one transfer_chaos() frame. `arrival` is the
/// time the frame reaches the far end (including any reorder delay) and is
/// meaningful even when `lost` — it is the instant the receiver *would* have
/// seen the frame, which the reliable link uses to time its NACK.
struct ChaosTransfer {
  SimTime arrival = 0;
  bool lost = false;
  bool corrupted = false;
  std::uint64_t corrupt_entropy = 0;  ///< Bit-flip selector for the frame layer.
  bool reordered = false;
  std::optional<SimTime> duplicate_at;  ///< Second copy's arrival, if any.
};

/// A unidirectional link with finite bandwidth and fixed propagation delay.
/// An optional loss rate models signal-integrity faults (CRC-dropped frames):
/// lost transfers still occupy the link but never arrive.
class Channel {
 public:
  /// `bits_per_second` is the line rate; `propagation` is the fixed one-way
  /// delay (PCB trace / optical fibre / bus crossing).
  Channel(double bits_per_second, SimDuration propagation, double loss_rate = 0.0,
          std::uint64_t loss_seed = 0xc4a2)
      : propagation_(propagation), loss_rng_(loss_seed) {
    set_bits_per_second(bits_per_second);
    set_loss_rate(loss_rate);
  }

  double bits_per_second() const { return bits_per_second_; }
  SimDuration propagation() const { return propagation_; }
  const ChannelStats& stats() const { return stats_; }

  /// Changes the line rate mid-simulation (brownout injection). A zero,
  /// negative, or non-finite rate would make serialization_time() produce
  /// inf/NaN durations that poison every later timestamp, so it is rejected
  /// here rather than surfacing as garbage arrival times.
  void set_bits_per_second(double bits_per_second) {
    if (!std::isfinite(bits_per_second) || bits_per_second <= 0.0) {
      throw std::invalid_argument("Channel: bits_per_second must be finite and > 0");
    }
    bits_per_second_ = bits_per_second;
  }

  /// Changes the frame loss rate mid-simulation (brownout injection).
  void set_loss_rate(double loss_rate) {
    loss_rate_ = checked_rate(loss_rate, "loss_rate");
  }

  /// Fraction of frames delivered with flipped bits (chaos injection).
  void set_corrupt_rate(double rate) {
    corrupt_rate_ = checked_rate(rate, "corrupt_rate");
  }

  /// Fraction of frames delayed by `delay` so later traffic overtakes them.
  /// A zero delay makes the reorder draw a no-op, so it is rejected when the
  /// rate is nonzero.
  void set_reorder(double rate, SimDuration delay) {
    const double checked = checked_rate(rate, "reorder_rate");
    if (checked > 0.0 && delay == 0) {
      throw std::invalid_argument("Channel: reorder delay must be > 0");
    }
    reorder_rate_ = checked;
    reorder_delay_ = delay;
  }

  /// Fraction of frames that arrive twice (back-to-back copy).
  void set_duplicate_rate(double rate) {
    duplicate_rate_ = checked_rate(rate, "duplicate_rate");
  }

  double loss_rate() const { return loss_rate_; }
  double corrupt_rate() const { return corrupt_rate_; }
  double reorder_rate() const { return reorder_rate_; }
  SimDuration reorder_delay() const { return reorder_delay_; }
  double duplicate_rate() const { return duplicate_rate_; }

  /// Serialization time of `bytes` at the line rate.
  SimDuration serialization_time(std::size_t bytes) const {
    const double seconds = static_cast<double>(bytes) * 8.0 / bits_per_second_;
    return from_seconds(seconds);
  }

  /// Submits a transfer of `bytes` at time `now`; returns the arrival time at
  /// the far end. The link is occupied until arrival - propagation.
  SimTime transfer(SimTime now, std::size_t bytes) {
    const SimTime start = now > free_at_ ? now : free_at_;
    const SimDuration queueing = start - now;
    const SimDuration ser = serialization_time(bytes);
    free_at_ = start + ser;
    ++stats_.transfers;
    stats_.bytes += bytes;
    stats_.busy_time += ser;
    if (queueing > stats_.max_queueing) stats_.max_queueing = queueing;
    return free_at_ + propagation_;
  }

  /// Like transfer(), but the frame may be lost in flight (returns nullopt).
  /// A lost frame still consumed link time.
  std::optional<SimTime> transfer_lossy(SimTime now, std::size_t bytes) {
    const SimTime arrival = transfer(now, bytes);
    if (loss_rate_ > 0.0 && loss_rng_.bernoulli(loss_rate_)) {
      ++stats_.losses;
      return std::nullopt;
    }
    return arrival;
  }

  /// Full fault model: the frame may be lost, corrupted, reordered (delayed),
  /// and/or duplicated. Draw order is fixed (loss, corrupt, reorder, dup) and
  /// each draw happens only when its rate is nonzero, so a replay with all
  /// chaos rates at zero consumes exactly the same randomness as
  /// transfer_lossy(). Loss beats corruption: a frame that never arrives is
  /// only counted lost.
  ChaosTransfer transfer_chaos(SimTime now, std::size_t bytes) {
    ChaosTransfer out;
    out.arrival = transfer(now, bytes);
    if (loss_rate_ > 0.0 && loss_rng_.bernoulli(loss_rate_)) out.lost = true;
    if (corrupt_rate_ > 0.0 && loss_rng_.bernoulli(corrupt_rate_)) {
      out.corrupt_entropy = loss_rng_();
      if (!out.lost) {
        out.corrupted = true;
        ++stats_.corruptions;
      }
    }
    if (reorder_rate_ > 0.0 && loss_rng_.bernoulli(reorder_rate_) && !out.lost) {
      out.reordered = true;
      out.arrival += reorder_delay_;
      ++stats_.reorders;
    }
    if (duplicate_rate_ > 0.0 && loss_rng_.bernoulli(duplicate_rate_) &&
        !out.lost) {
      out.duplicate_at = out.arrival + serialization_time(bytes);
      ++stats_.duplicates;
    }
    if (out.lost) ++stats_.losses;
    return out;
  }

  /// Time at which the link becomes idle.
  SimTime free_at() const { return free_at_; }

  /// Utilization over the window [0, now] (0 when now == 0).
  double utilization(SimTime now) const {
    if (now == 0) return 0.0;
    return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
  }

 private:
  static double checked_rate(double rate, const char* what) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      throw std::invalid_argument(std::string("Channel: ") + what +
                                  " must be in [0, 1]");
    }
    return rate;
  }

  double bits_per_second_ = 1.0;
  SimDuration propagation_ = 0;
  double loss_rate_ = 0.0;
  double corrupt_rate_ = 0.0;
  double reorder_rate_ = 0.0;
  SimDuration reorder_delay_ = microseconds(50);
  double duplicate_rate_ = 0.0;
  RandomStream loss_rng_;
  SimTime free_at_ = 0;
  ChannelStats stats_;
};

}  // namespace fenix::sim
