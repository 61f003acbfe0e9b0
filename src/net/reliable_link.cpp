#include "net/reliable_link.hpp"

#include <algorithm>
#include <cassert>

namespace fenix::net {

ReliableLinkStats& ReliableLinkStats::operator+=(const ReliableLinkStats& o) {
  data_frames += o.data_frames;
  delivered += o.delivered;
  retransmits += o.retransmits;
  nacks += o.nacks;
  corrupt_drops += o.corrupt_drops;
  dup_suppressed += o.dup_suppressed;
  reorder_held += o.reorder_held;
  window_overflow_drops += o.window_overflow_drops;
  drops_lost += o.drops_lost;
  drops_corrupt += o.drops_corrupt;
  drops_pacer += o.drops_pacer;
  peak_window = std::max(peak_window, o.peak_window);
  resyncs += o.resyncs;
  monotone_violations += o.monotone_violations;
  return *this;
}

ReliableLinkStats ReliableLinkStats::operator-(
    const ReliableLinkStats& start) const {
  ReliableLinkStats d = *this;
  d.data_frames -= start.data_frames;
  d.delivered -= start.delivered;
  d.retransmits -= start.retransmits;
  d.nacks -= start.nacks;
  d.corrupt_drops -= start.corrupt_drops;
  d.dup_suppressed -= start.dup_suppressed;
  d.reorder_held -= start.reorder_held;
  d.window_overflow_drops -= start.window_overflow_drops;
  d.drops_lost -= start.drops_lost;
  d.drops_corrupt -= start.drops_corrupt;
  d.drops_pacer -= start.drops_pacer;
  d.resyncs -= start.resyncs;
  d.monotone_violations -= start.monotone_violations;
  return d;
}

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kNone:
      return "none";
    case DropReason::kLost:
      return "lost";
    case DropReason::kCorrupt:
      return "corrupt";
    case DropReason::kPacer:
      return "pacer";
    case DropReason::kWindow:
      return "window";
  }
  return "unknown";
}

void ReliableLink::purge_window(sim::SimTime arrival) {
  window_.erase(
      std::remove_if(window_.begin(), window_.end(),
                     [arrival](sim::SimTime release) { return release <= arrival; }),
      window_.end());
}

SendOutcome ReliableLink::send(sim::SimTime now, std::size_t payload_bytes) {
  SendOutcome out;
  out.epoch = epoch_;
  ++stats_.data_frames;

  const std::uint32_t seq = next_seq_++;
  const auto payload16 = static_cast<std::uint16_t>(
      std::min<std::size_t>(payload_bytes, 0xffff));

  DropReason pending = DropReason::kNone;
  sim::SimTime attempt_time = now;
  const unsigned attempts_allowed = 1 + cfg_.max_retransmits;
  for (unsigned attempt = 0; attempt < attempts_allowed; ++attempt) {
    out.attempts = attempt + 1;
    if (attempt > 0) ++stats_.retransmits;

    const sim::ChaosTransfer t = chan_.transfer_chaos(attempt_time, payload_bytes);
    // A duplicated copy carries the same seq; the receiver's window suppresses
    // it on sight, whether or not the primary copy survives.
    if (t.duplicate_at) ++stats_.dup_suppressed;

    if (!t.lost && !t.corrupted) {
      // Clean arrival. Frames already released by `t.arrival` leave the
      // window; if the window is still full this frame has nowhere to park.
      if (t.reordered) ++stats_.reorder_held;
      purge_window(t.arrival);
      if (window_.size() >= cfg_.reorder_window) {
        ++stats_.window_overflow_drops;
        out.reason = DropReason::kWindow;
        return out;
      }
      // In-order release: a frame overtaken in flight is held until every
      // earlier release has happened, which the running max encodes.
      const sim::SimTime release = std::max(t.arrival, last_release_);
      if (release < last_release_) ++stats_.monotone_violations;
      last_release_ = release;
      window_.push_back(release);
      stats_.peak_window =
          std::max<std::uint64_t>(stats_.peak_window, window_.size());
      ++stats_.delivered;
      out.delivered_at = release;
      out.reason = DropReason::kNone;
      return out;
    }

    if (t.corrupted) {
      // The frame arrives but its checksum no longer matches: exercise the
      // real frame path so the chaos harness is testing the actual codec.
      FrameHeader header = make_data_frame(seq, epoch_, payload16);
      corrupt_in_flight(header, t.corrupt_entropy);
      assert(!verify(header) && "corrupt_in_flight must break the checksum");
      (void)header;
      ++stats_.corrupt_drops;
      pending = DropReason::kCorrupt;
    } else {
      pending = DropReason::kLost;
    }

    if (attempt + 1 >= attempts_allowed) break;

    // The receiver notices the gap (or the bad checksum) at the frame's
    // nominal arrival instant and raises a NACK; the repair copy leaves one
    // turnaround later — if the pacer has a token for it.
    const sim::SimTime nack_at = t.arrival + cfg_.nack_turnaround;
    ++stats_.nacks;
    if (!nack_bucket_.try_take(nack_at)) {
      pending = DropReason::kPacer;
      break;
    }
    attempt_time = nack_at;
  }

  switch (pending) {
    case DropReason::kLost:
      ++stats_.drops_lost;
      break;
    case DropReason::kCorrupt:
      ++stats_.drops_corrupt;
      break;
    case DropReason::kPacer:
      ++stats_.drops_pacer;
      break;
    case DropReason::kNone:
    case DropReason::kWindow:
      break;
  }
  out.reason = pending;
  return out;
}

void ReliableLink::resync(sim::SimTime now) {
  epoch_ends_.push_back(now);
  ++epoch_;
  ++stats_.resyncs;
  window_.clear();
}

}  // namespace fenix::net
