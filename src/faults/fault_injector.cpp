#include "faults/fault_injector.hpp"

#include <algorithm>
#include <limits>

#include "core/fenix_system.hpp"

namespace fenix::faults {
namespace {

constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();

}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule, core::FenixSystem& system)
    : schedule_(std::move(schedule)), system_(system) {}

void FaultInjector::at_time(sim::SimTime now) {
  // Fire window starts and ends due by `now` strictly chronologically —
  // a brownout ending at t=5ms must be rolled back before another starting
  // at t=7ms is armed, or the second would save the browned-out line rate
  // as "healthy" and restore to it. Ends win ties with starts so abutting
  // same-kind windows hand over cleanly.
  const std::vector<FaultWindow>& windows = schedule_.windows();
  for (;;) {
    const sim::SimTime next_start =
        next_to_arm_ < windows.size() ? windows[next_to_arm_].start : kNever;
    sim::SimTime next_end = kNever;
    std::size_t end_idx = active_.size();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i].window.end < next_end) {
        next_end = active_[i].window.end;
        end_idx = i;
      }
    }
    if (next_end <= next_start && next_end <= now) {
      const ActiveEffect effect = active_[end_idx];
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(end_idx));
      restore(effect);
    } else if (next_start <= now) {
      arm(windows[next_to_arm_++]);
    } else {
      break;
    }
  }
}

template <typename F>
void FaultInjector::each_channel(F&& f) {
  for (std::size_t lane = 0; lane < core::FenixSystem::lane_count(); ++lane) {
    f(system_.to_fpga_mut(lane));
    f(system_.from_fpga_mut(lane));
  }
}

void FaultInjector::arm(const FaultWindow& window) {
  ++stats_.windows_armed;
  ActiveEffect effect;
  effect.window = window;
  // Channel faults are board-level: they hit every channel of the striped
  // PCB fabric at once, so lane 0's to-FPGA channel holds the healthy state.
  const sim::Channel& healthy = system_.to_fpga();
  switch (window.kind) {
    case FaultKind::kFpgaStall:
      system_.model_engine().device().stall(window.start, window.end);
      // Device tracks its own recovery; nothing to restore.
      return;
    case FaultKind::kFpgaReset:
      system_.model_engine().device().reset(window.start,
                                            window.end - window.start);
      return;
    case FaultKind::kChannelBrownout: {
      effect.saved_bps = healthy.bits_per_second();
      effect.saved_rate = healthy.loss_rate();
      const double bps =
          effect.saved_bps * std::max(window.rate_scale, kMinBrownoutRateScale);
      each_channel([&](sim::Channel& ch) {
        ch.set_bits_per_second(bps);
        ch.set_loss_rate(window.loss_rate);
      });
      break;
    }
    case FaultKind::kFifoShrink: {
      core::ModelEngine& engine = system_.model_engine();
      effect.saved_fifo_depth = engine.input_queue_depth();
      engine.set_input_queue_depth(window.fifo_depth);
      break;
    }
    case FaultKind::kChannelCorrupt:
      effect.saved_rate = healthy.corrupt_rate();
      each_channel(
          [&](sim::Channel& ch) { ch.set_corrupt_rate(window.chaos_rate); });
      break;
    case FaultKind::kChannelReorder:
      effect.saved_rate = healthy.reorder_rate();
      effect.saved_delay = healthy.reorder_delay();
      each_channel([&](sim::Channel& ch) {
        ch.set_reorder(window.chaos_rate, window.reorder_delay);
      });
      break;
    case FaultKind::kChannelDuplicate:
      effect.saved_rate = healthy.duplicate_rate();
      each_channel(
          [&](sim::Channel& ch) { ch.set_duplicate_rate(window.chaos_rate); });
      break;
  }
  active_.push_back(effect);
}

// Restores only the settings the effect's kind changed, so overlapping
// windows of different kinds unwind independently.
void FaultInjector::restore(const ActiveEffect& effect) {
  ++stats_.windows_restored;
  switch (effect.window.kind) {
    case FaultKind::kFpgaStall:
    case FaultKind::kFpgaReset:
      break;  // Device windows clear themselves via available(now).
    case FaultKind::kChannelBrownout:
      each_channel([&](sim::Channel& ch) {
        ch.set_bits_per_second(effect.saved_bps);
        ch.set_loss_rate(effect.saved_rate);
      });
      break;
    case FaultKind::kFifoShrink:
      system_.model_engine().set_input_queue_depth(effect.saved_fifo_depth);
      break;
    case FaultKind::kChannelCorrupt:
      each_channel(
          [&](sim::Channel& ch) { ch.set_corrupt_rate(effect.saved_rate); });
      break;
    case FaultKind::kChannelReorder:
      each_channel([&](sim::Channel& ch) {
        ch.set_reorder(effect.saved_rate, effect.saved_delay);
      });
      break;
    case FaultKind::kChannelDuplicate:
      each_channel(
          [&](sim::Channel& ch) { ch.set_duplicate_rate(effect.saved_rate); });
      break;
  }
}

void FaultInjector::restore_all() {
  // Restore in reverse arming order so nested saves unwind correctly.
  while (!active_.empty()) {
    const ActiveEffect effect = active_.back();
    active_.pop_back();
    restore(effect);
  }
}

}  // namespace fenix::faults
