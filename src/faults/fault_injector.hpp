// Arms a FaultSchedule against a live FenixSystem during a replay.
//
// The injector implements core::RunHooks (core/replay_core.hpp): the
// ReplayCore calls it at every epoch barrier (every
// FenixSystemConfig::reconcile_quantum of trace time), and the injector fires
// the schedule windows due by then in chronological order — FPGA
// stalls/resets through the fpgasim::Device fault hooks, channel brownouts
// and chaos windows by retuning every PCB channel (saving and restoring the
// healthy setting), and FIFO shrinks through the Model Engine. Everything is
// driven by simulated time from a plain-data schedule, so a replay with the
// same schedule and seed is bit-identical at any host thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/replay_core.hpp"
#include "faults/fault_schedule.hpp"

namespace fenix::core {
class FenixSystem;
}

namespace fenix::faults {

struct FaultInjectorStats {
  std::uint64_t windows_armed = 0;    ///< Fault windows activated.
  std::uint64_t windows_restored = 0; ///< Reversible effects rolled back.
};

class FaultInjector : public core::RunHooks {
 public:
  /// The injector keeps a reference to `system`; it must outlive the run.
  FaultInjector(FaultSchedule schedule, core::FenixSystem& system);

  /// RunHooks: fires every schedule event (window start or end) whose time
  /// is <= now, in chronological order.
  void at_time(sim::SimTime now) override;

  /// Rolls back any still-active reversible effect (brownout line rate /
  /// loss, FIFO depth). Call after a run if the same system is reused.
  void restore_all();

  const FaultSchedule& schedule() const { return schedule_; }
  const FaultInjectorStats& stats() const { return stats_; }

 private:
  /// A reversible effect currently applied, with the saved healthy state.
  /// Every channel is built identically and only the injector retunes them,
  /// always all at once, so one saved value per setting covers the fabric.
  struct ActiveEffect {
    FaultWindow window;
    double saved_bps = 0.0;
    double saved_rate = 0.0;  ///< Loss (brownout) or chaos rate.
    sim::SimDuration saved_delay = 0;  ///< Reorder delay.
    std::size_t saved_fifo_depth = 0;
  };

  void arm(const FaultWindow& window);
  void restore(const ActiveEffect& effect);
  /// Calls `f(channel)` for both directions of every lane's PCB channel.
  template <typename F>
  void each_channel(F&& f);

  FaultSchedule schedule_;
  core::FenixSystem& system_;
  std::size_t next_to_arm_ = 0;
  std::vector<ActiveEffect> active_;
  FaultInjectorStats stats_;
};

}  // namespace fenix::faults
