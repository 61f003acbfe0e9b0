// Model-lifecycle control plane over the replay engine (DESIGN.md §5.7).
//
// Two cooperating pieces, layered on the lane-granular ReplayCore and its one
// core::InferenceStage:
//
//  * LifecycleManager — the coordinator-side control loop, which the
//    ReplayCore calls directly (ReplayCore::set_lifecycle). The stage's
//    batcher computes every batch with both the serving model and the
//    shadow; at every epoch barrier (strictly after the all-lane pump) the
//    manager folds the lane tallies, collects the window's shadow
//    evaluations and disagreements from the stage
//    (InferenceStage::close_window), lets the SloGuard judge the serving
//    model, and performs at most one cutover:
//    ModelEngine::begin_reconfiguration (the double-buffered weight swap,
//    dropping mirrors for the blackout window), a flip of the stage's
//    serving generation, and a resync of all lane links, so the PR 5
//    staleness rule (epoch < cur && delivered_at >= epoch_end) discards
//    every verdict the demoted generation still has in flight. In-flight
//    mirrors due by the barrier drained through the old engine in the pump;
//    new mirrors route to the new one. The manager keeps its lifecycle_*
//    report fields as a partial report (core::RunCounters), which
//    ReplayCore::resolve() adds to the run's report.
//
//  * SloGuard — the deterministic breach predicate over the closed window's
//    disagreement rate, the window's applied-verdict p99, and the watchdog
//    flag published at the previous barrier. A breach demotes at that same
//    barrier — bounded by one reconcile quantum of packets.
//
// Determinism: lane tallies are folded in lane order, a window's
// disagreements are counted over its mirrors whatever batch they landed in,
// the p99 sorts a value multiset (order-independent), and every decision
// input is barrier-published state — so the replay makes identical
// lifecycle decisions at every pipe and batch count and produces
// bit-identical lifecycle_* report fields.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/lane_coordination.hpp"
#include "core/model_pool.hpp"
#include "core/replay_core.hpp"
#include "core/run_counters.hpp"
#include "lifecycle/config.hpp"

namespace fenix::lifecycle {

/// The deterministic SLO breach predicate (see SloConfig). Stateless — every
/// input is barrier-published.
class SloGuard {
 public:
  explicit SloGuard(const SloConfig& config) : config_(config) {}

  /// Judges one closed window. `window_p99` is the p99 of the window's
  /// applied end-to-end verdict latencies (0 samples => check skipped via
  /// p99_samples), `degraded` the watchdog flag published at the previous
  /// barrier.
  bool breached(const core::ShadowTally& window, sim::SimDuration window_p99,
                std::uint64_t p99_samples, bool degraded) const {
    if (window.evals >= config_.min_samples && window.evals > 0 &&
        static_cast<double>(window.disagreements) >
            config_.max_drift_rate * static_cast<double>(window.evals)) {
      return true;
    }
    if (config_.max_verdict_p99 > 0 && p99_samples >= config_.min_samples &&
        window_p99 > config_.max_verdict_p99) {
      return true;
    }
    return config_.breach_on_degraded && degraded;
  }

 private:
  SloConfig config_;
};

/// Coordinator-side lifecycle control loop. Construct one per run and
/// attach it with ReplayCore::set_lifecycle.
class LifecycleManager {
 public:
  LifecycleManager(const LifecycleConfig& config, core::ModelEngine& engine,
                   core::InferenceStage& stage, const core::LaneLinks& to_fpga,
                   const core::LaneLinks& from_fpga,
                   core::LaneWatchdog& watchdog);

  /// One applied verdict on `lane` (concurrent across distinct lanes): its
  /// symbol (tagged with its serving generation) and its mirror-emit ->
  /// install latency.
  void on_apply(std::size_t lane, core::VerdictSymbol symbol,
                sim::SimDuration end_to_end);

  /// Epoch barrier (coordinator only, after the all-lane pump): folds the
  /// lane tallies, counts the window's disagreements, judges the SLO, and
  /// performs at most one promote/rollback cutover.
  void at_barrier(sim::SimTime now);

  /// End-of-trace tail drained: folds the remaining lane tallies and
  /// disagreements, and decides nothing.
  void at_drain();

  /// The lifecycle partial report: every lifecycle_* counter, swap drops
  /// included. Every other counter is zero.
  core::RunCounters counts() const;

 private:
  /// Per-lane apply attribution, folded at barriers in lane order.
  struct LaneApplies {
    std::uint64_t primary = 0;    ///< Even-generation verdicts applied.
    std::uint64_t candidate = 0;  ///< Odd-generation verdicts applied.
    std::uint64_t demoted = 0;    ///< Generation != serving at apply time.
    std::vector<sim::SimDuration> end_to_end;
  };

  /// Folds the lane tallies and closes the stage's shadow window; returns
  /// the window's shadow tally.
  core::ShadowTally fold_window();
  void cutover(sim::SimTime now, bool to_candidate);

  LifecycleConfig config_;
  core::ModelEngine& engine_;
  core::InferenceStage& stage_;
  core::LaneLinks to_fpga_;
  core::LaneLinks from_fpga_;
  core::LaneWatchdog& watchdog_;
  SloGuard guard_;

  std::array<LaneApplies, core::kCoordinationLanes> lane_applies_;
  std::vector<sim::SimDuration> window_e2e_;  ///< This window's applied latencies.

  std::uint64_t reconfig_drops_start_;
  sim::SimTime next_promote_at_;  ///< 0 = no promotion armed.
  bool candidate_serving_ = false;

  core::RunCounters counts_;  ///< All but lifecycle_swap_drops.
};

}  // namespace fenix::lifecycle
