#include "lifecycle/lifecycle.hpp"

#include <algorithm>

#include "core/model_engine.hpp"

namespace fenix::lifecycle {

// ---------------------------------------------------------------------------
// LifecycleManager

LifecycleManager::LifecycleManager(const LifecycleConfig& config,
                                   core::ModelEngine& engine,
                                   core::InferenceStage& stage,
                                   const core::LaneLinks& to_fpga,
                                   const core::LaneLinks& from_fpga,
                                   core::LaneWatchdog& watchdog)
    : config_(config),
      engine_(engine),
      stage_(stage),
      to_fpga_(to_fpga),
      from_fpga_(from_fpga),
      watchdog_(watchdog),
      guard_(config.slo),
      reconfig_drops_start_(engine.stats().reconfig_drops),
      next_promote_at_(config.promote_at) {}

void LifecycleManager::on_apply(std::size_t lane, core::VerdictSymbol symbol,
                                sim::SimDuration end_to_end) {
  LaneApplies& L = lane_applies_[lane];
  const std::uint64_t generation =
      static_cast<std::uint64_t>(symbol) >> core::kSymbolGenerationShift;
  if (generation & 1) {
    ++L.candidate;
  } else {
    ++L.primary;
  }
  if (generation != stage_.generation()) ++L.demoted;
  L.end_to_end.push_back(end_to_end);
}

core::ShadowTally LifecycleManager::fold_window() {
  for (LaneApplies& L : lane_applies_) {
    counts_.lifecycle_verdicts_primary += L.primary;
    counts_.lifecycle_verdicts_candidate += L.candidate;
    counts_.lifecycle_demoted_applies += L.demoted;
    L.primary = L.candidate = L.demoted = 0;
    window_e2e_.insert(window_e2e_.end(), L.end_to_end.begin(), L.end_to_end.end());
    L.end_to_end.clear();
  }
  const core::ShadowTally window = stage_.close_window();
  counts_.lifecycle_shadow_evals += window.evals;
  counts_.lifecycle_disagreements += window.disagreements;
  return window;
}

void LifecycleManager::cutover(sim::SimTime now, bool to_candidate) {
  const core::ModelRef& target = stage_.model(to_candidate ? 1 : 0);
  engine_.begin_reconfiguration(now, target.cnn, target.rnn,
                                config_.swap_blackout);
  // Bump every lane link's epoch, exactly like the device-reset hook: the
  // staleness rule then discards any verdict the demoted generation still
  // has in flight (delivered_at >= this barrier => epoch_end), while
  // deadline-beating casualties reschedule their misses into the new epoch.
  for (std::size_t lane = 0; lane < core::kCoordinationLanes; ++lane) {
    to_fpga_[lane]->resync(now);
    from_fpga_[lane]->resync(now);
  }
  stage_.swap_models();
  candidate_serving_ = to_candidate;
  counts_.lifecycle_swap_blackout += config_.swap_blackout;
}

void LifecycleManager::at_barrier(sim::SimTime now) {
  const core::ShadowTally window = fold_window();

  sim::SimDuration p99 = 0;
  const std::uint64_t p99_samples = window_e2e_.size();
  if (p99_samples > 0) {
    // Sorted multiset percentile: order-independent, so every lane
    // interleaving agrees bit-for-bit.
    std::sort(window_e2e_.begin(), window_e2e_.end());
    p99 = window_e2e_[(window_e2e_.size() - 1) * 99 / 100];
  }

  // At most one lifecycle action per barrier: a rollback decision reads the
  // window the candidate actually served; a promotion takes effect for the
  // next window.
  if (candidate_serving_) {
    if (guard_.breached(window, p99, p99_samples, watchdog_.degraded())) {
      ++counts_.lifecycle_slo_breaches;
      cutover(now, /*to_candidate=*/false);
      ++counts_.lifecycle_rollbacks;
      if (config_.slo.rollback_to_fallback) watchdog_.force_degrade(now);
      next_promote_at_ =
          config_.repromote_every > 0 ? now + config_.repromote_every : 0;
    }
  } else if (next_promote_at_ > 0 && now >= next_promote_at_) {
    cutover(now, /*to_candidate=*/true);
    ++counts_.lifecycle_promotions;
    next_promote_at_ = 0;
  }
  window_e2e_.clear();
}

void LifecycleManager::at_drain() {
  // Final fold only — no decisions after the trace: the drained tail is a
  // partial window and must not trigger swaps the pipelined path (whose
  // barrier schedule is identical) would not also trigger.
  fold_window();
  window_e2e_.clear();
}

core::RunCounters LifecycleManager::counts() const {
  core::RunCounters counts = counts_;
  counts.lifecycle_swap_drops =
      engine_.stats().reconfig_drops - reconfig_drops_start_;
  return counts;
}

}  // namespace fenix::lifecycle
