#include "lifecycle/lifecycle.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/model_engine.hpp"
#include "nn/featurizer.hpp"

namespace fenix::lifecycle {

// ---------------------------------------------------------------------------
// LifecycleInferenceStage

LifecycleInferenceStage::LifecycleInferenceStage(core::ModelEngine& engine,
                                                 const LifecycleConfig& config)
    : engine_(engine) {
  models_[0] = ModelRef{engine.cnn(), engine.rnn()};
  models_[1] = ModelRef{config.shadow_cnn, config.shadow_rnn};
  if (!models_[0].cnn && !models_[0].rnn) {
    throw std::invalid_argument("LifecycleInferenceStage: engine has no model");
  }
  if ((models_[1].cnn != nullptr) == (models_[1].rnn != nullptr)) {
    throw std::invalid_argument(
        "LifecycleInferenceStage: exactly one shadow model required");
  }
}

LifecycleInferenceStage::Score LifecycleInferenceStage::score(
    const ModelRef& model, const net::FeatureVector& vec, LaneScratch& ls) {
  Score out;
  if (model.cnn) {
    nn::tokenize_into(vec.sequence, model.cnn->config().seq_len, ls.tokens);
    const std::vector<std::int32_t>& q = model.cnn->logits_q(ls.tokens, ls.scratch);
    // First maximum wins — the exact std::max_element tie-break of
    // QuantizedCnn::predict, so the serving class here is bit-identical to
    // the batched predict of a replay without a shadow model.
    std::size_t best = 0;
    for (std::size_t i = 1; i < q.size(); ++i) {
      if (q[i] > q[best]) best = i;
    }
    out.cls = static_cast<std::int16_t>(best);
    std::int32_t second = q[best];
    bool have_second = false;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (i == best) continue;
      if (!have_second || q[i] > second) {
        second = q[i];
        have_second = true;
      }
    }
    if (have_second) {
      out.margin = static_cast<std::int64_t>(q[best]) - second;
    }
  } else {
    nn::tokenize_into(vec.sequence, model.rnn->config().seq_len, ls.tokens);
    out.cls = model.rnn->predict(ls.tokens, ls.scratch);
  }
  return out;
}

std::optional<net::InferenceResult> LifecycleInferenceStage::submit(
    const net::FeatureVector& vec, sim::SimTime arrival, std::size_t lane,
    core::VerdictSymbol& symbol) {
  auto result = engine_.submit_timed_lane(lane, vec, arrival);
  if (!result) return std::nullopt;

  LaneScratch& ls = lanes_[lane];
  const Score serving = score(active(), vec, ls);
  const Score shadowed = score(shadow(), vec, ls);
  result->predicted_class = serving.cls;
  symbol = static_cast<core::VerdictSymbol>(
      (generation_ << kGenerationShift) |
      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(serving.cls)) &
       kClassMask));
  const std::int64_t shift = serving.margin > shadowed.margin
                                 ? serving.margin - shadowed.margin
                                 : shadowed.margin - serving.margin;
  ls.evals.push_back(Eval{serving.cls, shadowed.cls, shift});
  return result;
}

void LifecycleInferenceStage::fold_into(telemetry::DriftMonitor& drift) {
  for (LaneScratch& ls : lanes_) {
    for (const Eval& e : ls.evals) {
      drift.record(e.active_class, e.shadow_class, e.confidence_shift);
    }
    ls.evals.clear();
  }
}

// ---------------------------------------------------------------------------
// LifecycleManager

LifecycleManager::LifecycleManager(const LifecycleConfig& config,
                                   std::size_t num_classes,
                                   core::ModelEngine& engine,
                                   LifecycleInferenceStage& stage,
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
      drift_(num_classes),
      reconfig_drops_start_(engine.combined_stats().reconfig_drops),
      next_promote_at_(config.promote_at) {}

void LifecycleManager::on_apply(std::size_t lane, core::VerdictSymbol symbol,
                                sim::SimDuration end_to_end) {
  LaneApplies& L = lane_applies_[lane];
  const std::uint64_t generation =
      static_cast<std::uint64_t>(symbol) >> kGenerationShift;
  if (generation & 1) {
    ++L.candidate;
  } else {
    ++L.primary;
  }
  if (generation != stage_.generation()) ++L.demoted;
  L.end_to_end.push_back(end_to_end);
}

void LifecycleManager::fold_lanes() {
  for (LaneApplies& L : lane_applies_) {
    primary_applies_ += L.primary;
    candidate_applies_ += L.candidate;
    demoted_applies_ += L.demoted;
    L.primary = L.candidate = L.demoted = 0;
    window_e2e_.insert(window_e2e_.end(), L.end_to_end.begin(), L.end_to_end.end());
    L.end_to_end.clear();
  }
  stage_.fold_into(drift_);
}

void LifecycleManager::cutover(sim::SimTime now, bool to_candidate) {
  const ModelRef& target = stage_.model(to_candidate ? 1 : 0);
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
  blackout_total_ += config_.swap_blackout;
}

void LifecycleManager::at_barrier(sim::SimTime now) {
  fold_lanes();
  const telemetry::DriftWindow window = drift_.end_window();

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
      ++slo_breaches_;
      cutover(now, /*to_candidate=*/false);
      ++rollbacks_;
      if (config_.slo.rollback_to_fallback) watchdog_.force_degrade(now);
      next_promote_at_ =
          config_.repromote_every > 0 ? now + config_.repromote_every : 0;
    }
  } else if (next_promote_at_ > 0 && now >= next_promote_at_) {
    cutover(now, /*to_candidate=*/true);
    ++promotions_;
    next_promote_at_ = 0;
  }
  window_e2e_.clear();
}

void LifecycleManager::at_drain(sim::SimTime /*trace_end*/) {
  // Final fold only — no decisions after the trace: the drained tail is a
  // partial window and must not trigger swaps the pipelined path (whose
  // barrier schedule is identical) would not also trigger.
  fold_lanes();
  drift_.end_window();
  window_e2e_.clear();
}

void LifecycleManager::finalize(core::RunReport& report) const {
  report.lifecycle_shadow_evals = drift_.total().evals;
  report.lifecycle_disagreements = drift_.total().disagreements;
  report.lifecycle_promotions = promotions_;
  report.lifecycle_rollbacks = rollbacks_;
  report.lifecycle_slo_breaches = slo_breaches_;
  report.lifecycle_verdicts_primary = primary_applies_;
  report.lifecycle_verdicts_candidate = candidate_applies_;
  report.lifecycle_demoted_applies = demoted_applies_;
  report.lifecycle_swap_drops =
      engine_.combined_stats().reconfig_drops - reconfig_drops_start_;
  report.lifecycle_swap_blackout = blackout_total_;
}

}  // namespace fenix::lifecycle
