// Model-lifecycle control plane over the replay engine (DESIGN.md §5.7).
//
// Three cooperating pieces, layered on the lane-granular ReplayCore:
//
//  * LifecycleInferenceStage — the replay's InferenceStage when a shadow
//    model is configured. Admission is timing-only
//    (ModelEngine::submit_timed_lane, bit-identical FIFO/array effects to
//    the batched fan-in stage); the functional forward pass runs eagerly on
//    the submitting worker with per-lane scratch, and the *shadow* model is
//    scored on the same mirrored window — a pure software pass with zero
//    data-path cost (no admission, no port state, no timing). Verdict
//    symbols are generation-tagged: (generation << 16) | class.
//
//  * LifecycleManager — the coordinator-side control loop, attached to the
//    ReplayCore as its LifecycleObserver. At every epoch barrier (strictly
//    after the all-lane pump) it folds the lane tallies into the
//    telemetry::DriftMonitor, lets the SloGuard judge the serving model, and
//    performs at most one cutover: ModelEngine::begin_reconfiguration (the
//    double-buffered weight swap, dropping mirrors for the blackout window)
//    plus a resync of all lane links, so the PR 5 staleness rule
//    (epoch < cur && delivered_at >= epoch_end) discards every verdict the
//    demoted generation still has in flight. In-flight mirrors due by the
//    barrier drained through the old engine in the pump; new mirrors route
//    to the new one.
//
//  * SloGuard — the deterministic breach predicate over the closed drift
//    window, the window's applied-verdict p99, and the watchdog flag
//    published at the previous barrier. A breach demotes at that same
//    barrier — bounded by one reconcile quantum of packets.
//
// Determinism: lane tallies are folded in lane order, the p99 sorts a
// value multiset (order-independent), and every decision input is
// barrier-published state — so the replay makes identical lifecycle
// decisions at every pipe count and produces bit-identical lifecycle_*
// report fields.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/lane_coordination.hpp"
#include "core/replay_core.hpp"
#include "lifecycle/config.hpp"
#include "nn/quantize.hpp"
#include "telemetry/drift_monitor.hpp"

namespace fenix::core {
class ModelEngine;
}

namespace fenix::lifecycle {

/// Generation tag layout of a lifecycle verdict symbol.
inline constexpr unsigned kGenerationShift = 16;
inline constexpr std::uint64_t kClassMask = (std::uint64_t{1} << kGenerationShift) - 1;

/// One of the two resident models (exactly one pointer non-null).
struct ModelRef {
  const nn::QuantizedCnn* cnn = nullptr;
  const nn::QuantizedRnn* rnn = nullptr;
};

/// The replay's inference stage when lifecycle is enabled: timing-only lane
/// admission + eager per-lane functional inference of the serving model +
/// shadow scoring of the candidate. May be driven concurrently on distinct
/// lanes; the model roles flip only at barriers (swap_models), while the
/// worker fleet is quiescent.
class LifecycleInferenceStage final : public core::InferenceStage {
 public:
  LifecycleInferenceStage(core::ModelEngine& engine, const LifecycleConfig& config);

  std::optional<net::InferenceResult> submit(const net::FeatureVector& vec,
                                             sim::SimTime arrival,
                                             std::size_t lane,
                                             core::VerdictSymbol& symbol) override;

  std::int16_t resolve(core::VerdictSymbol symbol) const override {
    // Strips the generation tag.
    return static_cast<std::int16_t>(static_cast<std::uint64_t>(symbol) &
                                     kClassMask);
  }

  /// Serving-generation counter: even generations serve models(0) (the
  /// original primary), odd serve models(1) (the candidate).
  std::uint64_t generation() const { return generation_; }

  /// Barrier-only (coordinator, post-pump): flip the serving/shadow roles.
  void swap_models() { ++generation_; }

  const ModelRef& model(std::size_t i) const { return models_[i]; }
  const ModelRef& active() const { return models_[generation_ & 1]; }
  const ModelRef& shadow() const { return models_[(generation_ & 1) ^ 1]; }

  /// Barrier-only: replay the buffered per-lane shadow evaluations into the
  /// drift monitor, in lane order, and clear the buffers.
  void fold_into(telemetry::DriftMonitor& drift);

 private:
  /// One model's verdict on one token window: predicted class (first
  /// maximum, exactly nn::Quantized*::predict's tie-break) plus the decision
  /// margin (top-1 minus top-2 logit; 0 for the RNN, which exposes only its
  /// argmax — its confidence shift degrades to the disagreement signal).
  struct Score {
    std::int16_t cls = -1;
    std::int64_t margin = 0;
  };

  /// One buffered shadow evaluation, replayed into the DriftMonitor at the
  /// next barrier.
  struct Eval {
    std::int16_t active_class;
    std::int16_t shadow_class;
    std::int64_t confidence_shift;
  };

  /// Per-lane workspace + tally buffer. Touched only by the lane's owner
  /// between barriers.
  struct LaneScratch {
    nn::Scratch scratch;
    std::vector<nn::Token> tokens;
    std::vector<Eval> evals;
  };

  static Score score(const ModelRef& model, const net::FeatureVector& vec,
                     LaneScratch& ls);

  core::ModelEngine& engine_;
  std::array<ModelRef, 2> models_;  ///< [0] original primary, [1] candidate.
  std::uint64_t generation_ = 0;    ///< Written at barriers only.
  std::array<LaneScratch, core::kCoordinationLanes> lanes_;
};

/// The deterministic SLO breach predicate (see SloConfig). Stateless — every
/// input is barrier-published.
class SloGuard {
 public:
  explicit SloGuard(const SloConfig& config) : config_(config) {}

  /// Judges one closed window. `window_p99` is the p99 of the window's
  /// applied end-to-end verdict latencies (0 samples => check skipped via
  /// p99_samples), `degraded` the watchdog flag published at the previous
  /// barrier.
  bool breached(const telemetry::DriftWindow& window, sim::SimDuration window_p99,
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

/// Coordinator-side lifecycle control loop; the ReplayCore's
/// LifecycleObserver. Construct one per run, attach with
/// ReplayCore::set_lifecycle, and call finalize() after resolve().
class LifecycleManager final : public core::LifecycleObserver {
 public:
  LifecycleManager(const LifecycleConfig& config, std::size_t num_classes,
                   core::ModelEngine& engine, LifecycleInferenceStage& stage,
                   const core::LaneLinks& to_fpga,
                   const core::LaneLinks& from_fpga,
                   core::LaneWatchdog& watchdog);

  void on_apply(std::size_t lane, core::VerdictSymbol symbol,
                sim::SimDuration end_to_end) override;
  void at_barrier(sim::SimTime now) override;
  void at_drain(sim::SimTime trace_end) override;

  /// Copies the lifecycle counters into the finished report (call after
  /// ReplayCore::resolve()).
  void finalize(core::RunReport& report) const;

  const telemetry::DriftMonitor& drift() const { return drift_; }
  bool candidate_serving() const { return candidate_serving_; }

 private:
  /// Per-lane apply attribution, folded at barriers in lane order.
  struct LaneApplies {
    std::uint64_t primary = 0;    ///< Even-generation verdicts applied.
    std::uint64_t candidate = 0;  ///< Odd-generation verdicts applied.
    std::uint64_t demoted = 0;    ///< Generation != serving at apply time.
    std::vector<sim::SimDuration> end_to_end;
  };

  void fold_lanes();
  void cutover(sim::SimTime now, bool to_candidate);

  LifecycleConfig config_;
  core::ModelEngine& engine_;
  LifecycleInferenceStage& stage_;
  core::LaneLinks to_fpga_;
  core::LaneLinks from_fpga_;
  core::LaneWatchdog& watchdog_;
  SloGuard guard_;
  telemetry::DriftMonitor drift_;

  std::array<LaneApplies, core::kCoordinationLanes> lane_applies_;
  std::vector<sim::SimDuration> window_e2e_;  ///< This window's applied latencies.

  std::uint64_t reconfig_drops_start_;
  sim::SimTime next_promote_at_;  ///< 0 = no promotion armed.
  bool candidate_serving_ = false;

  std::uint64_t promotions_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t slo_breaches_ = 0;
  std::uint64_t primary_applies_ = 0;
  std::uint64_t candidate_applies_ = 0;
  std::uint64_t demoted_applies_ = 0;
  sim::SimDuration blackout_total_ = 0;
};

}  // namespace fenix::lifecycle
