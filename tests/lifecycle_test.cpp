// Online model lifecycle: shadow evaluation at zero data-path cost,
// epoch-tagged hot swap with no demoted-generation verdict ever applied,
// SLO-guarded automatic rollback (optionally to the TCAM fallback tree), and
// serial-vs-pipelined bit-identity of the whole lifecycle state machine.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fenix_system.hpp"
#include "core/invariants.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

class LifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profile_ = new trafficgen::DatasetProfile(trafficgen::DatasetProfile::iscx_vpn());
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 400;
    synth.seed = 17;
    flows_ = new std::vector<trafficgen::FlowSample>(
        trafficgen::synthesize_flows(*profile_, synth));
    const auto samples = trafficgen::make_packet_samples(*flows_, 9, 6, 3);

    nn::CnnConfig config;
    config.conv_channels = {8};
    config.fc_dims = {16};
    config.num_classes = profile_->num_classes();
    primary_model_ = new nn::CnnClassifier(config, 11);
    nn::TrainOptions opts;
    opts.epochs = 1;
    primary_model_->fit(samples, opts);
    primary_ = new nn::QuantizedCnn(*primary_model_, samples);

    // The candidate is a differently-seeded, untrained sibling: it serves the
    // same classes but disagrees often, so the drift signal is strongly
    // nonzero without being pinned to an exact rate.
    shadow_model_ = new nn::CnnClassifier(config, 29);
    shadow_ = new nn::QuantizedCnn(*shadow_model_, samples);

    trafficgen::TraceConfig trace_config;
    trace_config.flow_arrival_rate_hz = 2500;
    trace_ = new net::Trace(trafficgen::assemble_trace(*flows_, trace_config));
  }

  static void TearDownTestSuite() {
    delete trace_;
    delete shadow_;
    delete shadow_model_;
    delete primary_;
    delete primary_model_;
    delete flows_;
    delete profile_;
  }

  static FenixSystemConfig base_config() {
    FenixSystemConfig config;
    config.data_engine.tracker.index_bits = 12;
    config.data_engine.window_tw = sim::milliseconds(20);
    return config;
  }

  /// Shadow-evaluation-only lifecycle (never promotes).
  static FenixSystemConfig shadow_only_config() {
    FenixSystemConfig config = base_config();
    config.lifecycle.shadow_cnn = shadow_;
    return config;
  }

  /// Promotes the shadow a third of the way into the trace.
  static FenixSystemConfig promote_config(sim::SimDuration blackout =
                                              sim::milliseconds(2)) {
    FenixSystemConfig config = shadow_only_config();
    config.lifecycle.promote_at = trace_->duration() / 3;
    config.lifecycle.swap_blackout = blackout;
    return config;
  }

  static RunReport run_serial(const FenixSystemConfig& config) {
    FenixSystem system(config, primary_, nullptr);
    return system.run(*trace_, profile_->num_classes());
  }

  static trafficgen::DatasetProfile* profile_;
  static std::vector<trafficgen::FlowSample>* flows_;
  static nn::CnnClassifier* primary_model_;
  static nn::QuantizedCnn* primary_;
  static nn::CnnClassifier* shadow_model_;
  static nn::QuantizedCnn* shadow_;
  static net::Trace* trace_;
};

trafficgen::DatasetProfile* LifecycleTest::profile_ = nullptr;
std::vector<trafficgen::FlowSample>* LifecycleTest::flows_ = nullptr;
nn::CnnClassifier* LifecycleTest::primary_model_ = nullptr;
nn::QuantizedCnn* LifecycleTest::primary_ = nullptr;
nn::CnnClassifier* LifecycleTest::shadow_model_ = nullptr;
nn::QuantizedCnn* LifecycleTest::shadow_ = nullptr;
net::Trace* LifecycleTest::trace_ = nullptr;

/// Zeroes the lifecycle accounting so a lifecycle report can be compared
/// field-for-field against a non-lifecycle baseline.
RunReport strip_lifecycle(RunReport report) {
  for_each_counter(
      [](std::string_view name, std::uint64_t& value) {
        if (name.starts_with("lifecycle_")) value = 0;
      },
      report);
  return report;
}

TEST_F(LifecycleTest, ShadowEvaluationIsZeroDataPathCost) {
  // With a shadow model configured but no promotion armed, the replay must be
  // byte-for-byte the baseline replay: same timing, same verdict classes,
  // same failure accounting. Only the lifecycle_* tallies may differ.
  const RunReport baseline = run_serial(base_config());
  const RunReport shadowed = run_serial(shadow_only_config());

  ASSERT_GT(shadowed.lifecycle_shadow_evals, 0u);
  EXPECT_LE(shadowed.lifecycle_disagreements, shadowed.lifecycle_shadow_evals);
  EXPECT_EQ(shadowed.lifecycle_promotions, 0u);
  EXPECT_EQ(shadowed.lifecycle_verdicts_candidate, 0u);
  EXPECT_EQ(shadowed.lifecycle_demoted_applies, 0u);
  // Every applied or flow-stale verdict is attributed to the primary.
  EXPECT_EQ(shadowed.lifecycle_verdicts_primary,
            shadowed.results_applied + shadowed.results_stale);

  const auto div = first_divergence(baseline, strip_lifecycle(shadowed));
  EXPECT_EQ(div, std::nullopt) << div.value_or("");
}

TEST_F(LifecycleTest, PromoteCutsOverWithEpochTag) {
  const sim::SimDuration blackout = sim::milliseconds(2);
  const RunReport report = run_serial(promote_config(blackout));

  EXPECT_EQ(report.lifecycle_promotions, 1u);
  EXPECT_EQ(report.lifecycle_rollbacks, 0u);
  EXPECT_EQ(report.lifecycle_slo_breaches, 0u);
  // The cutover epoch rule: nothing the demoted generation had in flight is
  // ever applied.
  EXPECT_EQ(report.lifecycle_demoted_applies, 0u);
  // Both generations actually served verdicts.
  EXPECT_GT(report.lifecycle_verdicts_primary, 0u);
  EXPECT_GT(report.lifecycle_verdicts_candidate, 0u);
  EXPECT_EQ(report.lifecycle_verdicts_primary + report.lifecycle_verdicts_candidate,
            report.results_applied + report.results_stale);
  // One swap = one measured blackout window, and every lane link pair was
  // resynced exactly once (16 lanes x 2 directions).
  EXPECT_EQ(report.lifecycle_swap_blackout, blackout);
  EXPECT_EQ(report.link_resyncs, 2 * kCoordinationLanes);
  // Shadow evaluation keeps running after the swap (roles flip).
  EXPECT_GT(report.lifecycle_shadow_evals, 0u);
}

TEST_F(LifecycleTest, SloBreachRollsBackDeterministically) {
  // A 1-unit p99 bound is unsatisfiable (verdict latencies are microseconds),
  // so the first candidate window with an applied verdict breaches and the
  // manager demotes at that barrier.
  FenixSystemConfig config = promote_config();
  config.lifecycle.slo.max_verdict_p99 = 1;
  config.lifecycle.slo.min_samples = 1;
  const RunReport report = run_serial(config);

  EXPECT_EQ(report.lifecycle_promotions, 1u);
  EXPECT_EQ(report.lifecycle_rollbacks, 1u);
  EXPECT_GE(report.lifecycle_slo_breaches, 1u);
  EXPECT_EQ(report.lifecycle_demoted_applies, 0u);
  // Two swap events, each paying the configured blackout.
  EXPECT_EQ(report.lifecycle_swap_blackout, 2 * sim::milliseconds(2));
  EXPECT_EQ(report.link_resyncs, 2 * 2 * kCoordinationLanes);

  // Deterministic: an identical fresh system reproduces the report exactly.
  const RunReport again = run_serial(config);
  const auto div = first_divergence(report, again);
  EXPECT_EQ(div, std::nullopt) << div.value_or("");
}

TEST_F(LifecycleTest, RollbackToFallbackForcesDegradedMode) {
  FenixSystemConfig config = promote_config();
  config.lifecycle.slo.max_verdict_p99 = 1;
  config.lifecycle.slo.min_samples = 1;
  config.lifecycle.slo.rollback_to_fallback = true;
  const RunReport report = run_serial(config);

  ASSERT_EQ(report.lifecycle_rollbacks, 1u);
  // The forced degradation is booked through the normal watchdog counters.
  EXPECT_GE(report.watchdog.degradations, 1u);
}

TEST_F(LifecycleTest, DriftRateTracksDisagreeingShadow) {
  // The untrained candidate disagrees with the trained primary on a healthy
  // fraction of windows; a drift SLO of 0 then guarantees a rollback once
  // any post-promotion window holds enough evaluations.
  FenixSystemConfig config = promote_config();
  config.lifecycle.slo.max_drift_rate = 0.0;
  config.lifecycle.slo.min_samples = 1;
  const RunReport report = run_serial(config);

  ASSERT_GT(report.lifecycle_shadow_evals, 0u);
  ASSERT_GT(report.lifecycle_disagreements, 0u);
  EXPECT_EQ(report.lifecycle_promotions, 1u);
  EXPECT_EQ(report.lifecycle_rollbacks, 1u);
  EXPECT_EQ(report.lifecycle_demoted_applies, 0u);
}

TEST_F(LifecycleTest, LifecycleRunSatisfiesStandardInvariants) {
  FenixSystemConfig config = promote_config();
  config.lifecycle.slo.max_verdict_p99 = 1;
  config.lifecycle.slo.min_samples = 1;
  config.lifecycle.repromote_every = trace_->duration() / 6;

  FenixSystem system(config, primary_, nullptr);
  const RunReport report = system.run(*trace_, profile_->num_classes());
  ASSERT_GE(report.lifecycle_promotions, 1u);
  ASSERT_GE(report.lifecycle_rollbacks, 1u);

  std::uint64_t labeled_flows = 0;
  for (const auto& flow : *flows_) {
    if (flow.label >= 0 &&
        static_cast<std::size_t>(flow.label) < profile_->num_classes()) {
      ++labeled_flows;
    }
  }
  const net::ReliableLinkStats to = system.link_stats_to_fpga();
  const net::ReliableLinkStats from = system.link_stats_from_fpga();
  InvariantContext ctx{report};
  ctx.trace_packets = trace_->packets.size();
  ctx.trace_flows = labeled_flows;
  ctx.to_link = &to;
  ctx.from_link = &from;
  ctx.reorder_window = config.link.reorder_window;
  ctx.link_max_retransmits = config.link.max_retransmits;
  ctx.replay_max_retransmits = config.recovery.max_retransmits;
  ctx.lifecycle_enabled = true;
  ctx.lifecycle_blackout = config.lifecycle.swap_blackout;
  const auto violations = InvariantRegistry::standard().check(ctx);
  for (const InvariantViolation& v : violations) {
    ADD_FAILURE() << v.name << ": " << v.detail;
  }
}

TEST_F(LifecycleTest, RejectsTwoShadowModels) {
  // A lifecycle run binds exactly one shadow model.
  nn::RnnConfig rnn_config;
  rnn_config.units = 8;
  rnn_config.num_classes = profile_->num_classes();
  const nn::RnnClassifier rnn(rnn_config, 29);
  const nn::QuantizedRnn shadow_rnn(
      rnn, trafficgen::make_packet_samples(*flows_, 9, 6, 3));
  FenixSystemConfig config = shadow_only_config();
  config.lifecycle.shadow_rnn = &shadow_rnn;
  FenixSystem system(config, primary_, nullptr);
  EXPECT_THROW(system.run(*trace_, profile_->num_classes()),
               std::invalid_argument);
}

TEST_F(LifecycleTest, SerialPipelinedBitIdenticalThroughSwapAndRollback) {
  // The full lifecycle state machine — promote, SLO breach, rollback,
  // re-promote — racing a compound fault schedule (an FPGA stall and a
  // channel brownout straddling the promotion barrier), replayed at pipes
  // {1, 2, 4, 8} x batch {1, 3, 16}: every RunReport field, lifecycle_*
  // included, must match the serial replay bit-for-bit. Batch 3 leaves a
  // partial batch open at most barriers, which the barrier-time flush must
  // close without changing any count.
  const sim::SimTime horizon = trace_->duration();
  const auto make_config = [&] {
    FenixSystemConfig config = promote_config();
    config.lifecycle.slo.max_verdict_p99 = 1;
    config.lifecycle.slo.min_samples = 1;
    config.lifecycle.repromote_every = horizon / 6;
    config.link.max_retransmits = 2;
    return config;
  };
  const auto make_schedule = [&] {
    faults::FaultSchedule s;
    faults::FaultWindow stall;
    stall.kind = faults::FaultKind::kFpgaStall;
    stall.start = horizon / 4;
    stall.end = horizon / 2;
    s.add(stall);
    faults::FaultWindow brown;
    brown.kind = faults::FaultKind::kChannelBrownout;
    brown.start = horizon / 3;
    brown.end = (2 * horizon) / 3;
    brown.loss_rate = 0.3;
    brown.rate_scale = 0.5;
    s.add(brown);
    return s;
  };

  FenixSystem serial_sys(make_config(), primary_, nullptr);
  faults::FaultInjector serial_inj(make_schedule(), serial_sys);
  const RunReport serial =
      serial_sys.run(*trace_, profile_->num_classes(), &serial_inj);
  ASSERT_GE(serial.lifecycle_promotions, 1u);
  ASSERT_GE(serial.lifecycle_rollbacks, 1u);
  ASSERT_GT(serial.deadline_misses, 0u);
  ASSERT_EQ(serial.lifecycle_demoted_applies, 0u);

  for (std::size_t pipes : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
      FenixSystem par_sys(make_config(), primary_, nullptr);
      faults::FaultInjector par_inj(make_schedule(), par_sys);
      PipelineOptions opts;
      opts.pipes = pipes;
      opts.batch = batch;
      const RunReport parallel = par_sys.run_pipelined(
          *trace_, profile_->num_classes(), &par_inj, {}, opts);
      const auto div = first_divergence(serial, parallel);
      EXPECT_EQ(div, std::nullopt) << "pipes=" << pipes << " batch=" << batch
                                   << ": " << div.value_or("");
    }
  }
}

}  // namespace
}  // namespace fenix::core
