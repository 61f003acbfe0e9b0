// Golden RunReport digests: five fixed-seed replays whose every report field
// is folded into one 64-bit digest and compared against a checked-in
// constant. The serial/pipelined identity suites compare two drivers with
// each other; these constants pin what both of them must produce, so a
// change to the shared per-packet path that alters any report field fails
// here even when every driver changes the same way.
//
// A mismatch prints the digest the replay produced. Only regenerate the
// constants for a change that is meant to alter replay results, and say so
// in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/fenix_system.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "trafficgen/scenario.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

/// FNV-1a over a canonical walk of every RunReport field.
class ReportDigest {
 public:
  explicit ReportDigest(const RunReport& r) {
    add(r.precision);
    for (std::uint64_t v :
         {r.packets, r.mirrors, r.fifo_drops, r.channel_losses,
          r.results_applied, r.results_stale,
          static_cast<std::uint64_t>(r.trace_duration), r.stale_epoch_drops,
          r.link_retransmits, r.link_nacks, r.link_corrupt_drops,
          r.link_dup_suppressed, r.link_reorder_held, r.link_window_drops,
          r.link_pacer_drops, r.link_resyncs, r.lifecycle_shadow_evals,
          r.lifecycle_disagreements, r.lifecycle_promotions,
          r.lifecycle_rollbacks, r.lifecycle_slo_breaches,
          r.lifecycle_verdicts_primary, r.lifecycle_verdicts_candidate,
          r.lifecycle_demoted_applies, r.lifecycle_swap_drops,
          static_cast<std::uint64_t>(r.lifecycle_swap_blackout),
          r.deadline_misses, r.retransmits, r.retransmits_suppressed,
          r.retransmits_exhausted, r.fallback_verdicts, r.mirrors_suppressed,
          r.admission_offered, r.admission_admitted, r.shed_thinned,
          r.shed_frozen, r.shed_isolated, r.admission_transitions,
          r.admission_peak_tier, r.watchdog.deadline_misses,
          r.watchdog.heartbeats, r.watchdog.degradations,
          r.watchdog.recoveries,
          static_cast<std::uint64_t>(r.watchdog.time_degraded)}) {
      add(v);
    }
    add(r.packet_confusion);
    add(r.inference_confusion);
    add(r.flow_confusion);
    for (const telemetry::LatencyRecorder* rec :
         {&r.internal_tx, &r.queueing, &r.inference, &r.return_tx,
          &r.end_to_end}) {
      add(*rec);
    }
    add(r.phases.size());
    for (const PhaseReport& p : r.phases) {
      add(p.name);
      for (std::uint64_t v :
           {static_cast<std::uint64_t>(p.start),
            static_cast<std::uint64_t>(p.end), p.packets, p.dnn_verdicts,
            p.tree_verdicts, p.unclassified}) {
        add(v);
      }
      add(p.packet_confusion);
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  void add(const telemetry::ConfusionMatrix& m) {
    add(static_cast<std::uint64_t>(m.num_classes()));
    for (std::size_t t = 0; t < m.num_classes(); ++t) {
      for (std::size_t p = 0; p < m.num_classes(); ++p) add(m.count(t, p));
    }
    add(m.unpredicted());
    add(m.total());
  }
  void add(const telemetry::LatencyRecorder& rec) {
    add(static_cast<std::uint64_t>(rec.count()));
    add(static_cast<std::uint64_t>(rec.min()));
    add(static_cast<std::uint64_t>(rec.max()));
    add(rec.mean_ps());
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9,
                     100.0}) {
      add(static_cast<std::uint64_t>(rec.percentile(p)));
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

class GoldenReportTest : public ::testing::Test {
 protected:
  /// The pipeline_parallel_test / lifecycle_test workload: 400 synthesized
  /// ISCX-VPN flows, a one-epoch CNN, an untrained sibling as the shadow, and
  /// an untrained six-token RNN as a shadow of the other model family.
  static void SetUpTestSuite() {
    profile_ = new trafficgen::DatasetProfile(
        trafficgen::DatasetProfile::iscx_vpn());
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 400;
    synth.seed = 17;
    const auto flows = trafficgen::synthesize_flows(*profile_, synth);
    const auto samples = trafficgen::make_packet_samples(flows, 9, 6, 3);
    nn::CnnConfig cnn;
    cnn.conv_channels = {8};
    cnn.fc_dims = {16};
    cnn.num_classes = profile_->num_classes();
    nn::CnnClassifier primary(cnn, 11);
    nn::TrainOptions opts;
    opts.epochs = 1;
    primary.fit(samples, opts);
    primary_ = new nn::QuantizedCnn(primary, samples);
    const nn::CnnClassifier shadow(cnn, 29);
    shadow_ = new nn::QuantizedCnn(shadow, samples);
    nn::RnnConfig rnn;
    rnn.seq_len = 6;
    rnn.units = 24;
    rnn.num_classes = profile_->num_classes();
    const nn::RnnClassifier rnn_shadow(rnn, 29);
    rnn_shadow_ = new nn::QuantizedRnn(
        rnn_shadow, trafficgen::make_packet_samples(flows, 6, 6, 3));

    trafficgen::TraceConfig trace_config;
    trace_config.flow_arrival_rate_hz = 2500;
    trace_ = new net::Trace(trafficgen::assemble_trace(flows, trace_config));
  }

  static void TearDownTestSuite() {
    delete trace_;
    delete rnn_shadow_;
    delete shadow_;
    delete primary_;
    delete profile_;
  }

  static FenixSystemConfig base_config() {
    FenixSystemConfig config;
    config.data_engine.tracker.index_bits = 12;
    config.data_engine.window_tw = sim::milliseconds(20);
    return config;
  }

  /// Replays `trace` through run() and through run_pipelined() at each
  /// `grid` setting (default: pipes 4, batch 16); every digest must equal
  /// `expected`. `schedule` (optional) is armed on a fresh injector per
  /// replay. Returns the run() report.
  static RunReport expect_digest(const FenixSystemConfig& config,
                                 const nn::QuantizedCnn* model,
                                 const net::Trace& trace,
                                 std::size_t num_classes,
                                 const faults::FaultSchedule* schedule,
                                 const std::vector<RunPhase>& phases,
                                 std::uint64_t expected,
                                 const std::vector<PipelineOptions>& grid = {
                                     PipelineOptions{}}) {
    std::optional<RunReport> serial;
    for (std::size_t i = 0; i <= grid.size(); ++i) {
      const bool pipelined = i > 0;
      FenixSystem system(config, model, nullptr);
      std::unique_ptr<faults::FaultInjector> injector;
      if (schedule) {
        injector = std::make_unique<faults::FaultInjector>(*schedule, system);
      }
      const RunReport report =
          pipelined ? system.run_pipelined(trace, num_classes, injector.get(),
                                           phases, grid[i - 1])
                    : system.run(trace, num_classes, injector.get(), phases);
      EXPECT_EQ(hex(ReportDigest(report).value()), hex(expected))
          << (pipelined ? "run_pipelined(pipes=" +
                              std::to_string(grid[i - 1].pipes) + ", batch=" +
                              std::to_string(grid[i - 1].batch) + ")"
                        : std::string("run()"))
          << " produced a different RunReport";
      if (!pipelined) serial = report;
    }
    return *serial;
  }

  static trafficgen::DatasetProfile* profile_;
  static nn::QuantizedCnn* primary_;
  static nn::QuantizedCnn* shadow_;
  static nn::QuantizedRnn* rnn_shadow_;
  static net::Trace* trace_;
};

trafficgen::DatasetProfile* GoldenReportTest::profile_ = nullptr;
nn::QuantizedCnn* GoldenReportTest::primary_ = nullptr;
nn::QuantizedCnn* GoldenReportTest::shadow_ = nullptr;
nn::QuantizedRnn* GoldenReportTest::rnn_shadow_ = nullptr;
net::Trace* GoldenReportTest::trace_ = nullptr;

TEST_F(GoldenReportTest, PlainTrace) {
  const RunReport report =
      expect_digest(base_config(), primary_, *trace_, profile_->num_classes(),
                    nullptr, {}, 0xa06f3b711284be68ULL);
  EXPECT_GT(report.mirrors, 0u);
  EXPECT_GT(report.results_applied, 0u);
}

TEST_F(GoldenReportTest, CompoundFaultScheduleWithPhases) {
  // An FPGA stall overlapping a channel brownout, then a FIFO shrink, with
  // per-phase accounting across all four stretches.
  const sim::SimTime horizon = trace_->duration();
  faults::FaultSchedule schedule;
  faults::FaultWindow stall;
  stall.kind = faults::FaultKind::kFpgaStall;
  stall.start = horizon / 4;
  stall.end = horizon / 2;
  schedule.add(stall);
  faults::FaultWindow brown;
  brown.kind = faults::FaultKind::kChannelBrownout;
  brown.start = horizon / 3;
  brown.end = (2 * horizon) / 3;
  brown.loss_rate = 0.3;
  brown.rate_scale = 0.5;
  schedule.add(brown);
  faults::FaultWindow shrink;
  shrink.kind = faults::FaultKind::kFifoShrink;
  shrink.start = (3 * horizon) / 4;
  shrink.end = horizon;
  shrink.fifo_depth = 4;
  schedule.add(shrink);
  const std::vector<RunPhase> phases = {
      {"pre-fault", 0, horizon / 4},
      {"stall", horizon / 4, horizon / 2},
      {"brownout", horizon / 2, (3 * horizon) / 4},
      {"recovery", (3 * horizon) / 4, horizon + 1},
  };
  const RunReport report =
      expect_digest(base_config(), primary_, *trace_, profile_->num_classes(),
                    &schedule, phases, 0x4f3f0edb121fc99cULL);
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_GT(report.watchdog.degradations, 0u);
  EXPECT_EQ(report.phases.size(), phases.size());
}

TEST_F(GoldenReportTest, LifecyclePromoteThenRollback) {
  // The shadow is promoted a third of the way in; an unsatisfiable p99 SLO
  // then demotes it at the first barrier with an applied verdict.
  FenixSystemConfig config = base_config();
  config.lifecycle.shadow_cnn = shadow_;
  config.lifecycle.promote_at = trace_->duration() / 3;
  config.lifecycle.swap_blackout = sim::milliseconds(2);
  config.lifecycle.slo.max_verdict_p99 = 1;
  config.lifecycle.slo.min_samples = 1;
  const RunReport report =
      expect_digest(config, primary_, *trace_, profile_->num_classes(),
                    nullptr, {}, 0x2770dbe03cdbde49ULL);
  EXPECT_EQ(report.lifecycle_promotions, 1u);
  EXPECT_EQ(report.lifecycle_rollbacks, 1u);
}

TEST_F(GoldenReportTest, LifecycleRnnShadowDriftRollback) {
  // An RNN shadow under the CNN primary: each model tokenizes its own window
  // length (6 vs 9). The shadow is promoted a third of the way in, and the
  // drift check (p99 check off) rolls it back once a window's disagreement
  // rate passes 0.3. Identical at pipes {1, 4} x batch {1, 16}.
  FenixSystemConfig config = base_config();
  config.lifecycle.shadow_rnn = rnn_shadow_;
  config.lifecycle.promote_at = trace_->duration() / 3;
  config.lifecycle.swap_blackout = sim::milliseconds(2);
  config.lifecycle.slo.max_drift_rate = 0.3;
  config.lifecycle.slo.min_samples = 2;
  std::vector<PipelineOptions> grid;
  for (const std::size_t pipes : {1, 4}) {
    for (const std::size_t batch : {1, 16}) {
      PipelineOptions opts;
      opts.pipes = pipes;
      opts.batch = batch;
      grid.push_back(opts);
    }
  }
  const RunReport report =
      expect_digest(config, primary_, *trace_, profile_->num_classes(),
                    nullptr, {}, 0x8fd3964acc5d994dULL, grid);
  EXPECT_EQ(report.lifecycle_promotions, 1u);
  EXPECT_EQ(report.lifecycle_rollbacks, 1u);
  EXPECT_EQ(report.lifecycle_slo_breaches, 1u);
  EXPECT_EQ(report.lifecycle_shadow_evals, 55133u);
  EXPECT_EQ(report.lifecycle_disagreements, 26209u);
}

TEST_F(GoldenReportTest, DdosFloodWithAdmissionLadder) {
  // A scaled ddos_flood against a slow engine with a hair-trigger ladder, so
  // the ladder climbs and sheds.
  trafficgen::ScenarioConfig scenario =
      trafficgen::scenario_preset("ddos_flood");
  scenario.flows = 2000;
  scenario.offered_pps = 25000.0;
  scenario.num_classes = static_cast<std::uint16_t>(profile_->num_classes());
  trafficgen::ScenarioSource source(scenario);
  const net::Trace flood = net::materialize(source);

  FenixSystemConfig config = base_config();
  config.data_engine.fpga_inference_rate_hz = 3e6;
  config.model_engine.ii_override_cycles = 90000;
  config.recovery.result_deadline = sim::microseconds(2500);
  config.admission.enabled = true;
  config.admission.enter_epochs = 1;
  config.admission.exit_epochs = 2;
  config.admission.victim_min_count = 8;
  const RunReport report =
      expect_digest(config, primary_, flood, profile_->num_classes(), nullptr,
                    {}, 0xe6847aeb446635baULL);
  EXPECT_GT(report.admission_transitions, 0u);
  EXPECT_GT(report.shed_thinned + report.shed_frozen + report.shed_isolated,
            0u);
}

}  // namespace
}  // namespace fenix::core
