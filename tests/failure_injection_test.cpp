// Failure-injection tests: lossy PCB channels, model reconfiguration,
// hash-collision storms, and FPGA back-pressure. The system must degrade
// gracefully — never crash, never corrupt state, keep forwarding.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/fenix_system.hpp"
#include "core/model_pool.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "sim/channel.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

struct Fixture {
  Fixture() {
    profile = trafficgen::DatasetProfile::iscx_vpn();
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 400;
    synth.seed = 91;
    flows = trafficgen::synthesize_flows(profile, synth);

    nn::CnnConfig config;
    config.conv_channels = {12};
    config.fc_dims = {24};
    config.num_classes = profile.num_classes();
    model = std::make_unique<nn::CnnClassifier>(config, 19);
    const auto samples = trafficgen::make_packet_samples(flows, 9, 4, 4);
    nn::TrainOptions opts;
    opts.epochs = 1;
    model->fit(samples, opts);
    quantized = std::make_unique<nn::QuantizedCnn>(*model, samples);

    trafficgen::TraceConfig trace_config;
    trace_config.flow_arrival_rate_hz = 1500;
    trace = trafficgen::assemble_trace(flows, trace_config);
  }

  trafficgen::DatasetProfile profile;
  std::vector<trafficgen::FlowSample> flows;
  std::unique_ptr<nn::CnnClassifier> model;
  std::unique_ptr<nn::QuantizedCnn> quantized;
  net::Trace trace;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Admits `vec` on lane 0 of `engine`, the lane the engine-level tests drive.
std::optional<net::InferenceResult> submit(ModelEngine& engine,
                                           const net::FeatureVector& vec,
                                           sim::SimTime arrival) {
  return engine.submit_timed_lane(0, vec, arrival);
}

TEST(ChannelLoss, LossyTransfersAreCountedAndDropped) {
  sim::Channel ch(100e9, 0, /*loss_rate=*/0.5, /*loss_seed=*/3);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    if (ch.transfer_lossy(static_cast<sim::SimTime>(i) * sim::microseconds(1), 100)) {
      ++delivered;
    }
  }
  EXPECT_NEAR(delivered / 2000.0, 0.5, 0.05);
  EXPECT_EQ(ch.stats().losses, 2000u - static_cast<unsigned>(delivered));
  // Lost frames still consumed link time.
  EXPECT_EQ(ch.stats().transfers, 2000u);
}

TEST(ChannelLoss, ZeroLossRateNeverDrops) {
  sim::Channel ch(100e9, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(ch.transfer_lossy(static_cast<sim::SimTime>(i), 64).has_value());
  }
  EXPECT_EQ(ch.stats().losses, 0u);
}

TEST(FailureInjection, SystemSurvivesLossyChannels) {
  Fixture& f = fixture();
  FenixSystemConfig config;
  config.pcb_loss_rate = 0.2;
  FenixSystem system(config, f.quantized.get(), nullptr);
  const auto report = system.run(f.trace, f.profile.num_classes());

  EXPECT_GT(report.channel_losses, 0u);
  // The system keeps classifying despite losses: verdicts still land.
  EXPECT_GT(report.results_applied, 0u);
  EXPECT_EQ(report.packets, f.trace.packets.size());
}

TEST(FailureInjection, AccuracyDegradesMonotonicallyWithLoss) {
  Fixture& f = fixture();
  double prev_applied = 1e18;
  for (double loss : {0.0, 0.3, 0.9}) {
    FenixSystemConfig config;
    config.pcb_loss_rate = loss;
    FenixSystem system(config, f.quantized.get(), nullptr);
    const auto report = system.run(f.trace, f.profile.num_classes());
    EXPECT_LE(static_cast<double>(report.results_applied), prev_applied)
        << "loss=" << loss;
    prev_applied = static_cast<double>(report.results_applied);
  }
}

TEST(Reconfiguration, DropsDuringWindowThenResumes) {
  Fixture& f = fixture();
  ModelEngineConfig config;
  ModelEngine engine(config, f.quantized.get(), nullptr);

  net::FeatureVector vec;
  vec.sequence.resize(9);
  ASSERT_TRUE(submit(engine, vec, sim::microseconds(1)).has_value());

  engine.begin_reconfiguration(sim::microseconds(2), f.quantized.get(), nullptr,
                               sim::milliseconds(20));
  EXPECT_TRUE(engine.reconfiguring(sim::microseconds(3)));
  EXPECT_FALSE(submit(engine, vec, sim::milliseconds(10)).has_value());
  EXPECT_EQ(engine.stats().reconfig_drops, 1u);

  // After the window the engine serves again with the (re)loaded model.
  EXPECT_FALSE(engine.reconfiguring(sim::milliseconds(25)));
  EXPECT_TRUE(submit(engine, vec, sim::milliseconds(25)).has_value());
  EXPECT_EQ(engine.stats().reconfigurations, 1u);
}

TEST(Reconfiguration, SwapsModelKind) {
  Fixture& f = fixture();
  // Train a small RNN twin to swap in.
  nn::RnnConfig rnn_config;
  rnn_config.units = 8;
  rnn_config.num_classes = f.profile.num_classes();
  nn::RnnClassifier rnn(rnn_config, 5);
  const auto samples = trafficgen::make_packet_samples(f.flows, 9, 6, 2);
  nn::QuantizedRnn qrnn(rnn, samples);

  ModelEngineConfig config;
  ModelEngine engine(config, f.quantized.get(), nullptr);
  EXPECT_TRUE(engine.is_cnn());
  const auto cnn_cycles = engine.cycles_per_inference();

  engine.begin_reconfiguration(0, nullptr, &qrnn, sim::milliseconds(5));
  EXPECT_FALSE(engine.is_cnn());
  EXPECT_NE(engine.cycles_per_inference(), cnn_cycles);

  net::FeatureVector vec;
  vec.sequence.resize(9);
  ASSERT_TRUE(submit(engine, vec, sim::milliseconds(10)).has_value());
  // The swapped-in RNN serves the class, computed as the replay computes it.
  InferenceBatcher batcher(engine.cnn(), engine.rnn(), 1, 0);
  const InferenceBatcher::Ticket ticket = batcher.enqueue(vec.sequence);
  batcher.finish();
  EXPECT_GE(batcher.result(ticket), 0);
  EXPECT_LT(batcher.result(ticket), static_cast<int>(f.profile.num_classes()));
}

TEST(Reconfiguration, RejectsInvalidBinding) {
  Fixture& f = fixture();
  ModelEngineConfig config;
  ModelEngine engine(config, f.quantized.get(), nullptr);
  EXPECT_THROW(engine.begin_reconfiguration(0, nullptr, nullptr),
               std::invalid_argument);
}

TEST(FailureInjection, CollisionStormDoesNotCorruptOtherFlows) {
  // Adversarial flows all hitting one Flow Info Table slot must not disturb
  // an unrelated flow's cached verdict.
  switchsim::ResourceLedger ledger(switchsim::ChipProfile::tofino2());
  FlowTrackerConfig config;
  config.index_bits = 8;
  FlowTracker tracker(ledger, config);

  net::FiveTuple victim;
  victim.src_ip = 0x0a000001;
  victim.src_port = 1;
  victim.dst_port = 443;
  tracker.on_packet(victim, 0);
  ASSERT_TRUE(tracker.apply_classification(victim, 3));
  const std::uint32_t victim_slot = net::flow_index(victim, 8);

  // Storm: 5000 distinct flows; those hitting the victim's slot evict it,
  // all others must leave it intact.
  bool victim_evicted = false;
  for (std::uint16_t port = 2; port < 5002; ++port) {
    net::FiveTuple attacker = victim;
    attacker.src_port = port;
    tracker.on_packet(attacker, sim::microseconds(port));
    if (net::flow_index(attacker, 8) == victim_slot) victim_evicted = true;
    if (!victim_evicted) {
      ASSERT_EQ(tracker.classification_of(victim), 3) << "port " << port;
    }
  }
  EXPECT_GT(tracker.collisions(), 0u);
  // After eviction the verdict is gone — stale results must be rejected.
  if (victim_evicted) {
    EXPECT_EQ(tracker.classification_of(victim), -1);
  }
}

TEST(FailureInjection, PostResetEpochsNeverApplyStaleVerdicts) {
  // End-to-end epoch resync: an FPGA reset mid-run with chaos on both PCB
  // channels. Verdicts stamped before the reboot but delivered after it must
  // be discarded as epoch-stale, never applied — and the books must balance:
  // every verdict the return link released is applied, flow-stale, or
  // epoch-stale, with nothing lost and nothing double-counted.
  Fixture& f = fixture();
  faults::FaultSchedule schedule;
  {
    faults::FaultWindow reset;
    reset.kind = faults::FaultKind::kFpgaReset;
    reset.start = f.trace.duration() / 3;
    reset.end = reset.start + sim::milliseconds(30);
    schedule.add(reset);
    faults::FaultWindow chaos;
    chaos.kind = faults::FaultKind::kChannelReorder;
    chaos.start = 0;
    chaos.end = f.trace.duration();
    chaos.chaos_rate = 0.3;
    chaos.reorder_delay = sim::microseconds(80);
    schedule.add(chaos);
    faults::FaultWindow dup;
    dup.kind = faults::FaultKind::kChannelDuplicate;
    dup.start = 0;
    dup.end = f.trace.duration();
    dup.chaos_rate = 0.2;
    schedule.add(dup);
  }

  FenixSystemConfig config;
  config.link.max_retransmits = 1;
  FenixSystem system(config, f.quantized.get(), nullptr);
  faults::FaultInjector injector(schedule, system);
  const RunReport report =
      system.run(f.trace, f.profile.num_classes(), &injector);

  // The reboot resynced both links, and some pre-reset verdicts died of it.
  EXPECT_GT(report.link_resyncs, 0u);
  // Whole-fabric return-direction counters (summed over all lanes).
  const net::ReliableLinkStats from = system.link_stats_from_fpga();
  EXPECT_EQ(from.delivered,
            report.results_applied + report.results_stale +
                report.stale_epoch_drops);
  // Applied + flow-stale verdicts all recorded an end-to-end latency;
  // epoch-stale ones never touched the verdict tables.
  EXPECT_EQ(report.end_to_end.count(),
            report.results_applied + report.results_stale);
  EXPECT_GT(report.results_applied, 0u);  // the system recovered after reboot

  // The pipelined replay under the same schedule reproduces the serial run
  // bit for bit, epoch discards included.
  FenixSystem sharded(config, f.quantized.get(), nullptr);
  faults::FaultInjector sharded_injector(schedule, sharded);
  PipelineOptions opts;
  opts.pipes = 4;
  opts.batch = 8;
  const RunReport sharded_report = sharded.run_pipelined(
      f.trace, f.profile.num_classes(), &sharded_injector, {}, opts);
  EXPECT_EQ(first_divergence(report, sharded_report), std::nullopt);
  EXPECT_EQ(sharded_report.stale_epoch_drops, report.stale_epoch_drops);
}

TEST(FailureInjection, BackPressureDropsBoundedByQueue) {
  Fixture& f = fixture();
  ModelEngineConfig config;
  config.input_queue_depth = 2 * kCoordinationLanes;  // 2 slots per lane
  config.layer_pipelined = false;  // slow engine: maximize pressure
  ModelEngine engine(config, f.quantized.get(), nullptr);
  net::FeatureVector vec;
  vec.sequence.resize(9);
  std::uint64_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (submit(engine, vec, 0).has_value()) ++accepted;
  }
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(engine.stats().input_drops, 98u);
}

}  // namespace
}  // namespace fenix::core
