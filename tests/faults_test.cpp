// Fault-injection subsystem: schedule validation + serialization, injector
// arm/restore mechanics against a live system, and bit-exact replay of a
// faulted run.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/fenix_system.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::faults {
namespace {

FaultWindow window(FaultKind kind, sim::SimTime start, sim::SimTime end) {
  FaultWindow w;
  w.kind = kind;
  w.start = start;
  w.end = end;
  return w;
}

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, RejectsEmptyWindow) {
  FaultSchedule s;
  EXPECT_THROW(
      s.add(window(FaultKind::kFpgaStall, sim::milliseconds(2), sim::milliseconds(2))),
      std::invalid_argument);
  EXPECT_THROW(
      s.add(window(FaultKind::kFpgaStall, sim::milliseconds(2), sim::milliseconds(1))),
      std::invalid_argument);
}

TEST(FaultSchedule, RejectsOutOfRangeParameters) {
  FaultSchedule s;
  auto w = window(FaultKind::kChannelBrownout, 0, sim::milliseconds(1));
  w.loss_rate = 1.5;
  EXPECT_THROW(s.add(w), std::invalid_argument);
  w.loss_rate = 0.5;
  w.rate_scale = 0.0;
  EXPECT_THROW(s.add(w), std::invalid_argument);
  w.rate_scale = 2.0;
  EXPECT_THROW(s.add(w), std::invalid_argument);

  auto f = window(FaultKind::kFifoShrink, 0, sim::milliseconds(1));
  f.fifo_depth = 0;
  EXPECT_THROW(s.add(f), std::invalid_argument);
}

TEST(FaultSchedule, RejectsSameKindOverlapAllowsCrossKind) {
  FaultSchedule s;
  s.add(window(FaultKind::kFpgaStall, sim::milliseconds(1), sim::milliseconds(3)));
  EXPECT_THROW(
      s.add(window(FaultKind::kFpgaStall, sim::milliseconds(2), sim::milliseconds(4))),
      std::invalid_argument);
  // Abutting windows of the same kind are fine ([1,3) then [3,5)).
  s.add(window(FaultKind::kFpgaStall, sim::milliseconds(3), sim::milliseconds(5)));
  // A different kind may overlap: compound failures are legitimate.
  s.add(window(FaultKind::kChannelBrownout, sim::milliseconds(2),
               sim::milliseconds(4)));
  EXPECT_EQ(s.size(), 3u);
}

TEST(FaultSchedule, ClampsBrownoutRateScale) {
  FaultSchedule s;
  auto w = window(FaultKind::kChannelBrownout, 0, sim::milliseconds(1));
  w.rate_scale = 1e-12;  // would be a ~0 Hz line rate
  s.add(w);
  EXPECT_GE(s.windows()[0].rate_scale, kMinBrownoutRateScale);
}

TEST(FaultSchedule, TextRoundTrips) {
  FaultSchedule s;
  s.add(window(FaultKind::kFpgaReset, sim::milliseconds(10), sim::milliseconds(20)));
  auto b = window(FaultKind::kChannelBrownout, sim::milliseconds(5),
                  sim::milliseconds(15));
  b.loss_rate = 0.25;
  b.rate_scale = 0.125;
  s.add(b);
  auto f = window(FaultKind::kFifoShrink, sim::milliseconds(30),
                  sim::milliseconds(40));
  f.fifo_depth = 3;
  s.add(f);

  std::istringstream in(s.to_text());
  const FaultSchedule reparsed = FaultSchedule::parse(in);
  EXPECT_EQ(reparsed.to_text(), s.to_text());
  ASSERT_EQ(reparsed.size(), 3u);
  EXPECT_EQ(reparsed.windows()[0].kind, FaultKind::kChannelBrownout);
  EXPECT_DOUBLE_EQ(reparsed.windows()[0].loss_rate, 0.25);
  EXPECT_EQ(reparsed.windows()[2].fifo_depth, 3u);
}

TEST(FaultSchedule, ParseReportsLineNumbers) {
  std::istringstream bad("# fine\nfpga_stall 5 2\n");
  try {
    FaultSchedule::parse(bad);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  std::istringstream unknown("martian_attack 1 2\n");
  EXPECT_THROW(FaultSchedule::parse(unknown), std::runtime_error);
  std::istringstream badopt("brownout 1 2 warp=9\n");
  EXPECT_THROW(FaultSchedule::parse(badopt), std::runtime_error);
}

TEST(FaultSchedule, ParseErrorsCarryLineAndColumn) {
  // Unknown kind: the error points at the kind token itself.
  std::istringstream unknown("# header\n\n  martian_attack 1 2\n");
  try {
    FaultSchedule::parse(unknown);
    FAIL() << "expected ScheduleParseError";
  } catch (const ScheduleParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 3u);  // two leading spaces
    EXPECT_NE(std::string(e.what()).find("3:3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("martian_attack"), std::string::npos);
  }

  // Malformed rate value: the error points at the value, not the key.
  std::istringstream badrate("corrupt 1 2 rate=banana\n");
  try {
    FaultSchedule::parse(badrate);
    FAIL() << "expected ScheduleParseError";
  } catch (const ScheduleParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.column(), 18u);  // "banana" after "rate="
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }

  // Out-of-range rate: rejected with a position even though it parses as a
  // number.
  std::istringstream toobig("dup 1 2 rate=1.5\n");
  EXPECT_THROW(FaultSchedule::parse(toobig), ScheduleParseError);

  // Missing required argument: reported one column past the last token.
  std::istringstream truncated("fpga_stall 5\n");
  EXPECT_THROW(FaultSchedule::parse(truncated), ScheduleParseError);
}

TEST(FaultSchedule, ChaosKindsRoundTripThroughText) {
  FaultSchedule s;
  auto c = window(FaultKind::kChannelCorrupt, sim::milliseconds(1),
                  sim::milliseconds(2));
  c.chaos_rate = 0.25;
  s.add(c);
  auto r = window(FaultKind::kChannelReorder, sim::milliseconds(3),
                  sim::milliseconds(4));
  r.chaos_rate = 0.5;
  r.reorder_delay = sim::microseconds(120);
  s.add(r);
  auto d = window(FaultKind::kChannelDuplicate, sim::milliseconds(5),
                  sim::milliseconds(6));
  d.chaos_rate = 0.125;
  s.add(d);

  std::istringstream in(s.to_text());
  const FaultSchedule reparsed = FaultSchedule::parse(in);
  EXPECT_EQ(reparsed.to_text(), s.to_text());
  ASSERT_EQ(reparsed.size(), 3u);
  EXPECT_EQ(reparsed.windows()[0].kind, FaultKind::kChannelCorrupt);
  EXPECT_DOUBLE_EQ(reparsed.windows()[0].chaos_rate, 0.25);
  EXPECT_EQ(reparsed.windows()[1].kind, FaultKind::kChannelReorder);
  EXPECT_EQ(reparsed.windows()[1].reorder_delay, sim::microseconds(120));
  EXPECT_EQ(reparsed.windows()[2].kind, FaultKind::kChannelDuplicate);
  EXPECT_DOUBLE_EQ(reparsed.windows()[2].chaos_rate, 0.125);
}

TEST(FaultSchedule, RandomIsSeedDeterministic) {
  const auto horizon = sim::milliseconds(500);
  const FaultSchedule a = FaultSchedule::random(42, horizon, 6);
  const FaultSchedule b = FaultSchedule::random(42, horizon, 6);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.size(), 6u);
  const FaultSchedule c = FaultSchedule::random(43, horizon, 6);
  EXPECT_NE(a.to_text(), c.to_text());
  for (const FaultWindow& w : a.windows()) {
    EXPECT_LT(w.start, w.end);
    EXPECT_LE(w.end, horizon);
  }
}

// ---------------------------------------------------------------- injector

struct SystemFixture {
  SystemFixture() {
    profile = trafficgen::DatasetProfile::iscx_vpn();
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 150;
    synth.seed = 23;
    flows = trafficgen::synthesize_flows(profile, synth);

    nn::CnnConfig config;
    config.conv_channels = {8};
    config.fc_dims = {16};
    config.num_classes = profile.num_classes();
    model = std::make_unique<nn::CnnClassifier>(config, 11);
    const auto samples = trafficgen::make_packet_samples(flows, 9, 6, 3);
    nn::TrainOptions opts;
    opts.epochs = 1;
    model->fit(samples, opts);
    quantized = std::make_unique<nn::QuantizedCnn>(*model, samples);

    trafficgen::TraceConfig trace_config;
    trace_config.flow_arrival_rate_hz = 2000;
    trace = trafficgen::assemble_trace(flows, trace_config);
  }

  core::FenixSystem make_system() const {
    return core::FenixSystem(core::FenixSystemConfig{}, quantized.get(), nullptr);
  }

  trafficgen::DatasetProfile profile;
  std::vector<trafficgen::FlowSample> flows;
  std::unique_ptr<nn::CnnClassifier> model;
  std::unique_ptr<nn::QuantizedCnn> quantized;
  net::Trace trace;
};

SystemFixture& fixture() {
  static SystemFixture f;
  return f;
}

TEST(FaultInjector, BrownoutSavesAndRestoresChannelTuning) {
  auto system = fixture().make_system();
  const double base_bps = system.to_fpga().bits_per_second();
  FaultSchedule s;
  auto b = window(FaultKind::kChannelBrownout, sim::milliseconds(1),
                  sim::milliseconds(2));
  b.loss_rate = 0.4;
  b.rate_scale = 0.25;
  s.add(b);
  FaultInjector injector(s, system);

  injector.at_time(sim::microseconds(500));  // before the window
  EXPECT_DOUBLE_EQ(system.to_fpga().bits_per_second(), base_bps);

  injector.at_time(sim::milliseconds(1));  // inside
  EXPECT_DOUBLE_EQ(system.to_fpga().bits_per_second(), base_bps * 0.25);
  EXPECT_DOUBLE_EQ(system.from_fpga().bits_per_second(), base_bps * 0.25);
  EXPECT_DOUBLE_EQ(system.to_fpga().loss_rate(), 0.4);

  injector.at_time(sim::milliseconds(2));  // past the end
  EXPECT_DOUBLE_EQ(system.to_fpga().bits_per_second(), base_bps);
  EXPECT_DOUBLE_EQ(system.from_fpga().bits_per_second(), base_bps);
  EXPECT_DOUBLE_EQ(system.to_fpga().loss_rate(), 0.0);
  EXPECT_EQ(injector.stats().windows_armed, 1u);
  EXPECT_EQ(injector.stats().windows_restored, 1u);
}

TEST(FaultInjector, FifoShrinkRestoresDepth) {
  auto system = fixture().make_system();
  const std::size_t base_depth = system.model_engine().input_queue_depth();
  FaultSchedule s;
  auto f = window(FaultKind::kFifoShrink, sim::milliseconds(1), sim::milliseconds(2));
  f.fifo_depth = 2;
  s.add(f);
  FaultInjector injector(s, system);

  injector.at_time(sim::milliseconds(1));
  EXPECT_EQ(system.model_engine().input_queue_depth(), 2u);
  injector.at_time(sim::milliseconds(3));
  EXPECT_EQ(system.model_engine().input_queue_depth(), base_depth);
}

TEST(FaultInjector, StallAndResetDriveTheDevice) {
  auto system = fixture().make_system();
  FaultSchedule s;
  s.add(window(FaultKind::kFpgaStall, sim::milliseconds(1), sim::milliseconds(2)));
  s.add(window(FaultKind::kFpgaReset, sim::milliseconds(5), sim::milliseconds(6)));
  FaultInjector injector(s, system);

  injector.at_time(sim::milliseconds(1));
  const auto& device = system.model_engine().device();
  EXPECT_FALSE(device.available(sim::milliseconds(1)));
  EXPECT_TRUE(device.available(sim::milliseconds(3)));

  injector.at_time(sim::milliseconds(5));
  EXPECT_FALSE(device.available(sim::milliseconds(5) + sim::microseconds(1)));
  EXPECT_TRUE(device.available(sim::milliseconds(6)));
  EXPECT_EQ(device.fault_stats().stalls, 1u);
  EXPECT_EQ(device.fault_stats().resets, 1u);
}

TEST(FaultInjector, SkippedAheadTimeFiresEndsBeforeLaterStarts) {
  // A coarse-grained replay may jump straight past several windows: the
  // injector must still restore the first brownout's healthy rate before
  // arming the second, or the second would save 0.25x as "healthy".
  auto system = fixture().make_system();
  const double base_bps = system.to_fpga().bits_per_second();
  FaultSchedule s;
  auto b1 = window(FaultKind::kChannelBrownout, sim::milliseconds(1),
                   sim::milliseconds(2));
  b1.rate_scale = 0.25;
  s.add(b1);
  auto b2 = window(FaultKind::kChannelBrownout, sim::milliseconds(3),
                   sim::milliseconds(4));
  b2.rate_scale = 0.5;
  s.add(b2);
  FaultInjector injector(s, system);

  injector.at_time(sim::milliseconds(3) + sim::microseconds(1));
  // First window armed AND restored, second armed against the true base.
  EXPECT_DOUBLE_EQ(system.to_fpga().bits_per_second(), base_bps * 0.5);
  injector.at_time(sim::milliseconds(10));
  EXPECT_DOUBLE_EQ(system.to_fpga().bits_per_second(), base_bps);
  EXPECT_EQ(injector.stats().windows_armed, 2u);
  EXPECT_EQ(injector.stats().windows_restored, 2u);
}

TEST(FaultInjector, RestoreAllUnwindsLiveEffects) {
  auto system = fixture().make_system();
  const double base_bps = system.to_fpga().bits_per_second();
  const std::size_t base_depth = system.model_engine().input_queue_depth();
  FaultSchedule s;
  s.add(window(FaultKind::kChannelBrownout, 0, sim::seconds(10)));
  auto f = window(FaultKind::kFifoShrink, 0, sim::seconds(10));
  f.fifo_depth = 1;
  s.add(f);
  FaultInjector injector(s, system);
  injector.at_time(sim::milliseconds(1));
  ASSERT_NE(system.to_fpga().bits_per_second(), base_bps);
  injector.restore_all();
  EXPECT_DOUBLE_EQ(system.to_fpga().bits_per_second(), base_bps);
  EXPECT_EQ(system.model_engine().input_queue_depth(), base_depth);
}

// ------------------------------------------------------------- end to end

TEST(FaultReplay, FaultedRunIsBitIdentical) {
  SystemFixture& f = fixture();
  const sim::SimDuration horizon = f.trace.duration();
  const FaultSchedule schedule = FaultSchedule::random(0xbad5eed, horizon, 4);

  const auto run_once = [&] {
    auto system = f.make_system();
    FaultInjector injector(schedule, system);
    return system.run(f.trace, f.profile.num_classes(), &injector);
  };
  const core::RunReport a = run_once();
  const core::RunReport b = run_once();

  const auto div = core::first_divergence(a, b);
  EXPECT_EQ(div, std::nullopt) << div.value_or("");
}

TEST(FaultReplay, SurvivesRandomCompoundSchedules) {
  // Sweep several random schedules; the invariant is simply "never crash,
  // every packet still forwarded, health counters consistent".
  SystemFixture& f = fixture();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto system = f.make_system();
    const FaultSchedule schedule =
        FaultSchedule::random(seed, f.trace.duration(), 5);
    FaultInjector injector(schedule, system);
    const auto report = system.run(f.trace, f.profile.num_classes(), &injector);
    EXPECT_EQ(report.packets, f.trace.packets.size()) << "seed " << seed;
    const auto health = system.health_metrics(report);
    core::for_each_counter(
        [&](const char* name, std::uint64_t value) {
          EXPECT_TRUE(health.contains(name)) << name << ", seed " << seed;
          EXPECT_EQ(health.counter(name), value) << name << ", seed " << seed;
        },
        report);
  }
}

TEST(FaultReplay, FifoPeakReadsTheLaneQueues) {
  // engine_fifo_peak is the most vectors any lane's input FIFO held at once:
  // above 1 on a healthy run (a lane holds 64 / 16 = 4), exactly 1 when a
  // fifo_shrink window clamps every lane to one slot for the whole run. The
  // clamp's overflows are engine_input_drops.
  SystemFixture& f = fixture();
  FaultSchedule shrink;
  auto w = window(FaultKind::kFifoShrink, 0, f.trace.duration() + sim::seconds(1));
  w.fifo_depth = 1;
  shrink.add(w);
  core::PipelineOptions opts;
  opts.pipes = 4;
  const FaultSchedule healthy;
  for (const bool faulted : {false, true}) {
    auto system = f.make_system();
    FaultInjector injector(faulted ? shrink : healthy, system);
    const auto report = system.run_pipelined(
        f.trace, f.profile.num_classes(), &injector, {}, opts);
    const auto health = system.health_metrics(report);
    const std::uint64_t peak = health.counter("engine_fifo_peak");
    const std::uint64_t drops = health.counter("engine_input_drops");
    EXPECT_EQ(peak, system.model_engine().stats().fifo_peak);
    if (!faulted) {
      EXPECT_GT(peak, 1u);
      EXPECT_LE(peak, 64u / core::kCoordinationLanes);
    } else {
      EXPECT_EQ(peak, 1u);
      EXPECT_GT(drops, 0u);
    }
    EXPECT_FALSE(health.contains("engine_fifo_drops"));
  }
}

}  // namespace
}  // namespace fenix::faults
