// Tests for the Model Engine: its lane ports' timing model, queue
// back-pressure, reset and reconfiguration, and result identity; functional
// equivalence with the quantized models; and resource reporting.
#include <gtest/gtest.h>

#include <memory>

#include "core/model_engine.hpp"
#include "core/model_pool.hpp"

namespace fenix::core {
namespace {

struct ModelFixture {
  ModelFixture() {
    nn::CnnConfig config;
    config.conv_channels = {16, 24};
    config.fc_dims = {32};
    config.num_classes = 3;
    float_model = std::make_unique<nn::CnnClassifier>(config, 5);
    std::vector<nn::SeqSample> calibration;
    sim::RandomStream rng(1);
    for (int i = 0; i < 32; ++i) {
      nn::SeqSample s;
      s.label = static_cast<std::int16_t>(i % 3);
      for (int t = 0; t < 9; ++t) {
        s.tokens.push_back({static_cast<std::uint16_t>(rng.uniform_int(nn::kLenVocab)),
                            static_cast<std::uint16_t>(rng.uniform_int(nn::kIpdVocab))});
      }
      calibration.push_back(std::move(s));
    }
    quantized = std::make_unique<nn::QuantizedCnn>(*float_model, calibration);
  }
  std::unique_ptr<nn::CnnClassifier> float_model;
  std::unique_ptr<nn::QuantizedCnn> quantized;
};

net::FeatureVector make_vector(std::uint16_t base_len, std::size_t n = 9,
                               std::uint32_t flow_id = 1) {
  net::FeatureVector vec;
  vec.flow_id = flow_id;
  vec.tuple.src_ip = 0x0a000000u + flow_id;
  vec.tuple.src_port = static_cast<std::uint16_t>(1000 + flow_id);
  for (std::size_t i = 0; i < n; ++i) {
    net::PacketFeature f;
    f.length = static_cast<std::uint16_t>(base_len + i * 8);
    f.ipd_code = 300;
    vec.sequence.push_back(f);
  }
  return vec;
}

/// Admits `vec` on lane 0, the lane every single-lane test drives.
std::optional<net::InferenceResult> submit(ModelEngine& engine,
                                           const net::FeatureVector& vec,
                                           sim::SimTime arrival) {
  return engine.submit_timed_lane(0, vec, arrival);
}

/// The class the engine's bound model predicts for `vec`, computed as the
/// replay computes it: through an InferenceBatcher.
std::int16_t classify(const ModelEngine& engine, const net::FeatureVector& vec) {
  InferenceBatcher batcher(engine.cnn(), engine.rnn(), 1, 0);
  const InferenceBatcher::Ticket ticket = batcher.enqueue(vec.sequence);
  batcher.finish();
  return batcher.result(ticket);
}

TEST(ModelEngine, RequiresExactlyOneModel) {
  ModelEngineConfig config;
  EXPECT_THROW(ModelEngine(config, nullptr, nullptr), std::invalid_argument);
}

TEST(ModelEngine, InferenceLatencyIsMicrosecondScale) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const double us = sim::to_microseconds(engine.inference_latency());
  EXPECT_GT(us, 0.05);
  EXPECT_LT(us, 50.0);  // §7.5: microsecond-scale inference
}

TEST(ModelEngine, FunctionalMatchesQuantizedModel) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto vec = make_vector(100);
  ASSERT_TRUE(submit(engine, vec, sim::microseconds(1)).has_value());
  const auto tokens = nn::tokenize(vec.sequence, 9);
  EXPECT_EQ(classify(engine, vec), fixture.quantized->predict(tokens));
}

TEST(ModelEngine, PipelinedBackToBackSpacedByInitiationInterval) {
  ModelFixture fixture;
  ModelEngineConfig config;  // layer_pipelined = true by default
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto r1 = submit(engine, make_vector(100), 0);
  const auto r2 = submit(engine, make_vector(200), 0);  // same arrival
  ASSERT_TRUE(r1 && r2);
  const auto ii = engine.initiation_interval_cycles();
  EXPECT_LT(ii, engine.cycles_per_inference());  // pipelining helps
  // Second inference starts one initiation interval later, not one full
  // latency later.
  const auto gap = r2->inference_started - r1->inference_started;
  EXPECT_NEAR(static_cast<double>(gap),
              static_cast<double>(sim::SimDuration(
                  engine.inference_latency() * ii / engine.cycles_per_inference())),
              static_cast<double>(sim::kNanosecond) * 20);
}

TEST(ModelEngine, SerializedModeWaitsFullLatency) {
  ModelFixture fixture;
  ModelEngineConfig config;
  config.layer_pipelined = false;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto r1 = submit(engine, make_vector(100), 0);
  const auto r2 = submit(engine, make_vector(200), 0);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(engine.initiation_interval_cycles(), engine.cycles_per_inference());
  EXPECT_GE(r2->inference_finished,
            r1->inference_finished + engine.inference_latency() -
                engine.inference_latency() / 10);
}

TEST(ModelEngine, IdleEngineHasDeterministicLatency) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto r1 = submit(engine, make_vector(100), sim::milliseconds(1));
  const auto r2 = submit(engine, make_vector(100), sim::milliseconds(500));
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->inference_finished - r1->inference_started,
            r2->inference_finished - r2->inference_started);
}

TEST(ModelEngine, DropsWhenInputFifoOverflows) {
  ModelFixture fixture;
  ModelEngineConfig config;
  config.input_queue_depth = 4 * kCoordinationLanes;  // 4 slots per lane
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  int drops = 0;
  for (int i = 0; i < 32; ++i) {
    if (!submit(engine, make_vector(100), 0)) ++drops;  // all at t=0
  }
  EXPECT_EQ(drops, 32 - 4);
  EXPECT_EQ(engine.stats().input_drops, static_cast<std::uint64_t>(drops));
}

TEST(ModelEngine, FifoDrainsOverTime) {
  ModelFixture fixture;
  ModelEngineConfig config;
  config.input_queue_depth = 4 * kCoordinationLanes;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  // Submit at intervals above the inference latency: never drops.
  const sim::SimDuration gap = engine.inference_latency() * 2;
  sim::SimTime now = 0;
  for (int i = 0; i < 32; ++i) {
    now += gap;
    EXPECT_TRUE(submit(engine, make_vector(100), now).has_value()) << i;
  }
  EXPECT_EQ(engine.stats().input_drops, 0u);
}

TEST(ModelEngine, InferenceRateMatchesCycleModel) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const double rate = engine.inference_rate_hz();
  const double expected = config.systolic.clock_hz /
                          static_cast<double>(engine.initiation_interval_cycles());
  EXPECT_NEAR(rate, expected, expected * 1e-9);
}

TEST(ModelEngine, ShortSequencesArePadded) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto vec = make_vector(100, 2);
  ASSERT_TRUE(submit(engine, vec, 0).has_value());
  const std::int16_t cls = classify(engine, vec);
  EXPECT_GE(cls, 0);
  EXPECT_LT(cls, 3);
}

TEST(ModelEngine, ResourceReportCoversTable4Modules) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto report = engine.resource_report();
  ASSERT_EQ(report.size(), 4u);  // Embedding, Conv, FC, Vector I/O
  EXPECT_EQ(report[0].module, "Embedding");
  EXPECT_EQ(report[1].module, "Convolutional");
  EXPECT_EQ(report[2].module, "FC");
  EXPECT_EQ(report[3].module, "Vector I/O");
  // Embedding uses no DSPs (Table 4).
  EXPECT_EQ(report[0].dsps, 0u);
  // Everything must fit the device.
  fpgasim::ResourceEstimate total;
  for (const auto& est : report) total += est;
  const auto util = fpgasim::utilization(total, config.device);
  EXPECT_LT(util.lut, 1.0);
  EXPECT_LT(util.bram, 1.0);
  EXPECT_LT(util.dsp, 1.0);
}

TEST(ModelEngine, FullLaneDropsWhileAnotherLaneAdmits) {
  ModelFixture fixture;
  ModelEngineConfig config;
  config.input_queue_depth = 2 * kCoordinationLanes;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto vec = make_vector(100);
  ASSERT_TRUE(engine.submit_timed_lane(3, vec, 0).has_value());
  ASSERT_TRUE(engine.submit_timed_lane(3, vec, 0).has_value());
  // Lane 3's two slots are taken; at the same instant lane 3 drops and
  // lane 4, whose FIFO and array clock are its own, starts at once.
  EXPECT_FALSE(engine.submit_timed_lane(3, vec, 0).has_value());
  const auto other = engine.submit_timed_lane(4, vec, 0);
  ASSERT_TRUE(other.has_value());
  const auto first = submit(engine, vec, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(other->inference_started, first->inference_started);
  EXPECT_EQ(engine.lane_stats(3).input_drops, 1u);
  EXPECT_EQ(engine.lane_stats(3).inferences, 2u);
  EXPECT_EQ(engine.lane_stats(4).input_drops, 0u);
  EXPECT_EQ(engine.lane_stats(4).inferences, 1u);
  EXPECT_EQ(engine.stats().input_drops, 1u);
}

TEST(ModelEngine, ResetAndReconfigurationEmptyEveryLane) {
  ModelFixture fixture;
  ModelEngineConfig config;
  config.input_queue_depth = kCoordinationLanes;  // one slot per lane
  config.layer_pipelined = false;  // each inference holds its lane's clock
  const auto vec = make_vector(100);
  const sim::SimTime filled_at = sim::microseconds(10);
  const auto fill_every_lane = [&](ModelEngine& engine) {
    for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
      ASSERT_TRUE(engine.submit_timed_lane(lane, vec, filled_at).has_value());
      ASSERT_FALSE(engine.submit_timed_lane(lane, vec, filled_at).has_value());
    }
  };
  // The window ends before the queued inferences would finish, so a lane
  // that kept its FIFO would drop at the window's end, and one that kept its
  // array clock would start late. Every lane must start like a fresh
  // engine's.
  const auto expect_every_lane_fresh = [&](ModelEngine& engine, sim::SimTime at) {
    ModelEngine fresh(config, fixture.quantized.get(), nullptr);
    const sim::SimTime fresh_start = submit(fresh, vec, at)->inference_started;
    for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
      const auto result = engine.submit_timed_lane(lane, vec, at);
      ASSERT_TRUE(result.has_value()) << lane;
      EXPECT_EQ(result->inference_started, fresh_start) << lane;
    }
  };
  {
    ModelEngine engine(config, fixture.quantized.get(), nullptr);
    fill_every_lane(engine);
    const sim::SimTime reset_at = filled_at + 1;
    const sim::SimDuration reboot = engine.inference_latency() / 4;
    engine.device().reset(reset_at, reboot);
    EXPECT_FALSE(engine.submit_timed_lane(0, vec, reset_at + 1).has_value());
    EXPECT_EQ(engine.stats().stall_drops, 1u);
    expect_every_lane_fresh(engine, reset_at + reboot);
  }
  {
    ModelEngine engine(config, fixture.quantized.get(), nullptr);
    fill_every_lane(engine);
    const sim::SimTime swap_at = filled_at + 1;
    const sim::SimDuration blackout = engine.inference_latency() / 4;
    engine.begin_reconfiguration(swap_at, fixture.quantized.get(), nullptr,
                                 blackout);
    EXPECT_FALSE(engine.submit_timed_lane(5, vec, swap_at + 1).has_value());
    EXPECT_EQ(engine.stats().reconfig_drops, 1u);
    expect_every_lane_fresh(engine, swap_at + blackout);
    EXPECT_EQ(engine.stats().reconfigurations, 1u);
  }
}

TEST(ModelEngine, ResultCarriesTheVectorsIdentity) {
  ModelFixture fixture;
  ModelEngineConfig config;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  // Three vectors of different flows queue on one lane; each result pairs
  // with its own vector's identifier, in admission order.
  for (std::uint32_t flow = 7; flow < 10; ++flow) {
    const auto vec = make_vector(100, 9, flow);
    const auto result = engine.submit_timed_lane(2, vec, 0);
    ASSERT_TRUE(result.has_value()) << flow;
    EXPECT_EQ(result->flow_id, flow);
    EXPECT_EQ(result->tuple, vec.tuple);
    EXPECT_EQ(result->predicted_class, -1);  // the batcher computes it
    EXPECT_LT(result->inference_started, result->inference_finished);
  }
}

TEST(ModelEngine, StatsSumTheLanePorts) {
  ModelFixture fixture;
  ModelEngineConfig config;
  config.input_queue_depth = 3 * kCoordinationLanes;
  ModelEngine engine(config, fixture.quantized.get(), nullptr);
  const auto vec = make_vector(100);
  // Lane l gets l + 1 vectors at t = 0: lanes 0-2 admit all of theirs, the
  // others drop past their third.
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    for (std::size_t i = 0; i <= lane; ++i) engine.submit_timed_lane(lane, vec, 0);
  }
  engine.device().stall(sim::milliseconds(1), sim::milliseconds(2));
  engine.submit_timed_lane(9, vec, sim::milliseconds(1));
  ModelEngineStats sum;
  std::uint64_t peak = 0;
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    const ModelEngineStats& s = engine.lane_stats(lane);
    EXPECT_EQ(s.inferences, std::min<std::size_t>(lane + 1, 3)) << lane;
    EXPECT_EQ(s.fifo_peak, std::min<std::size_t>(lane + 1, 3)) << lane;
    sum.inferences += s.inferences;
    sum.input_drops += s.input_drops;
    sum.reconfig_drops += s.reconfig_drops;
    sum.stall_drops += s.stall_drops;
    peak = std::max(peak, s.fifo_peak);
  }
  const ModelEngineStats total = engine.stats();
  EXPECT_EQ(total.inferences, sum.inferences);
  EXPECT_EQ(total.input_drops, sum.input_drops);
  EXPECT_EQ(total.reconfig_drops, sum.reconfig_drops);
  EXPECT_EQ(total.stall_drops, sum.stall_drops);
  EXPECT_EQ(total.fifo_peak, peak);
  EXPECT_EQ(total.inferences, 1u + 2u + 3u + 13u * 3u);
  EXPECT_EQ(total.input_drops, 136u - total.inferences);
  EXPECT_EQ(total.stall_drops, 1u);
  EXPECT_EQ(total.fifo_peak, 3u);
}

}  // namespace
}  // namespace fenix::core
