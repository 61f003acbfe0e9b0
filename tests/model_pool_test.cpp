// Tests for multi-model deployment: resource-checked admission, per-task
// routing, and isolation between resident engines. Vectors enter an engine
// through its lane port 0.
#include <gtest/gtest.h>

#include <memory>

#include "core/model_pool.hpp"
#include "sim/random.hpp"

namespace fenix::core {
namespace {

struct TwoModels {
  TwoModels() {
    std::vector<nn::SeqSample> calibration;
    sim::RandomStream rng(1);
    for (int i = 0; i < 16; ++i) {
      nn::SeqSample s;
      s.label = 0;
      for (int t = 0; t < 9; ++t) {
        s.tokens.push_back({static_cast<std::uint16_t>(rng.uniform_int(nn::kLenVocab)),
                            static_cast<std::uint16_t>(rng.uniform_int(nn::kIpdVocab))});
      }
      calibration.push_back(std::move(s));
    }
    nn::CnnConfig cnn_config;
    cnn_config.conv_channels = {16, 24};
    cnn_config.fc_dims = {32};
    cnn_config.num_classes = 7;
    cnn_model = std::make_unique<nn::CnnClassifier>(cnn_config, 2);
    qcnn = std::make_unique<nn::QuantizedCnn>(*cnn_model, calibration);

    nn::RnnConfig rnn_config;
    rnn_config.units = 32;
    rnn_config.num_classes = 12;
    rnn_model = std::make_unique<nn::RnnClassifier>(rnn_config, 3);
    qrnn = std::make_unique<nn::QuantizedRnn>(*rnn_model, calibration);
  }
  std::unique_ptr<nn::CnnClassifier> cnn_model;
  std::unique_ptr<nn::QuantizedCnn> qcnn;
  std::unique_ptr<nn::RnnClassifier> rnn_model;
  std::unique_ptr<nn::QuantizedRnn> qrnn;
};

net::FeatureVector vector_for(std::uint32_t flow_id) {
  net::FeatureVector vec;
  vec.flow_id = flow_id;
  net::PacketFeature f;
  f.length = 500;
  vec.sequence.assign(9, f);
  return vec;
}

/// Routes `vec` to the engine serving `task` and admits it on lane 0.
std::optional<net::InferenceResult> submit(ModelPool& pool, std::size_t task,
                                           const net::FeatureVector& vec,
                                           sim::SimTime arrival) {
  return pool.engine(task).submit_timed_lane(0, vec, arrival);
}

/// The class the engine's bound model predicts for `vec`, computed as the
/// replay computes it: through an InferenceBatcher.
std::int16_t classify(const ModelEngine& engine, const net::FeatureVector& vec) {
  InferenceBatcher batcher(engine.cnn(), engine.rnn(), 1, 0);
  const InferenceBatcher::Ticket ticket = batcher.enqueue(vec.sequence);
  batcher.finish();
  return batcher.result(ticket);
}

TEST(ModelPool, HostsTwoTasksSimultaneously) {
  TwoModels models;
  ModelPool pool(fpgasim::DeviceProfile::zu19eg());
  ModelEngineConfig config;
  config.conv_lanes = 512;  // modest engines so two fit comfortably
  config.fc_lanes = 256;
  config.recurrent_lanes = 256;
  const auto vpn_task = pool.add_engine(config, models.qcnn.get(), nullptr);
  const auto malware_task = pool.add_engine(config, nullptr, models.qrnn.get());
  EXPECT_EQ(pool.size(), 2u);

  const auto r_vpn = submit(pool, vpn_task, vector_for(1), sim::microseconds(1));
  const auto r_mal = submit(pool, malware_task, vector_for(2), sim::microseconds(1));
  ASSERT_TRUE(r_vpn && r_mal);
  const std::int16_t vpn_class = classify(pool.engine(vpn_task), vector_for(1));
  const std::int16_t mal_class = classify(pool.engine(malware_task), vector_for(2));
  EXPECT_GE(vpn_class, 0);
  EXPECT_LT(vpn_class, 7);
  EXPECT_GE(mal_class, 0);
  EXPECT_LT(mal_class, 12);
  // Utilization is pooled across both.
  const auto util = pool.utilization();
  EXPECT_GT(util.lut, 0.0);
  EXPECT_LT(util.lut, 1.0);
}

TEST(ModelPool, EnginesAreTimingIsolated) {
  TwoModels models;
  ModelPool pool(fpgasim::DeviceProfile::zu19eg());
  ModelEngineConfig config;
  config.conv_lanes = 512;
  config.fc_lanes = 256;
  config.recurrent_lanes = 256;
  const auto a = pool.add_engine(config, models.qcnn.get(), nullptr);
  const auto b = pool.add_engine(config, nullptr, models.qrnn.get());

  // Saturate engine A; engine B must still start promptly (no cross-engine
  // queueing): its start delay is just the CDC synchronizer.
  for (int i = 0; i < 50; ++i) submit(pool, a, vector_for(10), 0);
  const auto idle_b = submit(pool, b, vector_for(11), 0);
  ASSERT_TRUE(idle_b.has_value());
  EXPECT_LE(idle_b->inference_started,
            sim::SimTime(pool.engine(b).inference_latency()));
}

TEST(ModelPool, RejectsOvercommit) {
  TwoModels models;
  ModelPool pool(fpgasim::DeviceProfile::zu19eg());
  ModelEngineConfig big;
  big.conv_lanes = 6000;  // ~half the device per engine
  big.fc_lanes = 3000;
  std::size_t admitted = 0;
  try {
    for (int i = 0; i < 10; ++i) {
      pool.add_engine(big, models.qcnn.get(), nullptr);
      ++admitted;
    }
    FAIL() << "expected DeviceOvercommit";
  } catch (const DeviceOvercommit&) {
    EXPECT_GE(admitted, 1u);
    EXPECT_LT(admitted, 10u);
  }
  // The rejected engine must not count toward pooled utilization.
  EXPECT_EQ(pool.size(), admitted);
}

TEST(ModelPool, UnknownTaskIsATypedError) {
  TwoModels models;
  ModelPool pool(fpgasim::DeviceProfile::zu19eg());
  ModelEngineConfig config;
  config.conv_lanes = 512;
  config.fc_lanes = 256;
  const auto task = pool.add_engine(config, models.qcnn.get(), nullptr);

  // Misrouted task ids on the submission hot path surface as the pool's own
  // typed error, never the container's bare std::out_of_range.
  EXPECT_THROW(submit(pool, task + 1, vector_for(1), 0), UnknownTask);
  EXPECT_THROW(pool.engine(task + 1), UnknownTask);
  EXPECT_THROW(pool.swap_model(task + 7, nullptr, models.qrnn.get(), 0),
               UnknownTask);
  try {
    submit(pool, 99, vector_for(1), 0);
    FAIL() << "expected UnknownTask";
  } catch (const UnknownTask& e) {
    // The message names the bad id and the resident count.
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1"), std::string::npos);
  }
  // UnknownTask is still an invalid_argument (and thus a logic_error), so
  // existing generic handlers keep working.
  EXPECT_THROW(submit(pool, task + 1, vector_for(1), 0), std::invalid_argument);
  // The pool remains usable after the error.
  EXPECT_TRUE(submit(pool, task, vector_for(1), sim::microseconds(1)).has_value());
}

TEST(ModelPool, OvercommitBoundaryAtExactDeviceCapacity) {
  TwoModels models;
  ModelEngineConfig config;
  config.conv_lanes = 512;
  config.fc_lanes = 256;

  // Measure one engine's exact footprint, then build device envelopes around
  // it. At exactly 100% pooled utilization the routing/arbiter margin (3% per
  // resident engine) must reject the admission...
  fpgasim::ResourceEstimate est;
  {
    ModelEngine probe(config, models.qcnn.get(), nullptr);
    for (const auto& module : probe.resource_report()) est += module;
  }
  fpgasim::DeviceProfile exact;
  exact.name = "exact-fit";
  exact.luts = est.luts;
  exact.flip_flops = est.flip_flops;
  exact.bram36_blocks = static_cast<std::uint64_t>(est.bram36) + 1;
  exact.uram_blocks = static_cast<std::uint64_t>(est.uram) + 1;
  exact.dsp_slices = est.dsps;
  exact.fabric_clock_hz = 300e6;
  ModelPool full(exact);
  EXPECT_THROW(full.add_engine(config, models.qcnn.get(), nullptr),
               DeviceOvercommit);
  EXPECT_EQ(full.size(), 0u);

  // ...while a device with exactly the margin's worth of headroom admits it:
  // LUT/FF utilization lands at <= 97%, so util + 0.03 does not exceed 1.0.
  fpgasim::DeviceProfile headroom = exact;
  headroom.name = "margin-fit";
  headroom.luts = (est.luts * 100 + 96) / 97;        // ceil(luts / 0.97)
  headroom.flip_flops = (est.flip_flops * 100 + 96) / 97;
  ModelPool fits(headroom);
  const auto task = fits.add_engine(config, models.qcnn.get(), nullptr);
  EXPECT_EQ(fits.size(), 1u);
  const auto util = fits.utilization();
  EXPECT_GT(util.lut, 0.9);
  EXPECT_LE(util.lut + 0.03, 1.0);
  EXPECT_TRUE(submit(fits, task, vector_for(1), sim::microseconds(1)).has_value());
}

TEST(ModelPool, HotSwapRacingDeviceReset) {
  // A partial-reconfiguration swap and a hard device reset overlapping in
  // time: submissions die for the union of both windows, in-flight state is
  // flushed exactly once, and the engine comes back serving the new model.
  TwoModels models;
  ModelPool pool(fpgasim::DeviceProfile::zu19eg());
  ModelEngineConfig config;
  config.conv_lanes = 512;
  config.fc_lanes = 256;
  const auto task = pool.add_engine(config, models.qcnn.get(), nullptr);

  // Prime some in-flight work, then swap at t=1ms (2ms blackout) and reset
  // the device at t=2ms (2ms reboot): the windows overlap by 1ms.
  for (int i = 0; i < 8; ++i) {
    submit(pool, task, vector_for(static_cast<std::uint32_t>(i)),
                sim::microseconds(100 * (i + 1)));
  }
  pool.swap_model(task, nullptr, models.qrnn.get(), sim::milliseconds(1),
                  sim::milliseconds(2));
  pool.engine(task).device().reset(sim::milliseconds(2), sim::milliseconds(2));

  // Inside the reconfiguration window (before the reset): dropped.
  EXPECT_FALSE(
      submit(pool, task, vector_for(20), sim::milliseconds(1) + 1).has_value());
  // Inside the overlap: still dropped.
  EXPECT_FALSE(
      submit(pool, task, vector_for(21), sim::milliseconds(2) + 1).has_value());
  // Reconfiguration done but the card is still rebooting: dropped.
  EXPECT_FALSE(submit(pool, task, vector_for(22),
                           sim::milliseconds(3) + sim::microseconds(500))
                   .has_value());
  // Both windows elapsed: the engine serves the swapped-in RNN.
  const auto result = submit(pool, task, vector_for(23), sim::milliseconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(pool.engine(task).is_cnn());
  const std::int16_t cls = classify(pool.engine(task), vector_for(23));
  EXPECT_GE(cls, 0);
  EXPECT_LT(cls, 12);

  const auto stats = pool.engine(task).stats();
  EXPECT_EQ(stats.reconfigurations, 1u);
  EXPECT_GT(stats.reconfig_drops, 0u);
  EXPECT_EQ(pool.engine(task).device().fault_stats().resets, 1u);
}

TEST(ModelPool, PerTaskHotSwap) {
  TwoModels models;
  ModelPool pool(fpgasim::DeviceProfile::zu19eg());
  ModelEngineConfig config;
  config.conv_lanes = 512;
  config.fc_lanes = 256;
  const auto task = pool.add_engine(config, models.qcnn.get(), nullptr);
  pool.engine(task).begin_reconfiguration(0, nullptr, models.qrnn.get(),
                                          sim::milliseconds(1));
  EXPECT_FALSE(submit(pool, task, vector_for(1), sim::microseconds(10)).has_value());
  const auto result = submit(pool, task, vector_for(1), sim::milliseconds(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(pool.engine(task).is_cnn());
}

}  // namespace
}  // namespace fenix::core
