// Shared infrastructure for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (§7). Dataset sizes and training epochs are scaled down from
// Table 1 so a bench run completes in minutes on one CPU core; the knobs
// below (overridable via environment variables) control that scale. The
// *shape* of each result — orderings, ratios, crossovers — is what the
// benches reproduce, as recorded in EXPERIMENTS.md.
//
// Environment knobs:
//   FENIX_BENCH_TRAIN_FLOWS  (default 3000)  flows synthesized for training
//   FENIX_BENCH_TEST_FLOWS   (default 900)   flows synthesized for testing
//   FENIX_BENCH_EPOCHS       (default 4)     NN training epochs
//   FENIX_BENCH_SMOKE        (default 0)     1 = truncate sweeps to a few
//                                            iterations (the `bench_smoke`
//                                            ctest label sets this so benches
//                                            cannot silently bit-rot)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/verdict_backend.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "telemetry/metrics.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::bench {

/// Scale knobs read from the environment.
struct BenchScale {
  std::size_t train_flows = 3000;
  std::size_t test_flows = 900;
  std::size_t epochs = 4;
  std::size_t cap_per_class = 1500;  ///< Oversampling cap for NN training.
  bool smoke = false;                ///< Truncate sweeps to a few iterations.

  static BenchScale from_env();

  /// Sweep-point budget: `full` normally, a small prefix under smoke.
  std::size_t sweep_points(std::size_t full) const {
    return smoke ? std::min<std::size_t>(full, 2) : full;
  }
};

/// One dataset instance: profile + synthesized train/test flows.
struct DatasetInstance {
  trafficgen::DatasetProfile profile;
  std::vector<trafficgen::FlowSample> train;
  std::vector<trafficgen::FlowSample> test;

  std::size_t num_classes() const { return profile.num_classes(); }
};

DatasetInstance make_dataset(const trafficgen::DatasetProfile& profile,
                             const BenchScale& scale, std::uint64_t seed);

/// Bench-scale model configurations: down-scaled from the paper's
/// 64/128/256-filter CNN and 128-unit RNN, preserving layer structure.
nn::CnnConfig bench_cnn_config(std::size_t num_classes);
nn::RnnConfig bench_rnn_config(std::size_t num_classes);

/// Trains the FENIX CNN/RNN on sliding-window packet samples and quantizes.
struct TrainedFenixModels {
  std::unique_ptr<nn::CnnClassifier> cnn;
  std::unique_ptr<nn::RnnClassifier> rnn;
  std::unique_ptr<nn::QuantizedCnn> qcnn;
  std::unique_ptr<nn::QuantizedRnn> qrnn;
};

TrainedFenixModels train_fenix_models(const DatasetInstance& dataset,
                                      const BenchScale& scale, std::uint64_t seed);

/// Evaluates a per-packet classifier over test flows. `classify` returns one
/// verdict per packet of the flow.
template <typename Classify>
telemetry::ConfusionMatrix evaluate_packet_level(
    const std::vector<trafficgen::FlowSample>& flows, std::size_t num_classes,
    Classify&& classify) {
  telemetry::ConfusionMatrix cm(num_classes);
  for (const auto& flow : flows) {
    const auto verdicts = classify(flow);
    for (const auto v : verdicts) cm.add(flow.label, v);
  }
  return cm;
}

/// Flow-level evaluation by majority vote of the per-packet verdicts
/// (the paper's FENIX-F accuracy: "majority voting of packet classifications
/// within each flow"). The vote itself is core::majority_verdict — the same
/// code path every VerdictBackend goes through.
template <typename Classify>
telemetry::ConfusionMatrix evaluate_flow_level(
    const std::vector<trafficgen::FlowSample>& flows, std::size_t num_classes,
    Classify&& classify) {
  telemetry::ConfusionMatrix cm(num_classes);
  for (const auto& flow : flows) {
    const auto verdicts = classify(flow);
    cm.add(flow.label, core::majority_verdict(
                           std::span<const std::int16_t>(verdicts), num_classes));
  }
  return cm;
}

/// Per-packet verdicts of a quantized sequence model over one flow
/// (window ending at every packet — the Model Engine's view). Runs the
/// shared harness loop via core::QuantizedModelBackend.
template <typename QModel>
std::vector<std::int16_t> classify_packets_with(const QModel& model,
                                                const trafficgen::FlowSample& flow,
                                                std::size_t seq_len) {
  core::QuantizedModelBackend<QModel> backend(model, seq_len, "fenix");
  return core::classify_flow_packets(backend, flow);
}

/// Prints a standard bench banner.
void print_banner(const std::string& title, const std::string& paper_ref);

/// Replays per configuration in the throughput benches. One replay takes a
/// fraction of a second, so a single one is at the mercy of the shared
/// host's scheduling; their median is the configuration's wall time.
inline constexpr std::size_t kTimedReplays = 5;

/// Calls `replay()` (which builds a system, replays and returns the
/// RunReport) kTimedReplays times and returns the median wall seconds.
/// `check(report)` sees every report, outside the timed span.
template <typename Replay, typename Check>
double median_replay_seconds(const Replay& replay, const Check& check) {
  std::vector<double> walls;
  for (std::size_t i = 0; i < kTimedReplays; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto report = replay();
    walls.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    check(report);
  }
  std::nth_element(walls.begin(), walls.begin() + kTimedReplays / 2,
                   walls.end());
  return walls[kTimedReplays / 2];
}

}  // namespace fenix::bench
