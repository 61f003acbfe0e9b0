// The benchmark's workloads, each generated from the --seed argument.
//
//   scenario_steady    heavy_tailed preset at its full 2 Mpps offered rate,
//                      cut to fewer flows: per-packet data-plane work dominates.
//                      Run on demand only; BENCHMARK.json does not list it
//                      (see README.md, "Workloads").
//   fig10_saturation   the Fig. 10 NIC-saturation trace (8000 flows, 8x gap
//                      compression): inference and the per-mirror path dominate.
//   ddos_overload      ddos_flood with the admission ladder armed against a
//                      deliberately slowed Model Engine: the shed/drop/miss path.
#include <stdexcept>

#include "perfbench.hpp"
#include "net/packet_source.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/scenario.hpp"
#include "trafficgen/synthesizer.hpp"

namespace perfbench {
namespace {

using namespace fenix;

/// splitmix64 finalizer: decorrelates the per-purpose seeds derived from the
/// single --seed argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Training scale: small enough that a set-up takes about a second, large
// enough that every ISCX-VPN class is present in the calibration windows.
// The replays' host cost does not depend on how well the model classifies.
constexpr std::size_t kTrainFlows = 300;
constexpr std::size_t kTrainEpochs = 1;

/// Flows kept from the heavy_tailed preset (1M at full scale). The offered
/// rate stays at the preset's 2 Mpps, so packets per epoch and the number of
/// concurrently live flows match the full-scale run; only the horizon shrinks.
constexpr std::uint32_t kSteadyFlows = 400000;

/// ddos_flood at bench_overload's most overloaded point (its full tier, the
/// preset shrunk 50x and offered at 16x: 960k pps against an initiation
/// interval pinned to 360 * 50 cycles), with 5x the flows so one replay runs
/// long enough to time. The offered rate and the engine are unchanged, so the
/// per-epoch overload and the ladder's walk are those of bench_overload.
constexpr std::uint32_t kDdosFlows = 100000;
constexpr double kDdosOfferedPps = 3e6 / 50 * 16;
constexpr std::uint64_t kDdosIiCycles = 360 * 50;

nn::CnnConfig cnn_config(std::size_t classes) {
  // The benches' CNN: the paper's 3 conv + 2 FC structure at 1/4 width.
  nn::CnnConfig config;
  config.seq_len = 9;
  config.len_embed_dim = 12;
  config.ipd_embed_dim = 4;
  config.conv_channels = {16, 32, 64};
  config.kernel = 3;
  config.fc_dims = {128, 64};
  config.num_classes = classes;
  return config;
}

void train_model(Workload& w, const trafficgen::DatasetProfile& profile,
                 std::uint64_t seed) {
  trafficgen::SynthesisConfig synth;
  synth.total_flows = kTrainFlows;
  synth.seed = derive_seed(seed, 1);
  synth.min_flows_per_class = 6;
  const auto flows = trafficgen::synthesize_flows(profile, synth);
  const auto samples = trafficgen::make_packet_samples(flows, 9, 3, 8);

  nn::TrainOptions opts;
  opts.epochs = kTrainEpochs;
  opts.lr = 0.01f;
  opts.cap_per_class = 400;
  opts.seed = derive_seed(seed, 2);
  // The INT8 twin keeps no reference to its float parent.
  nn::CnnClassifier cnn(cnn_config(w.classes), opts.seed);
  cnn.fit(samples, opts);
  w.qcnn = std::make_unique<nn::QuantizedCnn>(cnn, samples);
}

core::FenixSystemConfig replay_config() {
  core::FenixSystemConfig config;
  config.data_engine.tracker.index_bits = 17;  // 128k-slot Flow Info Table
  config.data_engine.window_tw = sim::milliseconds(50);
  return config;
}

/// bench_overload's system under attack: the Rate Limiter is calibrated far
/// above the engine's real rate and the initiation interval is pinned, so
/// grants overrun the lane FIFOs and the admission ladder walks its tiers.
core::FenixSystemConfig overload_config() {
  core::FenixSystemConfig config;
  config.data_engine.tracker.index_bits = 15;
  config.data_engine.window_tw = sim::milliseconds(50);
  config.data_engine.fpga_inference_rate_hz = 3e6;
  config.model_engine.ii_override_cycles = kDdosIiCycles;
  config.recovery.result_deadline = sim::microseconds(2500);
  config.admission.enabled = true;
  return config;
}

net::Trace scenario_trace(trafficgen::ScenarioConfig scenario,
                          std::size_t classes, std::uint64_t seed) {
  scenario.seed = derive_seed(seed, 3);
  scenario.num_classes = static_cast<std::uint16_t>(classes);
  trafficgen::ScenarioSource source(scenario);
  return net::materialize(source);
}

net::Trace fig10_trace(const trafficgen::DatasetProfile& profile,
                       std::uint64_t seed) {
  trafficgen::SynthesisConfig synth;
  synth.total_flows = 8000;
  synth.seed = derive_seed(seed, 4);
  synth.min_flows_per_class = 40;
  synth.max_pkts_per_flow = 48;
  const auto flows = trafficgen::synthesize_flows(profile, synth);
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = static_cast<double>(flows.size()) / 2.0;
  trace_config.gap_time_scale = 1.0 / 8.0;
  trace_config.seed = derive_seed(seed, 5);
  return trafficgen::assemble_trace(flows, trace_config);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "scenario_steady", "fig10_saturation", "ddos_overload"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const auto profile = trafficgen::DatasetProfile::iscx_vpn();
  w.classes = profile.num_classes();

  const auto gen_start = Clock::now();
  if (name == "scenario_steady") {
    auto scenario = trafficgen::scenario_preset("heavy_tailed");
    scenario.flows = kSteadyFlows;
    w.trace = scenario_trace(scenario, w.classes, seed);
    w.config = replay_config();
  } else if (name == "fig10_saturation") {
    w.trace = fig10_trace(profile, seed);
    w.config = replay_config();
  } else if (name == "ddos_overload") {
    auto scenario = trafficgen::scenario_preset("ddos_flood");
    scenario.flows = kDdosFlows;
    scenario.offered_pps = kDdosOfferedPps;
    w.trace = scenario_trace(scenario, w.classes, seed);
    w.config = overload_config();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.gen_s = seconds_since(gen_start);

  for (const net::FlowRecord& f : w.trace.flows) {
    if (f.label >= 0 && static_cast<std::size_t>(f.label) < w.classes) {
      ++w.labeled_flows;
    }
  }
  train_model(w, profile, seed);
  return w;
}

std::uint64_t trace_digest(const net::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the packet fields
  const auto feed = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const net::PacketRecord& p : trace.packets) {
    feed(static_cast<std::uint64_t>(p.timestamp));
    feed(p.flow_id);
    feed(p.wire_length);
  }
  return h;
}

}  // namespace perfbench
