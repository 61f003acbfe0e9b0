// Example: model hot-swap via partial dynamic reconfiguration (§2, §8).
//
// FPGAs can swap the Model Engine's bitstream region while the switch keeps
// forwarding. A CNN serves the first half of the trace while an RNN shadows
// it; the lifecycle then promotes the RNN at the first epoch barrier past the
// midpoint. Mirrors arriving during the 20 ms reconfiguration window are
// dropped, forwarding never stops, and verdicts resume from the new model.
// This is the hot-swap path every replay runs (DESIGN.md §5.7).
//
// Build: cmake --build build --target model_hotswap
// Run:   ./build/examples/model_hotswap
#include <iostream>

#include "core/fenix_system.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/synthesizer.hpp"

int main() {
  using namespace fenix;
  const auto profile = trafficgen::DatasetProfile::iscx_vpn();
  const std::size_t k = profile.num_classes();

  trafficgen::SynthesisConfig synth;
  synth.total_flows = 800;
  synth.seed = 40;
  const auto train = trafficgen::synthesize_flows(profile, synth);
  synth.total_flows = 600;
  synth.seed = 41;
  const auto replay = trafficgen::synthesize_flows(profile, synth);
  const auto samples = trafficgen::make_packet_samples(train, 9);

  std::cout << "Training CNN (generation 1) and RNN (generation 2)...\n";
  nn::TrainOptions opts;
  opts.epochs = 2;
  opts.lr = 0.01f;
  nn::CnnConfig cnn_config;
  cnn_config.conv_channels = {16, 24};
  cnn_config.fc_dims = {48};
  cnn_config.num_classes = k;
  nn::CnnClassifier cnn(cnn_config, 50);
  cnn.fit(samples, opts);
  nn::QuantizedCnn qcnn(cnn, samples);

  nn::RnnConfig rnn_config;
  rnn_config.units = 32;
  rnn_config.num_classes = k;
  nn::RnnClassifier rnn(rnn_config, 51);
  rnn.fit(samples, opts);
  nn::QuantizedRnn qrnn(rnn, samples);

  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = 1500;
  const auto trace = trafficgen::assemble_trace(replay, trace_config);

  // The RNN rides along as the shadow and is promoted at the midpoint. The
  // default SLO never demotes it, so it serves the rest of the trace.
  core::FenixSystemConfig config;
  config.lifecycle.shadow_rnn = &qrnn;
  config.lifecycle.promote_at = trace.packets[trace.packets.size() / 2].timestamp;
  config.lifecycle.swap_blackout = sim::milliseconds(20);
  std::cout << "hot-swapping the Model Engine to the RNN at t = "
            << sim::to_milliseconds(config.lifecycle.promote_at) << " ms ("
            << sim::to_milliseconds(config.lifecycle.swap_blackout)
            << " ms partial reconfiguration)\n";

  core::FenixSystem system(config, &qcnn, nullptr);
  const core::RunReport report = system.run(trace, k);

  std::cout << "\npromotions: " << report.lifecycle_promotions << "\n"
            << "verdicts from generation 1 (CNN): "
            << report.lifecycle_verdicts_primary << "\n"
            << "verdicts from generation 2 (RNN): "
            << report.lifecycle_verdicts_candidate << "\n"
            << "mirrors dropped during reconfiguration: "
            << report.lifecycle_swap_drops << "\n"
            << "reconfigurations: "
            << system.model_engine().stats().reconfigurations << "\n"
            << "engine now serves: "
            << (system.model_engine().is_cnn() ? "CNN" : "RNN") << "\n"
            << "packets forwarded throughout: " << report.packets << " of "
            << trace.packets.size() << " (forwarding never paused)\n";
  return 0;
}
