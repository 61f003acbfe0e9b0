// Accuracy-vs-resource frontier across weight precisions (fp32 / INT8 /
// INT4 / ternary).
//
// The sub-INT8 tier trades model accuracy for a multiply-free FPGA mapping:
// ternary and INT4 weights need no DSP at all (LUT-only select/negate or
// shift/add PEs), shrink the weight BRAM 2-4x, and — on the bench host —
// run the biased-plane VNNI GEMV faster than the INT8 widen+madd path. This
// bench quantifies all four corners of the trade on one trained model pair:
//
//   1. Kernel speed: hand-timed 128x128 GEMV and 32->64 conv1d per
//      precision, the sub-INT8 layers at the host's kernel rung against the
//      blocked scalar INT8 kernels (Isa::kScalar); `ternary_gemv_speedup_vs_int8`
//      is gated >= 1.0 (floor) by bench_gate against
//      bench/baselines_precision.json.
//   2. Accuracy: packet-level macro-F1 of the same trained CNN/RNN deployed
//      at each precision (floors gated per precision).
//   3. Replay semantics: the Figure 10 trace replayed end-to-end with the
//      ternary CNN — serial vs pipes {1,2,4,8}, every sharded RunReport
//      (including its `precision` field) asserted bit-identical.
//   4. Modeled hardware: Table 4 module shapes costed on the DSP systolic
//      model (INT8) vs the LUT-only PE model (ternary/INT4); the ternary
//      mapping must report exactly zero DSPs.
//
// Headline metrics land in BENCH_PR8.json § precision_sweep.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/fenix_system.hpp"
#include "fpgasim/lut_pe.hpp"
#include "fpgasim/resource_model.hpp"
#include "nn/layers.hpp"
#include "nn/quantize.hpp"
#include "telemetry/table.hpp"

namespace {

using namespace fenix;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// ns/op of `fn`, measured over enough iterations to fill `min_seconds`.
template <typename F>
double time_ns_per_op(F&& fn, std::size_t min_iters, double min_seconds) {
  fn();  // warm-up
  std::size_t iters = 0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    fn();
    ++iters;
    elapsed = seconds_since(start);
  } while (iters < min_iters || elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(iters);
}

void fill_i8(std::vector<std::int8_t>& v, sim::RandomStream& rng) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  }
}

nn::Dense random_dense(std::size_t in, std::size_t out, sim::RandomStream& rng) {
  nn::Dense d(in, out, rng);
  for (std::size_t r = 0; r < out; ++r) {
    for (std::size_t c = 0; c < in; ++c) {
      d.weights()(r, c) = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  }
  return d;
}

nn::Conv1D random_conv(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
                       sim::RandomStream& rng) {
  nn::Conv1D c(in_ch, out_ch, kernel, rng);
  for (std::size_t r = 0; r < c.weights().rows(); ++r) {
    for (std::size_t col = 0; col < c.weights().cols(); ++col) {
      c.weights()(r, col) = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  }
  return c;
}

template <typename Predict>
double packet_macro_f1(const std::vector<trafficgen::FlowSample>& flows,
                       std::size_t num_classes, Predict&& predict) {
  const auto cm = bench::evaluate_packet_level(
      flows, num_classes, [&](const trafficgen::FlowSample& flow) {
        std::vector<std::int16_t> verdicts(flow.features.size(), -1);
        for (std::size_t i = 0; i < flow.features.size(); ++i) {
          const std::size_t start = i + 1 >= 9 ? i + 1 - 9 : 0;
          const auto tokens = nn::tokenize(
              std::span<const net::PacketFeature>(flow.features.data() + start,
                                                  i + 1 - start),
              9);
          verdicts[i] = predict(tokens);
        }
        return verdicts;
      });
  return cm.macro_f1();
}

// ---------------------------------------------------- 1. kernel speedups

void report_kernel_speed(bench::JsonSection& perf, bool smoke) {
  const std::size_t min_iters = smoke ? 10 : 200;
  const double min_seconds = smoke ? 0.005 : 0.15;
  sim::RandomStream rng(0x9e1);

  constexpr std::size_t kN = 128;
  const nn::Dense dense = random_dense(kN, kN, rng);
  const nn::QDense q8 = nn::QDense::from(dense, -6, -4);
  const auto qt = nn::QPackedDense::from(dense, nn::Precision::kTernary, -6, -4);
  const auto q4 = nn::QPackedDense::from(dense, nn::Precision::kInt4, -6, -4);
  std::vector<std::int8_t> x(kN), y(kN);
  fill_i8(x, rng);

  // INT8 runs at the scalar rung, so the speedups keep their meaning:
  // sub-INT8 at the host rung against the blocked scalar INT8 kernel.
  const auto scalar_ns = [&](auto&& fn) {
    nn::kernels::ScopedIsaCap cap(nn::kernels::Isa::kScalar);
    return time_ns_per_op(fn, min_iters, min_seconds);
  };
  const double i8_ns = scalar_ns([&] { q8.forward(x.data(), y.data(), true); });
  const double t_ns = time_ns_per_op(
      [&] { qt.forward(x.data(), y.data(), true); }, min_iters, min_seconds);
  const double i4_ns = time_ns_per_op(
      [&] { q4.forward(x.data(), y.data(), true); }, min_iters, min_seconds);

  const nn::Conv1D conv = random_conv(32, 64, 3, rng);
  const nn::QConv1D c8 = nn::QConv1D::from(conv, -6, -4);
  const auto ct = nn::QPackedConv1D::from(conv, nn::Precision::kTernary, -6, -4);
  const auto c4 = nn::QPackedConv1D::from(conv, nn::Precision::kInt4, -6, -4);
  constexpr std::size_t kT = 9;
  std::vector<std::int8_t> cx(kT * 32), cy(kT * 64);
  fill_i8(cx, rng);

  const double c8_ns =
      scalar_ns([&] { c8.forward(cx.data(), kT, cy.data(), true); });
  const double ct_ns = time_ns_per_op(
      [&] { ct.forward(cx.data(), kT, cy.data(), true); }, min_iters,
      min_seconds);
  const double c4_ns = time_ns_per_op(
      [&] { c4.forward(cx.data(), kT, cy.data(), true); }, min_iters,
      min_seconds);

  telemetry::TextTable table({"Kernel", "INT8 (scalar) ns", "Ternary ns",
                              "INT4 ns", "Ternary vs INT8"});
  table.add_row({"GEMV 128x128", telemetry::TextTable::num(i8_ns, 1),
                 telemetry::TextTable::num(t_ns, 1),
                 telemetry::TextTable::num(i4_ns, 1),
                 telemetry::TextTable::num(t_ns > 0 ? i8_ns / t_ns : 0.0, 2) + "x"});
  table.add_row({"conv1d 32->64 k3 T9", telemetry::TextTable::num(c8_ns, 1),
                 telemetry::TextTable::num(ct_ns, 1),
                 telemetry::TextTable::num(c4_ns, 1),
                 telemetry::TextTable::num(ct_ns > 0 ? c8_ns / ct_ns : 0.0, 2) + "x"});
  std::cout << table.render();

  perf.put("gemv128_int8_ns", i8_ns);
  perf.put("gemv128_ternary_ns", t_ns);
  perf.put("gemv128_int4_ns", i4_ns);
  perf.put("conv1d_int8_ns", c8_ns);
  perf.put("conv1d_ternary_ns", ct_ns);
  perf.put("conv1d_int4_ns", c4_ns);
  perf.put("ternary_gemv_speedup_vs_int8", t_ns > 0 ? i8_ns / t_ns : 0.0);
  perf.put("int4_gemv_speedup_vs_int8", i4_ns > 0 ? i8_ns / i4_ns : 0.0);
  perf.put("ternary_conv1d_speedup_vs_int8", ct_ns > 0 ? c8_ns / ct_ns : 0.0);
}

// --------------------------------------------------------- 4. modeled HW

struct ModeledPoint {
  fpgasim::ResourceEstimate cnn;
  fpgasim::ResourceEstimate rnn;
  std::uint64_t cnn_latency = 0;
  std::uint64_t rnn_latency = 0;
};

/// Table 4 module shapes on the LUT-only PE model (weight_bits 2 or 4).
ModeledPoint model_lut_pe(unsigned weight_bits) {
  const fpgasim::LutPeCostModel lpe;
  ModeledPoint p;
  p.cnn = fpgasim::estimate_lut_pe_conv_stack(lpe, weight_bits,
                                              {16, 64, 128, 256}, 3, 3072);
  p.cnn += fpgasim::estimate_lut_pe_fc(lpe, weight_bits, 256, 512, 1024);
  p.cnn += fpgasim::estimate_lut_pe_fc(lpe, weight_bits, 512, 256, 256);
  p.cnn += fpgasim::estimate_lut_pe_fc(lpe, weight_bits, 256, 12, 128);
  p.rnn = fpgasim::estimate_lut_pe_recurrent(lpe, weight_bits, 16, 128, 1, 1792);
  p.rnn += fpgasim::estimate_lut_pe_fc(lpe, weight_bits, 128, 512, 1024);
  p.rnn += fpgasim::estimate_lut_pe_fc(lpe, weight_bits, 512, 256, 256);
  p.rnn += fpgasim::estimate_lut_pe_fc(lpe, weight_bits, 256, 12, 128);
  // Per-window MACs of the Table 4 CNN / RNN at their configured lane counts.
  const std::uint64_t cnn_macs = 9ull * (16 * 64 + 64 * 128 + 128 * 256) * 3 +
                                 256ull * 512 + 512ull * 256 + 256ull * 12;
  const std::uint64_t rnn_macs = 9ull * (16ull * 128 + 128ull * 128) +
                                 128ull * 512 + 512ull * 256 + 256ull * 12;
  p.cnn_latency = fpgasim::lut_pe_latency_cycles(lpe, cnn_macs, 3072);
  p.rnn_latency = fpgasim::lut_pe_latency_cycles(lpe, rnn_macs, 1792);
  return p;
}

/// The same shapes on the INT8 DSP/LUT-MAC systolic model (Table 4 proper).
ModeledPoint model_int8() {
  const fpgasim::CostModel cm;
  const fpgasim::LutPeCostModel lpe;  // Latency formula shared across tiers.
  ModeledPoint p;
  p.cnn = fpgasim::estimate_conv_stack(cm, {16, 64, 128, 256}, 3, 3072);
  p.cnn += fpgasim::estimate_fc(cm, 256, 512, 1024);
  p.cnn += fpgasim::estimate_fc(cm, 512, 256, 256);
  p.cnn += fpgasim::estimate_fc(cm, 256, 12, 128);
  p.rnn = fpgasim::estimate_recurrent(cm, 16, 128, 1, 1792);
  p.rnn += fpgasim::estimate_fc(cm, 128, 512, 1024);
  p.rnn += fpgasim::estimate_fc(cm, 512, 256, 256);
  p.rnn += fpgasim::estimate_fc(cm, 256, 12, 128);
  const std::uint64_t cnn_macs = 9ull * (16 * 64 + 64 * 128 + 128 * 256) * 3 +
                                 256ull * 512 + 512ull * 256 + 256ull * 12;
  const std::uint64_t rnn_macs = 9ull * (16ull * 128 + 128ull * 128) +
                                 128ull * 512 + 512ull * 256 + 256ull * 12;
  p.cnn_latency = fpgasim::lut_pe_latency_cycles(lpe, cnn_macs, 3072);
  p.rnn_latency = fpgasim::lut_pe_latency_cycles(lpe, rnn_macs, 1792);
  return p;
}

void report_frontier(bench::JsonSection& perf,
                     const std::vector<std::pair<std::string, double>>& cnn_f1,
                     const std::vector<std::pair<std::string, double>>& rnn_f1) {
  telemetry::TextTable table({"Precision", "CNN F1", "RNN F1", "CNN kLUT",
                              "CNN BRAM36", "CNN DSP", "CNN cycles"});
  auto f1_of = [](const std::vector<std::pair<std::string, double>>& v,
                  const std::string& p) {
    for (const auto& [name, f1] : v) {
      if (name == p) return f1;
    }
    return 0.0;
  };
  const std::vector<std::pair<std::string, ModeledPoint>> points = {
      {"int8", model_int8()},
      {"int4", model_lut_pe(4)},
      {"ternary", model_lut_pe(2)},
  };
  table.add_row({"fp32", telemetry::TextTable::num(f1_of(cnn_f1, "fp32")),
                 telemetry::TextTable::num(f1_of(rnn_f1, "fp32")), "-", "-", "-",
                 "- (host only)"});
  for (const auto& [name, p] : points) {
    table.add_row(
        {name, telemetry::TextTable::num(f1_of(cnn_f1, name)),
         telemetry::TextTable::num(f1_of(rnn_f1, name)),
         telemetry::TextTable::num(static_cast<double>(p.cnn.luts) / 1000.0, 1),
         telemetry::TextTable::num(p.cnn.bram36, 1),
         std::to_string(p.cnn.dsps),
         std::to_string(p.cnn_latency)});
    perf.put(name + "_cnn_luts", static_cast<std::int64_t>(p.cnn.luts));
    perf.put(name + "_cnn_ffs", static_cast<std::int64_t>(p.cnn.flip_flops));
    perf.put(name + "_cnn_bram36", p.cnn.bram36);
    perf.put(name + "_cnn_dsps", static_cast<std::int64_t>(p.cnn.dsps));
    perf.put(name + "_cnn_latency_cycles",
             static_cast<std::int64_t>(p.cnn_latency));
    perf.put(name + "_rnn_luts", static_cast<std::int64_t>(p.rnn.luts));
    perf.put(name + "_rnn_dsps", static_cast<std::int64_t>(p.rnn.dsps));
    perf.put(name + "_rnn_latency_cycles",
             static_cast<std::int64_t>(p.rnn_latency));
  }
  std::cout << table.render();
  const bool zero_dsp = points[2].second.cnn.dsps == 0 &&
                        points[2].second.rnn.dsps == 0 &&
                        points[1].second.cnn.dsps == 0;
  perf.put("ternary_lut_pe_zero_dsp", zero_dsp ? std::int64_t{1} : std::int64_t{0});
  std::cout << "\nLUT-only PE mapping uses " << points[2].second.cnn.dsps
            << " DSPs for the ternary CNN (INT8 systolic: "
            << points[0].second.cnn.dsps << ")\n";
}

}  // namespace

int main() {
  bench::print_banner("FENIX bench: precision frontier sweep",
                      "sub-INT8 extension of Table 4 + §6 quantization claims");
  const auto scale = bench::BenchScale::from_env();
  bench::JsonSection perf;

  std::cout << "\n--- Kernel speed (hand-timed, bit-identical paths) ---\n";
  report_kernel_speed(perf, scale.smoke);

  // ---------------------------------------------- accuracy per precision
  auto dataset =
      bench::make_dataset(trafficgen::DatasetProfile::iscx_vpn(), scale, 0xa8c);
  std::cout << "\nTraining FENIX CNN/RNN once; deploying at each precision...\n";
  const auto models = bench::train_fenix_models(dataset, scale, 0xa8c);
  const auto samples = trafficgen::make_packet_samples(dataset.train, 9, 3, 8);
  const std::size_t k = dataset.num_classes();

  const std::vector<nn::Precision> tiers = {
      nn::Precision::kFp32, nn::Precision::kInt8, nn::Precision::kInt4,
      nn::Precision::kTernary};
  std::vector<std::pair<std::string, double>> cnn_f1, rnn_f1;
  std::unique_ptr<nn::QuantizedCnn> ternary_cnn;  // Reused by the replay leg.
  for (nn::Precision p : tiers) {
    auto qcnn = std::make_unique<nn::QuantizedCnn>(*models.cnn, samples, p);
    auto qrnn = std::make_unique<nn::QuantizedRnn>(*models.rnn, samples, p);
    const double cf1 = packet_macro_f1(
        dataset.test, k, [&](const auto& t) { return qcnn->predict(t); });
    const double rf1 = packet_macro_f1(
        dataset.test, k, [&](const auto& t) { return qrnn->predict(t); });
    cnn_f1.emplace_back(nn::precision_name(p), cf1);
    rnn_f1.emplace_back(nn::precision_name(p), rf1);
    perf.put(std::string("cnn_") + nn::precision_name(p) + "_macro_f1", cf1);
    perf.put(std::string("rnn_") + nn::precision_name(p) + "_macro_f1", rf1);
    if (p == nn::Precision::kTernary) ternary_cnn = std::move(qcnn);
  }

  // ------------------------------------- ternary replay path, bit-identity
  std::cout << "\n--- Ternary replay: Figure 10 trace, serial vs pipes ---\n";
  trafficgen::SynthesisConfig synth;
  synth.total_flows = scale.smoke ? 400 : 4000;
  synth.seed = 0x5ca1e ^ 4000u;
  synth.min_flows_per_class = scale.smoke ? 6 : 40;
  synth.max_pkts_per_flow = 48;
  const auto flows = trafficgen::synthesize_flows(dataset.profile, synth);
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = static_cast<double>(flows.size()) / 2.0;
  trace_config.gap_time_scale = 1.0 / 8.0;
  const auto trace = trafficgen::assemble_trace(flows, trace_config);

  const auto make_config = [] {
    core::FenixSystemConfig config;
    config.data_engine.tracker.index_bits = 17;
    config.data_engine.window_tw = sim::milliseconds(50);
    return config;
  };
  const auto serial_start = std::chrono::steady_clock::now();
  core::FenixSystem serial_system(make_config(), ternary_cnn.get(), nullptr);
  const auto serial_report = serial_system.run(trace, k);
  const double serial_s = seconds_since(serial_start);
  perf.put("ternary_serial_packets_per_sec",
           serial_s > 0 ? static_cast<double>(serial_report.packets) / serial_s
                        : 0.0);
  perf.put("report_precision", serial_report.precision);
  std::int64_t divergences = 0;
  for (const std::size_t pipes :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    core::PipelineOptions opts;
    opts.pipes = pipes;
    opts.batch = 16;
    const auto start = std::chrono::steady_clock::now();
    core::FenixSystem system(make_config(), ternary_cnn.get(), nullptr);
    const auto report = system.run_pipelined(trace, k, nullptr, {}, opts);
    const double wall_s = seconds_since(start);
    const auto divergence = core::first_divergence(serial_report, report);
    const bool identical = !divergence.has_value();
    if (!identical) {
      ++divergences;
      std::cerr << "DIVERGENCE at pipes=" << pipes << ": " << *divergence << "\n";
    }
    const std::string label = "ternary_pipes" + std::to_string(pipes);
    perf.put(label + "_packets_per_sec",
             wall_s > 0 ? static_cast<double>(report.packets) / wall_s : 0.0);
    perf.put(label + "_bit_identical",
             identical ? std::int64_t{1} : std::int64_t{0});
    std::cout << "pipes=" << pipes << ": " << report.packets << " packets, "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";
  }
  perf.put("ternary_replay_divergence", divergences);

  // --------------------------------------------------- modeled frontier
  std::cout << "\n--- Accuracy-vs-resource frontier (Table 4 shapes) ---\n";
  report_frontier(perf, cnn_f1, rnn_f1);

  bench::write_bench_json("precision_sweep", perf, "BENCH_PR8.json");

  if (divergences > 0) {
    std::cerr << "FAIL: a sharded ternary replay diverged from serial\n";
    return 1;
  }
  if (serial_report.precision != "ternary") {
    std::cerr << "FAIL: RunReport.precision is '" << serial_report.precision
              << "', expected 'ternary'\n";
    return 1;
  }
  return 0;
}
