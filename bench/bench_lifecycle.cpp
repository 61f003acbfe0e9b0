// Model-lifecycle replay: shadow evaluation + hot swap + rollback overhead.
//
// Methodology: one trained primary CNN and one independently-initialized
// candidate CNN replay the same trace with the lifecycle control plane armed:
// the candidate shadow-scores every mirrored feature vector from the start,
// is promoted one third into the trace, and is demoted again by an
// unsatisfiable latency SLO (re-arming promotion so the replay exercises
// repeated swap cycles). The serial reference and the 1/2/4/8-pipe sharded
// replays must produce bit-identical RunReports — including every
// lifecycle_* counter — before any throughput number is accepted. Every
// configuration is replayed bench::kTimedReplays times, each on a fresh
// system, and its wall time is the median (`replays_per_config` in the
// record).
//
// Headline metrics (BENCH_PR7.json § lifecycle): packets/sec with the
// lifecycle armed (serial and 4-pipe) beside the host's worker-thread count
// (`host_threads`), the swap counts actually exercised, and the identity
// contract: `lifecycle_bit_identical` must be 1 and
// `lifecycle_divergence` (the number of configurations whose replays
// diverged from the first serial one) must be 0 — both gated by bench_gate
// against bench/baselines_lifecycle.json.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/fenix_system.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/table.hpp"

int main() {
  using namespace fenix;
  bench::print_banner("FENIX bench: model lifecycle",
                      "Shadow evaluation, hot swap, and rollback overhead");

  const auto scale = bench::BenchScale::from_env();
  auto dataset =
      bench::make_dataset(trafficgen::DatasetProfile::iscx_vpn(), scale, 0x11fe);
  std::cout << "Training primary + candidate CNNs...\n";
  const auto primary = bench::train_fenix_models(dataset, scale, 0x11fe);
  const auto candidate = bench::train_fenix_models(dataset, scale, 0x2bad);

  trafficgen::SynthesisConfig synth;
  synth.total_flows = scale.smoke ? 400 : 4000;
  synth.seed = 0x11fe;
  synth.min_flows_per_class = scale.smoke ? 6 : 40;
  synth.max_pkts_per_flow = 48;
  const auto flows = trafficgen::synthesize_flows(dataset.profile, synth);
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = static_cast<double>(flows.size()) / 2.0;
  trace_config.gap_time_scale = 1.0 / 8.0;
  const auto trace = trafficgen::assemble_trace(flows, trace_config);
  std::cout << "Trace: " << trace.packets.size() << " packets, "
            << flows.size() << " flows\n\n";

  const auto make_config = [&] {
    core::FenixSystemConfig config;
    config.data_engine.tracker.index_bits = 16;
    config.data_engine.window_tw = sim::milliseconds(50);
    config.lifecycle.shadow_cnn = candidate.qcnn.get();
    config.lifecycle.promote_at = trace.duration() / 3;
    config.lifecycle.repromote_every = trace.duration() / 6;
    config.lifecycle.swap_blackout = sim::milliseconds(2);
    config.lifecycle.slo.max_verdict_p99 = 1;  // unsatisfiable: forces rollback
    config.lifecycle.slo.min_samples = 1;
    return config;
  };
  const std::size_t classes = dataset.num_classes();

  // Serial reference; its first report is the bit-identity oracle.
  std::optional<core::RunReport> first;
  std::optional<std::string> serial_divergence;
  const double serial_s = bench::median_replay_seconds(
      [&] {
        core::FenixSystem system(make_config(), primary.qcnn.get(), nullptr);
        return system.run(trace, classes);
      },
      [&](const core::RunReport& report) {
        if (!first) first = report;
        if (!serial_divergence) serial_divergence = core::first_divergence(*first, report);
      });
  // Configurations whose replays diverged from the first serial one.
  std::int64_t diverged = 0;
  if (serial_divergence) {
    ++diverged;
    std::cerr << "DIVERGENCE between serial replays: " << *serial_divergence
              << "\n";
  }
  const core::RunReport& serial_report = *first;
  const double serial_pps =
      serial_s > 0 ? static_cast<double>(serial_report.packets) / serial_s : 0.0;

  const std::size_t host_threads = runtime::ThreadPool::default_thread_count();
  std::cout << "Host worker threads: " << host_threads << "\n";

  telemetry::TextTable table(
      {"Config", "Wall s", "Packets/sec", "Promotions", "Rollbacks",
       "Bit-identical"});
  table.add_row({"serial", telemetry::TextTable::num(serial_s, 2),
                 telemetry::TextTable::num(serial_pps, 0),
                 std::to_string(serial_report.lifecycle_promotions),
                 std::to_string(serial_report.lifecycle_rollbacks), "ref"});

  bench::JsonSection perf;
  perf.put("trace_packets", static_cast<std::int64_t>(trace.packets.size()));
  perf.put("host_threads", static_cast<std::int64_t>(host_threads));
  perf.put("replays_per_config", static_cast<std::int64_t>(bench::kTimedReplays));
  perf.put("serial_wall_s", serial_s);
  perf.put("serial_packets_per_sec", serial_pps);
  perf.put("promotions",
           static_cast<std::int64_t>(serial_report.lifecycle_promotions));
  perf.put("rollbacks",
           static_cast<std::int64_t>(serial_report.lifecycle_rollbacks));
  perf.put("shadow_evals",
           static_cast<std::int64_t>(serial_report.lifecycle_shadow_evals));
  perf.put("disagreements",
           static_cast<std::int64_t>(serial_report.lifecycle_disagreements));
  perf.put("swap_blackout_ms",
           sim::to_milliseconds(serial_report.lifecycle_swap_blackout));

  double pipelined4_pps = 0.0;
  for (const std::size_t pipes :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    core::PipelineOptions opts;
    opts.pipes = pipes;
    opts.batch = 16;
    std::optional<std::string> divergence;
    std::uint64_t promotions = 0;
    std::uint64_t rollbacks = 0;
    const double wall_s = bench::median_replay_seconds(
        [&] {
          core::FenixSystem system(make_config(), primary.qcnn.get(), nullptr);
          return system.run_pipelined(trace, classes, nullptr, {}, opts);
        },
        [&](const core::RunReport& report) {
          if (!divergence) divergence = core::first_divergence(serial_report, report);
          promotions = report.lifecycle_promotions;
          rollbacks = report.lifecycle_rollbacks;
        });
    if (divergence) {
      ++diverged;
      std::cerr << "DIVERGENCE at pipes=" << pipes << ": " << *divergence
                << "\n";
    }
    const double pps =
        wall_s > 0 ? static_cast<double>(serial_report.packets) / wall_s : 0.0;
    if (pipes == 4) pipelined4_pps = pps;
    const std::string label = "pipes" + std::to_string(pipes);
    table.add_row({label + " batch16", telemetry::TextTable::num(wall_s, 2),
                   telemetry::TextTable::num(pps, 0), std::to_string(promotions),
                   std::to_string(rollbacks), divergence ? "NO" : "yes"});
    perf.put(label + "_packets_per_sec", pps);
  }
  std::cout << table.render();
  std::cout << "\n4-pipe lifecycle throughput: "
            << telemetry::TextTable::num(pipelined4_pps, 0)
            << " packets/sec\n";

  perf.put("lifecycle_bit_identical",
           diverged == 0 ? std::int64_t{1} : std::int64_t{0});
  perf.put("lifecycle_divergence", diverged);

  bench::write_bench_json("lifecycle", perf, "BENCH_PR7.json");

  if (serial_report.lifecycle_promotions == 0 ||
      serial_report.lifecycle_rollbacks == 0) {
    std::cerr << "FAIL: bench never exercised a swap cycle (promotions="
              << serial_report.lifecycle_promotions
              << " rollbacks=" << serial_report.lifecycle_rollbacks << ")\n";
    return 1;
  }
  if (diverged > 0) {
    std::cerr << "FAIL: " << diverged
              << " sharded lifecycle replay(s) diverged from serial\n";
    return 1;
  }
  return 0;
}
