// Replay throughput: run() vs decentralized multi-pipe run_pipelined().
//
// Methodology: the Figure 10 NIC-saturation point (8000 flows, 8x gap
// compression, 128k-slot Flow Info Table) replayed through the same trained
// CNN — first `serial`, which is run(): the same driver with one pipe, run
// inline on the calling thread with the default predict batch — then the
// decentralized replay swept across 1, 2, 4, 8 and 16 pipe shards at batch
// 16 on the replay's worker fleet. Every sharded replay's RunReport is
// asserted bit-identical to the serial one before its throughput number is
// accepted: a packets/sec figure from a replay that diverged from the
// reference semantics is meaningless. Every configuration is replayed
// bench::kTimedReplays times, each on a fresh system, and its wall time is
// the median (`replays_per_config` in the record).
//
// Headline metrics (BENCH_PR6.json § pipeline_throughput): packets/sec for
// each configuration, the speedup over serial, and the scaling efficiency
// pps(N) / pps(1) — how much of the 1-pipe pipelined throughput each wider
// shard count retains. All are gated against bench/baselines.json by
// bench_gate. `host_threads` records the worker pool width the sweep
// actually ran with: scaling efficiency above 1.0 is only physically
// possible when host_threads > 1, so a flat curve on a 1-core runner is the
// expected honest result, not a regression.
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
  bench::print_banner("FENIX bench: sharded replay throughput",
                      "Multi-pipe replay + batched Model Engine submission");

  const auto scale = bench::BenchScale::from_env();
  auto dataset =
      bench::make_dataset(trafficgen::DatasetProfile::iscx_vpn(), scale, 0xf10);
  std::cout << "Training FENIX CNN...\n";
  const auto models = bench::train_fenix_models(dataset, scale, 0xf10);

  // Figure 10 recipe, 8000-flow point.
  trafficgen::SynthesisConfig synth;
  synth.total_flows = scale.smoke ? 800 : 8000;
  synth.seed = 0x5ca1e ^ 8000u;
  synth.min_flows_per_class = scale.smoke ? 6 : 40;
  synth.max_pkts_per_flow = 48;
  const auto flows = trafficgen::synthesize_flows(dataset.profile, synth);
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = static_cast<double>(flows.size()) / 2.0;
  trace_config.gap_time_scale = 1.0 / 8.0;
  const auto trace = trafficgen::assemble_trace(flows, trace_config);
  std::cout << "Trace: " << trace.packets.size() << " packets, "
            << flows.size() << " flows\n\n";

  const auto make_config = [] {
    core::FenixSystemConfig config;
    config.data_engine.tracker.index_bits = 17;
    config.data_engine.window_tw = sim::milliseconds(50);
    return config;
  };
  const std::size_t classes = dataset.num_classes();

  // Serial reference; its first report is the bit-identity oracle.
  std::optional<core::RunReport> serial_report;
  bool all_identical = true;
  const double serial_s = bench::median_replay_seconds(
      [&] {
        core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
        return system.run(trace, classes);
      },
      [&](const core::RunReport& report) {
        if (!serial_report) serial_report = report;
        if (const auto divergence = core::first_divergence(*serial_report, report)) {
          all_identical = false;
          std::cerr << "DIVERGENCE between serial replays: " << *divergence << "\n";
        }
      });
  const double serial_pps =
      serial_s > 0 ? static_cast<double>(serial_report->packets) / serial_s : 0.0;

  const std::size_t host_threads = runtime::ThreadPool::default_thread_count();
  std::cout << "Host worker threads: " << host_threads << "\n";

  telemetry::TextTable table({"Config", "Wall s", "Packets/sec", "Speedup",
                              "Scaling eff", "Bit-identical"});
  table.add_row({"serial", telemetry::TextTable::num(serial_s, 2),
                 telemetry::TextTable::num(serial_pps, 0), "1.00", "-", "ref"});

  bench::JsonSection perf;
  perf.put("trace_packets", static_cast<std::int64_t>(trace.packets.size()));
  perf.put("host_threads", static_cast<std::int64_t>(host_threads));
  perf.put("replays_per_config", static_cast<std::int64_t>(bench::kTimedReplays));
  perf.put("serial_wall_s", serial_s);
  perf.put("serial_packets_per_sec", serial_pps);

  double pps_1 = 0.0;
  double speedup_4 = 0.0;
  for (const std::size_t pipes :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{16}}) {
    core::PipelineOptions opts;
    opts.pipes = pipes;
    opts.batch = 16;
    std::optional<std::string> divergence;
    const double wall_s = bench::median_replay_seconds(
        [&] {
          core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
          return system.run_pipelined(trace, classes, nullptr, {}, opts);
        },
        [&](const core::RunReport& report) {
          if (!divergence) divergence = core::first_divergence(*serial_report, report);
        });
    const bool identical = !divergence.has_value();
    all_identical = all_identical && identical;
    if (!identical) {
      std::cerr << "DIVERGENCE at pipes=" << pipes << ": " << *divergence << "\n";
    }
    const double pps =
        wall_s > 0 ? static_cast<double>(serial_report->packets) / wall_s : 0.0;
    const double speedup = serial_s > 0 && wall_s > 0 ? serial_s / wall_s : 0.0;
    if (pipes == 1) pps_1 = pps;
    if (pipes == 4) speedup_4 = speedup;
    // pps(N) / pps(1): the decentralization headline. Near-linear scaling
    // shows up here once host_threads >= pipes; on a single hardware thread
    // the honest expectation is ~1.0 (no shard-count overhead), not growth.
    const double efficiency = pps_1 > 0 ? pps / pps_1 : 0.0;

    const std::string label = "pipes" + std::to_string(pipes);
    table.add_row({label + " batch16", telemetry::TextTable::num(wall_s, 2),
                   telemetry::TextTable::num(pps, 0),
                   telemetry::TextTable::num(speedup, 2),
                   telemetry::TextTable::num(efficiency, 2),
                   identical ? "yes" : "NO"});
    perf.put(label + "_wall_s", wall_s);
    perf.put(label + "_packets_per_sec", pps);
    perf.put(label + "_speedup", speedup);
    perf.put(label + "_scaling_efficiency", efficiency);
    perf.put(label + "_bit_identical", identical ? std::int64_t{1} : std::int64_t{0});
    if (!identical) perf.put(label + "_divergence", *divergence);
  }
  std::cout << table.render();
  std::cout << "\n4-pipe speedup over serial: "
            << telemetry::TextTable::num(speedup_4, 2) << "x\n";

  bench::write_bench_json("pipeline_throughput", perf, "BENCH_PR6.json");

  if (!all_identical) {
    std::cerr << "FAIL: a sharded replay diverged from the serial report\n";
    return 1;
  }
  return 0;
}
