// Open-loop scenario presets: production-shape workloads with SLO-grade
// tail observability.
//
// Methodology: each trafficgen scenario preset (heavy-tailed million-flow,
// flash crowd, DDoS flood, diurnal ramp) streams open-loop through the
// serial replay — offered load is a parameter of the generator, so overload
// surfaces as queueing and attributed drops, never as a slower generator.
// Nothing is ever materialized: the workload reaches the replay through the
// net::PacketSource seam, and the --rss-check mode proves the replay's
// memory bound by replaying a 10M-flow preset (a multi-GB packet vector if
// materialized) at pipes 4 under a hard peak-RSS ceiling.
//
// Headline metrics (BENCH_PR9.json § scenarios): per-preset verdict-latency
// p50/p99/p999 (sim-time, so deterministic across machines), per-reason drop
// counters, and the drop-conservation residual `*_drop_unattributed` — gated
// against bench/baselines_scenarios.json by bench_gate (`*_p*_us` are
// ceilings, `*_drop_unattributed` must be exactly 0). A bit-identity block
// replays one scaled-down preset streamed (chunked at 7) against its
// materialized twin, serial and at 1/4 pipe shards, under a random fault
// schedule: the `stream_*_bit_identical` flags gate the PacketSource refactor
// itself.
//
// Usage: bench_scenarios [--rss-check]
//   --rss-check   replay the 10M-flow heavy_tailed preset through
//                 run_pipelined at pipes 4 (a smoke-scale model: host cost
//                 does not depend on accuracy) and fail on an unattributed
//                 drop or if peak RSS exceeds $FENIX_RSS_CEILING_MB
//                 (default 256) — the proof that neither the workload nor
//                 the replay's records grow with the packet count.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/fenix_system.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "net/packet_source.hpp"
#include "telemetry/table.hpp"
#include "trafficgen/scenario.hpp"

namespace {

using namespace fenix;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

core::FenixSystemConfig make_config() {
  core::FenixSystemConfig config;
  // Production-scale presets deliberately overrun the 128k-slot Flow Info
  // Table — slot eviction pressure is part of the scenario.
  config.data_engine.tracker.index_bits = 17;
  config.data_engine.window_tw = sim::milliseconds(50);
  return config;
}

/// Peak resident set in MB (Linux ru_maxrss is KB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int run_rss_check() {
  double ceiling_mb = 256.0;
  if (const char* env = std::getenv("FENIX_RSS_CEILING_MB")) {
    const double v = std::atof(env);
    if (v > 0.0) ceiling_mb = v;
  }

  bench::BenchScale scale;
  scale.train_flows = 80;
  scale.test_flows = 40;
  scale.epochs = 1;
  scale.smoke = true;
  const auto dataset =
      bench::make_dataset(trafficgen::DatasetProfile::iscx_vpn(), scale, 0x5ce);
  const auto models = bench::train_fenix_models(dataset, scale, 0x5ce);
  const std::size_t classes = dataset.num_classes();

  trafficgen::ScenarioConfig config = trafficgen::scenario_preset("heavy_tailed");
  config.flows = 10'000'000;
  config.offered_pps = 40e6;
  // Short lifetimes keep the concurrently-active set (the generator's only
  // per-flow state) in the hundreds of thousands at a 5M flows/sec arrival
  // rate.
  config.flow_lifetime = sim::milliseconds(50);
  config.num_classes = static_cast<std::uint16_t>(classes);
  trafficgen::ScenarioSource source(config);

  std::cout << "rss-check: replaying " << config.flows << " flows (~"
            << source.packet_hint() << " packets) open-loop at pipes 4...\n";
  core::PipelineOptions opts;
  opts.pipes = 4;
  const auto start = std::chrono::steady_clock::now();
  core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
  const core::RunReport report =
      system.run_pipelined(source, classes, nullptr, {}, opts);
  const double wall_s = seconds_since(start);
  const double rss_mb = peak_rss_mb();
  const double materialized_mb = static_cast<double>(report.packets) *
                                 sizeof(net::PacketRecord) / (1024.0 * 1024.0);
  const std::uint64_t unattributed = report.drop_unattributed();

  std::cout << "replayed " << report.packets << " packets (" << report.mirrors
            << " mirrors) in " << telemetry::TextTable::num(wall_s, 1)
            << " s\n"
            << "peak active flows: " << source.peak_active_flows() << "\n"
            << "unattributed drops: " << unattributed << "\n"
            << "peak RSS: " << telemetry::TextTable::num(rss_mb, 1)
            << " MB (ceiling " << ceiling_mb << " MB; materialized would be "
            << telemetry::TextTable::num(materialized_mb, 0) << " MB)\n";

  bench::JsonSection rss;
  rss.put("flows", static_cast<std::int64_t>(config.flows));
  rss.put("packets", static_cast<std::int64_t>(report.packets));
  rss.put("mirrors", static_cast<std::int64_t>(report.mirrors));
  rss.put("peak_active_flows",
          static_cast<std::int64_t>(source.peak_active_flows()));
  rss.put("peak_rss_mb", rss_mb);
  rss.put("replay_wall_s", wall_s);
  rss.put("materialized_would_be_mb", materialized_mb);
  bench::write_bench_json("scenario_rss", rss, "BENCH_PR9.json");

  if (unattributed != 0) {
    std::cerr << "FAIL: " << unattributed << " unattributed drops\n";
    return 1;
  }
  if (rss_mb > ceiling_mb) {
    std::cerr << "FAIL: peak RSS " << rss_mb << " MB exceeds the " << ceiling_mb
              << " MB ceiling — the replay held something per packet\n";
    return 1;
  }
  std::cout << "PASS: 10M-flow preset replayed within the RSS ceiling\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--rss-check") == 0) {
    return run_rss_check();
  }

  bench::print_banner("FENIX bench: open-loop scenario presets",
                      "Production-shape workloads, SLO tail latency + drops");

  const auto scale = bench::BenchScale::from_env();
  auto dataset =
      bench::make_dataset(trafficgen::DatasetProfile::iscx_vpn(), scale, 0x5ce);
  std::cout << "Training FENIX CNN...\n";
  const auto models = bench::train_fenix_models(dataset, scale, 0x5ce);
  const std::size_t classes = dataset.num_classes();

  // Smoke keeps the open-loop character: scaling flows and offered load by
  // the same factor preserves the horizon and the arrival/service shape.
  const std::uint32_t shrink = scale.smoke ? 50 : 1;

  telemetry::TextTable table({"Scenario", "Packets", "Wall s", "p50 us",
                              "p99 us", "p999 us", "Drops", "Unattrib"});
  bench::JsonSection perf;
  bool ok = true;

  for (const std::string& name : trafficgen::scenario_preset_names()) {
    trafficgen::ScenarioConfig config = trafficgen::scenario_preset(name);
    config.flows = std::max<std::uint32_t>(1000, config.flows / shrink);
    config.offered_pps /= shrink;
    config.num_classes = static_cast<std::uint16_t>(classes);
    trafficgen::ScenarioSource source(config);

    const auto start = std::chrono::steady_clock::now();
    core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
    const auto report = system.run(source, classes);
    const double wall_s = seconds_since(start);

    const double duration_s = sim::to_seconds(report.trace_duration);
    const double achieved_pps =
        duration_s > 0 ? static_cast<double>(report.packets) / duration_s : 0.0;
    const std::uint64_t attributed_drops =
        report.fifo_drops + report.channel_losses + report.stale_epoch_drops;
    const std::uint64_t unattributed = report.drop_unattributed();
    if (unattributed != 0) ok = false;

    table.add_row({name, std::to_string(report.packets),
                   telemetry::TextTable::num(wall_s, 1),
                   telemetry::TextTable::num(report.end_to_end.p50_us(), 1),
                   telemetry::TextTable::num(report.end_to_end.p99_us(), 1),
                   telemetry::TextTable::num(report.end_to_end.p999_us(), 1),
                   std::to_string(attributed_drops),
                   std::to_string(unattributed)});

    perf.put(name + "_packets", static_cast<std::int64_t>(report.packets));
    perf.put(name + "_offered_pps", config.offered_pps);
    perf.put(name + "_achieved_sim_pps", achieved_pps);
    perf.put(name + "_wall_s", wall_s);
    perf.put(name + "_peak_active_flows",
             static_cast<std::int64_t>(source.peak_active_flows()));
    // Sim-time tail latencies: deterministic, so the gate ceilings hold on
    // any machine.
    perf.put(name + "_p50_us", report.end_to_end.p50_us());
    perf.put(name + "_p99_us", report.end_to_end.p99_us());
    perf.put(name + "_p999_us", report.end_to_end.p999_us());
    // Per-reason drop attribution + the conservation residual.
    perf.put(name + "_fifo_drops", static_cast<std::int64_t>(report.fifo_drops));
    perf.put(name + "_channel_losses",
             static_cast<std::int64_t>(report.channel_losses));
    perf.put(name + "_stale_epoch_drops",
             static_cast<std::int64_t>(report.stale_epoch_drops));
    perf.put(name + "_deadline_misses",
             static_cast<std::int64_t>(report.deadline_misses));
    perf.put(name + "_drop_unattributed",
             static_cast<std::int64_t>(unattributed));
  }
  std::cout << table.render() << "\n";

  // Bit-identity block: the same seeded scenario, materialized vs streamed,
  // must produce byte-identical RunReports — serial and sharded, and with a
  // fault schedule armed (faults key off sim time, so the schedule hits the
  // same packets on every path).
  trafficgen::ScenarioConfig small = trafficgen::scenario_preset("heavy_tailed");
  small.flows = 2000;
  small.offered_pps = small.offered_pps * small.flows /
                      trafficgen::scenario_preset("heavy_tailed").flows;
  small.num_classes = static_cast<std::uint16_t>(classes);
  trafficgen::ScenarioSource stream(small);
  const net::Trace materialized = net::materialize(stream);
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::random(0xb17, materialized.duration(), 3);

  const auto replay_reference = [&] {
    core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
    faults::FaultInjector injector(schedule, system);
    return system.run(materialized, classes, &injector);
  };
  const core::RunReport reference = replay_reference();

  const auto check = [&](const std::string& label,
                         const core::RunReport& report) {
    const auto divergence = core::first_divergence(reference, report);
    perf.put(label + "_bit_identical",
             divergence ? std::int64_t{0} : std::int64_t{1});
    if (divergence) {
      perf.put(label + "_divergence", *divergence);
      std::cerr << "DIVERGENCE " << label << ": " << *divergence << "\n";
      ok = false;
    } else {
      perf.put(label + "_divergence", std::int64_t{0});
      std::cout << label << ": bit-identical to materialized replay\n";
    }
  };

  {
    stream.rewind();
    net::ChunkLimiter chunked(stream, 7);
    core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
    faults::FaultInjector injector(schedule, system);
    check("stream_serial", system.run(chunked, classes, &injector));
  }
  for (const std::size_t pipes : {std::size_t{1}, std::size_t{4}}) {
    stream.rewind();
    core::PipelineOptions opts;
    opts.pipes = pipes;
    core::FenixSystem system(make_config(), models.qcnn.get(), nullptr);
    faults::FaultInjector injector(schedule, system);
    check("stream_pipes" + std::to_string(pipes),
          system.run_pipelined(stream, classes, &injector, {}, opts));
  }

  bench::write_bench_json("scenarios", perf, "BENCH_PR9.json");

  if (!ok) {
    std::cerr << "FAIL: unattributed drops or a streamed replay diverged\n";
    return 1;
  }
  return 0;
}
