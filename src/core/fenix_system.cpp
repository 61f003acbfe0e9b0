#include "core/fenix_system.hpp"

#include <algorithm>

#include "core/replay_core.hpp"

namespace fenix::core {

namespace {

/// Decorrelation constant for per-lane channel RNG seeds (same mix the
/// sharded token bucket uses; RandomStream seeding splitmixes, so nearby
/// seeds already yield independent streams).
constexpr std::uint64_t kLaneSeedMix = 0x9e3779b97f4a7c15ULL;

net::ReliableLink::Config lane_link_config(net::ReliableLink::Config cfg) {
  const auto n = static_cast<double>(kCoordinationLanes);
  cfg.nack_rate_hz /= n;
  cfg.nack_burst = std::max(1.0, cfg.nack_burst / n);
  return cfg;
}

}  // namespace

DataEngineConfig FenixSystem::resolve_data_engine_config(FenixSystemConfig config,
                                                         const ModelEngine& engine) {
  if (config.data_engine.fpga_inference_rate_hz <= 0.0) {
    config.data_engine.fpga_inference_rate_hz = engine.inference_rate_hz();
  }
  return config.data_engine;
}

FenixSystem::FenixSystem(const FenixSystemConfig& config, const nn::QuantizedCnn* cnn,
                         const nn::QuantizedRnn* rnn)
    : config_(config), model_engine_(config.model_engine, cnn, rnn),
      data_engine_(resolve_data_engine_config(config, model_engine_)) {
  // Stripe the aggregate PCB bandwidth over the coordination lanes: each lane
  // gets an even bandwidth slice and its own decorrelated loss RNG, so pipe
  // workers drive their lanes' endpoints with no shared link state.
  const double lane_bps =
      config.pcb_channel_bps / static_cast<double>(kCoordinationLanes);
  const net::ReliableLink::Config link_cfg = lane_link_config(config.link);
  lanes_.reserve(kCoordinationLanes);
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    lanes_.push_back(std::make_unique<LanePath>(
        lane_bps, config.pcb_propagation, config.pcb_loss_rate,
        /*to_seed=*/0x70f6 + kLaneSeedMix * lane,
        /*from_seed=*/0x6f07 + kLaneSeedMix * lane, link_cfg));
  }
  // An FPGA reboot orphans every in-flight frame: bump every lane's link
  // epochs so verdicts stamped before the reset are discarded on delivery
  // instead of installing pre-reboot flow state (appended after the Model
  // Engine's own queue-flush hook).
  model_engine_.device().add_reset_hook([this](sim::SimTime at) {
    for (auto& lane : lanes_) {
      lane->to_link.resync(at);
      lane->from_link.resync(at);
    }
  });
}

LaneLinks FenixSystem::to_links() {
  LaneLinks links{};
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    links[lane] = &lanes_[lane]->to_link;
  }
  return links;
}

LaneLinks FenixSystem::from_links() {
  LaneLinks links{};
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    links[lane] = &lanes_[lane]->from_link;
  }
  return links;
}

net::ReliableLinkStats FenixSystem::link_stats_to_fpga() const {
  net::ReliableLinkStats total;
  for (const auto& lane : lanes_) total += lane->to_link.stats();
  return total;
}

net::ReliableLinkStats FenixSystem::link_stats_from_fpga() const {
  net::ReliableLinkStats total;
  for (const auto& lane : lanes_) total += lane->from_link.stats();
  return total;
}

sim::ChannelStats FenixSystem::channel_stats_to_fpga() const {
  sim::ChannelStats total;
  for (const auto& lane : lanes_) total += lane->to_ch.stats();
  return total;
}

sim::ChannelStats FenixSystem::channel_stats_from_fpga() const {
  sim::ChannelStats total;
  for (const auto& lane : lanes_) total += lane->from_ch.stats();
  return total;
}

RunReport FenixSystem::run(net::PacketSource& source, std::size_t num_classes,
                           RunHooks* hooks, const std::vector<RunPhase>& phases) {
  PipelineOptions opts;
  opts.pipes = 1;
  opts.threads = 1;
  return run_pipelined(source, num_classes, hooks, phases, opts);
}

RunReport FenixSystem::run(const net::Trace& trace, std::size_t num_classes,
                           RunHooks* hooks, const std::vector<RunPhase>& phases) {
  net::TraceSource source(trace);
  return run(source, num_classes, hooks, phases);
}

telemetry::MetricRegistry FenixSystem::health_metrics(const RunReport& report) const {
  telemetry::MetricRegistry reg;
  // Precision tier as its bit width so the numeric registry can carry it
  // (the RunReport itself holds the name).
  nn::Precision prec;
  if (!nn::parse_precision(report.precision, prec)) prec = nn::Precision::kInt8;
  reg.set_counter("precision_bits",
                  static_cast<std::uint64_t>(nn::weight_bits(prec)));
  // One counter row per report counter, under its for_each_counter() name.
  for_each_counter(
      [&reg](const char* name, std::uint64_t value) {
        reg.set_counter(name, value);
      },
      report);
  // Conservation residuals: nonzero means a drop or shed path went untracked.
  reg.set_counter("drop_unattributed", report.drop_unattributed());
  reg.set_counter("shed_unattributed", report.shed_unattributed());
  // SLO-grade verdict-latency tail (mirror emit -> verdict installed). p999
  // is the number the open-loop scenario gates watch: overload shows up here
  // and in the attributed drop counters, never as slower wall-clock.
  reg.set_gauge("e2e_p50_us", report.end_to_end.p50_us());
  reg.set_gauge("e2e_p99_us", report.end_to_end.p99_us());
  reg.set_gauge("e2e_p999_us", report.end_to_end.p999_us());
  reg.set_gauge("time_degraded_ms",
                sim::to_milliseconds(report.watchdog.time_degraded));
  // Model-lifecycle drift: the share of shadow evaluations that disagreed
  // with the serving model (0 when no shadow model is configured).
  reg.set_gauge("lifecycle_drift_rate",
                report.lifecycle_shadow_evals == 0
                    ? 0.0
                    : static_cast<double>(report.lifecycle_disagreements) /
                          static_cast<double>(report.lifecycle_shadow_evals));
  reg.set_gauge("lifecycle_swap_blackout_ms",
                sim::to_milliseconds(report.lifecycle_swap_blackout));
  const sim::ChannelStats to_ch = channel_stats_to_fpga();
  const sim::ChannelStats from_ch = channel_stats_from_fpga();
  reg.set_counter("to_fpga_losses", to_ch.losses);
  reg.set_counter("from_fpga_losses", from_ch.losses);
  reg.set_counter("to_fpga_corruptions", to_ch.corruptions);
  reg.set_counter("from_fpga_corruptions", from_ch.corruptions);
  reg.set_counter("to_fpga_duplicates", to_ch.duplicates);
  reg.set_counter("from_fpga_duplicates", from_ch.duplicates);
  reg.set_counter("to_fpga_reorders", to_ch.reorders);
  reg.set_counter("from_fpga_reorders", from_ch.reorders);
  const ModelEngineStats engine = model_engine_.stats();
  reg.set_counter("engine_input_drops", engine.input_drops);
  reg.set_counter("reconfig_drops", engine.reconfig_drops);
  reg.set_counter("stall_drops", engine.stall_drops);
  // High-water mark of the lane ports' input FIFOs, so brownout benches see
  // queue saturation directly (overflows are engine_input_drops).
  reg.set_counter("engine_fifo_peak", engine.fifo_peak);
  const fpgasim::DeviceFaultStats& device = model_engine_.device().fault_stats();
  reg.set_counter("device_stalls", device.stalls);
  reg.set_counter("device_resets", device.resets);
  // Decentralized-coordination health: how often the epoch reconcilers ran,
  // the inference hand-off (fanin_*, see PipelineTelemetry::fanin) and
  // backlog peaks, and the memory peaks.
  reg.set_counter("watchdog_reconciles", data_engine_.watchdog().reconciles());
  reg.set_counter("bucket_reconciles", data_engine_.bucket().reconciles());
  reg.set_counter("pipeline_epochs", pipeline_telemetry_.epochs);
  reg.set_counter("fanin_enqueues", pipeline_telemetry_.fanin.enqueues);
  reg.set_counter("fanin_peak_size", pipeline_telemetry_.fanin.peak_size);
  reg.set_counter("peak_live_batches", pipeline_telemetry_.peak_live_batches);
  reg.set_counter("peak_open_records", pipeline_telemetry_.peak_open_records);
  // Host-time rows (see PipelineTelemetry): not results, never compared.
  reg.set_gauge("batch_compute_s", pipeline_telemetry_.batch_compute_s);
  reg.set_gauge("seal_wait_s", pipeline_telemetry_.seal_wait_s);
  reg.set_label("kernel_isa", nn::kernels::isa_name(pipeline_telemetry_.kernel_isa));
  for (std::size_t pipe = 0; pipe < pipeline_telemetry_.pipe_queue_peaks.size();
       ++pipe) {
    reg.set_counter("pipe" + std::to_string(pipe) + "_queue_peak",
                    pipeline_telemetry_.pipe_queue_peaks[pipe]);
  }
  return reg;
}

}  // namespace fenix::core
