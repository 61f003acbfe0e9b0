// fenix_replay — command-line driver for the FENIX simulation.
//
// Subcommands:
//   synth <dataset> <flows> <out.trace> [seed]    synthesize + save a trace
//   info  <trace>                                 print trace statistics
//   train <dataset> <flows> <out.model> [cnn|rnn] train + save a float model
//   run   <trace> <model> [options]               replay through FENIX
//   baselines <dataset> <flows> [seed]            train the five baseline
//                                                 schemes and evaluate them
//                                                 through the shared
//                                                 VerdictBackend harness
//
// Run options:
//   --precision <tier>       serve the model at fp32 | int8 (default) |
//                            int4 | ternary (sub-INT8 tiers run the packed
//                            multiply-free kernels)
//   --pcb-loss <rate>        frame loss rate on both PCB channels
//   --fault-schedule <file>  arm a faults::FaultSchedule against the replay
//   --fallback-tree          train + install the switch-local preliminary
//                            tree from the trace (degradation ladder)
//   --pipes <N>              multi-pipe sharded replay with N pipe shards
//                            (bit-identical to the serial replay)
//   --batch <N>              inferences per batched Model Engine submission
//                            (with --pipes; default 16)
//   --scenario <preset>      generate a production-shape workload preset
//                            (heavy_tailed | flash_crowd | ddos_flood |
//                            diurnal) instead of loading a trace; streams
//                            open-loop, never materializing the packets
//   --offered-load <pps>     target aggregate packet rate: rescales a loaded
//                            trace's timestamps, or overrides the scenario's
//                            offered load (must be > 0)
//   --admission              arm the overload-admission ladder (DESIGN.md
//                            §4.12): hysteresis load shedding between the
//                            Rate Limiter grant and the mirror emission, with
//                            a per-tier shed summary after the run
//   --stream-chunk <N>       stream the trace file from disk through the
//                            PacketSource seam in N-packet chunks instead of
//                            materializing it
//   --shadow-model <file>    score a candidate model over the same mirrored
//                            features (shadow evaluation; no data-path cost)
//   --promote-at <sec>       hot-swap the shadow in at this replay time
//   --slo-drift <rate>       rollback when the windowed disagreement rate
//                            exceeds this after a promotion
//   --slo-p99-us <us>        rollback when windowed verdict p99 exceeds this
//   --slo-min-samples <N>    per-window sample floor before an SLO breach can
//                            fire (default 32; lower for sparse traces)
//   --slo-fallback           on rollback, also force the switch-local TCAM
//                            degraded mode until health recovers
//
// Datasets: "vpn" (ISCXVPN2016 profile) or "tfc" (USTC-TFC profile).
// Traces use the net::trace_io format; models the nn::serialize format.
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "baselines/bos.hpp"
#include "baselines/flowlens.hpp"
#include "baselines/leo.hpp"
#include "baselines/n3ic.hpp"
#include "baselines/netbeacon.hpp"
#include "cli_numbers.hpp"
#include "core/fenix_system.hpp"
#include "core/verdict_backend.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "net/packet_source.hpp"
#include "net/trace_io.hpp"
#include "trafficgen/scenario.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "telemetry/table.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/synthesizer.hpp"
#include "trees/decision_tree.hpp"

namespace {

using namespace fenix;
using namespace fenix::cli;

constexpr const char* kTool = "fenix_replay";  ///< Diagnostic prefix.

int usage() {
  std::cerr
      << "usage:\n"
         "  fenix_replay synth <vpn|tfc> <flows> <out.trace> [seed]\n"
         "  fenix_replay info  <trace>\n"
         "  fenix_replay train <vpn|tfc> <flows> <out.model> [cnn|rnn] [seed]\n"
         "  fenix_replay run   <trace> <model> [pcb_loss_rate]\n"
         "  fenix_replay run   --scenario <preset> <model> [options]\n"
         "                     [--precision <fp32|int8|int4|ternary>]\n"
         "                     [--pcb-loss <rate>] [--fault-schedule <file>]\n"
         "                     [--fallback-tree] [--pipes <N>] [--batch <N>]\n"
         "                     [--offered-load <pps>] [--stream-chunk <N>]\n"
         "                     [--admission]\n"
         "                     [--shadow-model <file>] [--promote-at <sec>]\n"
         "                     [--slo-drift <rate>] [--slo-p99-us <us>]\n"
         "                     [--slo-min-samples <N>] [--slo-fallback]\n"
         "  fenix_replay baselines <vpn|tfc> <flows> [seed]\n"
         "scenario presets: heavy_tailed, flash_crowd, ddos_flood, diurnal\n";
  return 2;
}

/// The largest time flag, in seconds: half the sim::SimTime range, so the
/// conversion to picoseconds never overflows.
const double kMaxFlagSeconds =
    sim::to_seconds(std::numeric_limits<sim::SimTime>::max()) / 2;

trafficgen::DatasetProfile profile_by_name(const std::string& name) {
  if (name == "vpn") return trafficgen::DatasetProfile::iscx_vpn();
  if (name == "tfc") return trafficgen::DatasetProfile::ustc_tfc();
  throw std::runtime_error("unknown dataset: " + name + " (use vpn or tfc)");
}

/// Reads the <flows> and optional [seed] arguments of synth, train and
/// baselines into `synth`. Returns 0, or 2 after a one-line diagnostic.
int parse_flows_and_seed(const char* flows, const char* seed,
                         trafficgen::SynthesisConfig& synth) {
  const auto count =
      parse_integer(flows, 1, std::numeric_limits<std::size_t>::max());
  if (!count) return invalid_flag(kTool, "flow count", flows, "an integer >= 1");
  synth.total_flows = static_cast<std::size_t>(*count);
  if (seed != nullptr) {
    const auto value = parse_integer(seed);
    if (!value) return invalid_flag(kTool, "seed", seed, "an integer >= 0");
    synth.seed = *value;
  }
  return 0;
}

int cmd_synth(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto profile = profile_by_name(argv[0]);
  trafficgen::SynthesisConfig synth;
  if (const int bad =
          parse_flows_and_seed(argv[1], argc > 3 ? argv[3] : nullptr, synth)) {
    return bad;
  }
  synth.min_flows_per_class = 20;
  const auto flows = trafficgen::synthesize_flows(profile, synth);
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz =
      std::max(1.0, static_cast<double>(flows.size()) / 2.0);
  const auto trace = trafficgen::assemble_trace(flows, trace_config);
  net::save_trace(argv[2], trace);
  std::cout << "wrote " << trace.packets.size() << " packets / " << flows.size()
            << " flows (" << profile.name << ") to " << argv[2] << "\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto trace = net::load_trace(argv[0]);
  std::cout << "packets:   " << trace.packets.size() << "\n"
            << "flows:     " << trace.flows.size() << "\n"
            << "duration:  " << sim::to_seconds(trace.duration()) << " s\n"
            << "mean rate: " << trace.offered_bps() / 1e9 << " Gbps, "
            << trace.offered_pps() / 1e6 << " Mpps\n";
  std::size_t classes = 0;
  for (const auto& f : trace.flows) {
    classes = std::max<std::size_t>(classes, static_cast<std::size_t>(f.label) + 1);
  }
  std::cout << "classes:   " << classes << "\n";
  return 0;
}

int cmd_train(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto profile = profile_by_name(argv[0]);
  const std::string kind = argc > 3 ? argv[3] : "cnn";
  if (kind != "cnn" && kind != "rnn") {
    return invalid_flag(kTool, "model kind", argv[3], "cnn or rnn");
  }
  const bool use_rnn = kind == "rnn";
  trafficgen::SynthesisConfig synth;
  if (const int bad =
          parse_flows_and_seed(argv[1], argc > 4 ? argv[4] : nullptr, synth)) {
    return bad;
  }
  synth.min_flows_per_class = 40;
  const auto flows = trafficgen::synthesize_flows(profile, synth);
  const auto samples = trafficgen::make_packet_samples(flows, 9);
  nn::TrainOptions opts;
  opts.epochs = 4;
  opts.lr = 0.01f;
  opts.cap_per_class = 1500;
  std::cout << "training " << (use_rnn ? "RNN" : "CNN") << " on "
            << samples.size() << " windows...\n";
  if (use_rnn) {
    nn::RnnConfig config;
    config.units = 64;
    config.num_classes = profile.num_classes();
    nn::RnnClassifier model(config, synth.seed);
    const auto report = model.fit(samples, opts);
    std::cout << "final loss: " << report.epoch_loss.back() << "\n";
    nn::save_rnn(std::string(argv[2]), model);
  } else {
    nn::CnnConfig config;
    config.conv_channels = {16, 32, 64};
    config.fc_dims = {128, 64};
    config.num_classes = profile.num_classes();
    nn::CnnClassifier model(config, synth.seed);
    const auto report = model.fit(samples, opts);
    std::cout << "final loss: " << report.epoch_loss.back() << "\n";
    nn::save_cnn(std::string(argv[2]), model);
  }
  std::cout << "model written to " << argv[2] << "\n";
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 2) return usage();
  // Workload: a saved trace (materialized, or streamed from disk with
  // --stream-chunk) or a generated scenario preset. Everything downstream
  // consumes the net::PacketSource seam.
  std::string scenario_name;
  const char* trace_path = nullptr;
  const char* model_path = nullptr;
  int opt_start = 2;
  if (std::strcmp(argv[0], "--scenario") == 0) {
    if (argc < 3) return usage();
    scenario_name = argv[1];
    model_path = argv[2];
    opt_start = 3;
  } else {
    trace_path = argv[0];
    model_path = argv[1];
  }

  core::FenixSystemConfig config;
  faults::FaultSchedule schedule;
  bool fallback_tree = false;
  bool pipelined = false;
  double offered_pps = 0.0;
  std::size_t stream_chunk = 0;
  std::string shadow_path;
  nn::Precision precision = nn::Precision::kInt8;
  core::PipelineOptions pipeline_opts;
  for (int i = opt_start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--precision") {
      if (++i >= argc) return usage();
      if (!nn::parse_precision(argv[i], precision)) {
        std::cerr << "fenix_replay: unknown precision '" << argv[i]
                  << "' (use fp32, int8, int4, or ternary)\n";
        return 2;
      }
    } else if (arg == "--pcb-loss") {
      if (++i >= argc) return usage();
      const auto loss = parse_non_negative(argv[i], 1.0);
      if (!loss) {
        return invalid_flag(kTool, arg, argv[i], "a loss rate in [0, 1]");
      }
      config.pcb_loss_rate = *loss;
    } else if (arg == "--fault-schedule") {
      if (++i >= argc) return usage();
      try {
        schedule = faults::FaultSchedule::load(argv[i]);
      } catch (const faults::ScheduleParseError& e) {
        // Malformed schedules name the offending line:column — print that
        // verbatim so the user can fix the file, not a bare abort.
        std::cerr << "fenix_replay: invalid fault schedule '" << argv[i]
                  << "': " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--fallback-tree") {
      fallback_tree = true;
    } else if (arg == "--pipes") {
      if (++i >= argc) return usage();
      const auto pipes = parse_count(argv[i]);
      if (!pipes) return invalid_flag(kTool, arg, argv[i], "an integer >= 1");
      pipelined = true;
      pipeline_opts.pipes = *pipes;
    } else if (arg == "--batch") {
      if (++i >= argc) return usage();
      const auto batch = parse_count(argv[i]);
      if (!batch) return invalid_flag(kTool, arg, argv[i], "an integer >= 1");
      pipelined = true;
      pipeline_opts.batch = *batch;
    } else if (arg == "--shadow-model") {
      if (++i >= argc) return usage();
      shadow_path = argv[i];
    } else if (arg == "--promote-at") {
      if (++i >= argc) return usage();
      const auto at = parse_non_negative(argv[i], kMaxFlagSeconds);
      if (!at) {
        return invalid_flag(kTool, arg, argv[i], "a replay time in seconds >= 0");
      }
      config.lifecycle.promote_at = sim::from_seconds(*at);
    } else if (arg == "--slo-drift") {
      if (++i >= argc) return usage();
      const auto rate = parse_non_negative(argv[i]);
      if (!rate) {
        return invalid_flag(kTool, arg, argv[i], "a disagreement rate >= 0");
      }
      config.lifecycle.slo.max_drift_rate = *rate;
    } else if (arg == "--slo-p99-us") {
      if (++i >= argc) return usage();
      const auto us = parse_non_negative(argv[i], kMaxFlagSeconds * 1e6);
      if (!us) {
        return invalid_flag(kTool, arg, argv[i], "a latency in microseconds >= 0");
      }
      config.lifecycle.slo.max_verdict_p99 = static_cast<sim::SimDuration>(
          *us * static_cast<double>(sim::kMicrosecond));
    } else if (arg == "--slo-min-samples") {
      if (++i >= argc) return usage();
      const auto samples = parse_count(argv[i]);
      if (!samples) return invalid_flag(kTool, arg, argv[i], "an integer >= 1");
      config.lifecycle.slo.min_samples = *samples;
    } else if (arg == "--offered-load") {
      if (++i >= argc) return usage();
      offered_pps = parse_non_negative(argv[i]).value_or(0.0);
      if (offered_pps <= 0.0) {
        // Same typed-error convention as --fault-schedule: name the bad
        // value, exit 2, never fall into the generic catch.
        return invalid_flag(kTool, "offered load", argv[i], "a packet rate > 0");
      }
    } else if (arg == "--admission") {
      config.admission.enabled = true;
    } else if (arg == "--stream-chunk") {
      if (++i >= argc) return usage();
      const auto chunk = parse_count(argv[i]);
      if (!chunk) return invalid_flag(kTool, arg, argv[i], "an integer >= 1");
      stream_chunk = *chunk;
    } else if (arg == "--slo-fallback") {
      config.lifecycle.slo.rollback_to_fallback = true;
    } else if (!arg.empty() && arg[0] != '-') {
      // Legacy positional form of --pcb-loss.
      const auto loss = parse_non_negative(argv[i], 1.0);
      if (!loss) {
        return invalid_flag(kTool, "pcb_loss_rate", argv[i],
                            "a loss rate in [0, 1]");
      }
      config.pcb_loss_rate = *loss;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }

  if (offered_pps > 0.0 && stream_chunk > 0 && scenario_name.empty()) {
    std::cerr << "fenix_replay: --offered-load needs a materialized trace or "
                 "a scenario (rescaling a disk stream is not supported)\n";
    return 2;
  }

  net::Trace trace;  // Backs the materialized path only; empty when streaming.
  std::unique_ptr<net::PacketSource> owned;
  std::unique_ptr<net::ChunkLimiter> limiter;
  net::PacketSource* source = nullptr;
  if (!scenario_name.empty()) {
    trafficgen::ScenarioConfig scenario;
    try {
      scenario = trafficgen::scenario_preset(scenario_name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "fenix_replay: " << e.what() << " (presets:";
      for (const auto& n : trafficgen::scenario_preset_names()) {
        std::cerr << " " << n;
      }
      std::cerr << ")\n";
      return 2;
    }
    if (offered_pps > 0.0) scenario.offered_pps = offered_pps;
    auto scenario_source = std::make_unique<trafficgen::ScenarioSource>(scenario);
    std::cout << "scenario " << scenario_name << ": " << scenario.flows
              << " flows, offered " << scenario.offered_pps / 1e6
              << " Mpps over " << sim::to_seconds(scenario_source->horizon())
              << " s\n";
    owned = std::move(scenario_source);
    source = owned.get();
  } else if (stream_chunk > 0) {
    owned = std::make_unique<net::StreamingTraceReader>(trace_path);
    limiter = std::make_unique<net::ChunkLimiter>(*owned, stream_chunk);
    source = limiter.get();
  } else {
    trace = net::load_trace(trace_path);
    if (offered_pps > 0.0) {
      const double current = trace.offered_pps();
      if (current > 0.0) {
        trace = trafficgen::rescale_trace(trace, offered_pps / current);
        std::cout << "rescaled trace to " << trace.offered_pps() / 1e6
                  << " Mpps\n";
      }
    }
    owned = std::make_unique<net::TraceSource>(trace);
    source = owned.get();
  }

  std::size_t classes = 0;
  for (std::uint32_t fid = 0; fid < source->flow_count(); ++fid) {
    const net::ClassLabel label = source->flow_label(fid);
    if (label >= 0) {
      classes = std::max<std::size_t>(classes, static_cast<std::size_t>(label) + 1);
    }
  }

  // Calibration windows from the workload's first 512 packets (pulled
  // through the source, then rewound — works for traces and scenarios).
  std::vector<nn::SeqSample> calibration;
  {
    trafficgen::FlowSample synth_flow;
    std::vector<net::PacketRecord> chunk(512);
    while (synth_flow.features.size() < 512) {
      const std::size_t n = source->next_chunk(std::span(chunk));
      if (n == 0) break;
      for (std::size_t j = 0; j < n && synth_flow.features.size() < 512; ++j) {
        net::PacketFeature f;
        f.length = chunk[j].wire_length;
        synth_flow.features.push_back(f);
      }
    }
    source->rewind();
    for (std::size_t i = 9; i < synth_flow.features.size(); i += 9) {
      nn::SeqSample s;
      s.tokens = nn::tokenize(
          std::span<const net::PacketFeature>(synth_flow.features.data() + i - 9, 9),
          9);
      s.label = 0;
      calibration.push_back(std::move(s));
    }
  }

  // Try CNN first, fall back to RNN.
  std::unique_ptr<nn::CnnClassifier> cnn;
  std::unique_ptr<nn::RnnClassifier> rnn;
  try {
    cnn = nn::load_cnn(std::string(model_path));
  } catch (const nn::SerializeError&) {
    rnn = nn::load_rnn(std::string(model_path));
  }
  // The float parents outlive the quantized models: the fp32 tier serves
  // them directly, and sub-INT8 quantization reads them once here.
  std::unique_ptr<nn::QuantizedCnn> qcnn;
  std::unique_ptr<nn::QuantizedRnn> qrnn;
  if (cnn) qcnn = std::make_unique<nn::QuantizedCnn>(*cnn, calibration, precision);
  if (rnn) qrnn = std::make_unique<nn::QuantizedRnn>(*rnn, calibration, precision);
  std::cout << "model precision: " << nn::precision_name(precision) << "\n";

  // The shadow candidate quantizes against the same trace-derived
  // calibration as the active model; the quantized weights must outlive the
  // system (the inference stage holds raw pointers).
  std::unique_ptr<nn::CnnClassifier> shadow_cnn;
  std::unique_ptr<nn::RnnClassifier> shadow_rnn;
  std::unique_ptr<nn::QuantizedCnn> shadow_qcnn;
  std::unique_ptr<nn::QuantizedRnn> shadow_qrnn;
  if (!shadow_path.empty()) {
    try {
      shadow_cnn = nn::load_cnn(shadow_path);
    } catch (const nn::SerializeError&) {
      shadow_rnn = nn::load_rnn(shadow_path);
    }
    if (shadow_cnn) {
      shadow_qcnn = std::make_unique<nn::QuantizedCnn>(*shadow_cnn, calibration);
      config.lifecycle.shadow_cnn = shadow_qcnn.get();
    }
    if (shadow_rnn) {
      shadow_qrnn = std::make_unique<nn::QuantizedRnn>(*shadow_rnn, calibration);
      config.lifecycle.shadow_rnn = shadow_qrnn.get();
    }
    std::cout << "shadow model " << shadow_path << " loaded ("
              << (shadow_cnn ? "cnn" : "rnn") << ")";
    if (config.lifecycle.promote_at > 0) {
      std::cout << ", promotion armed at "
                << sim::to_seconds(config.lifecycle.promote_at) << " s";
    }
    std::cout << "\n";
  }

  core::FenixSystem system(config, qcnn.get(), qrnn.get());

  if (fallback_tree) {
    // Per-packet (length, IPD code) rows streamed from the workload — the
    // same features the Data Engine computes in the pipeline.
    trees::Dataset data;
    data.dim = 2;
    std::vector<sim::SimTime> last_seen(source->flow_count(), 0);
    std::vector<net::PacketRecord> chunk(4096);
    bool done = false;
    while (!done) {
      const std::size_t n = source->next_chunk(std::span(chunk));
      if (n == 0) break;
      for (std::size_t j = 0; j < n; ++j) {
        const net::PacketRecord& p = chunk[j];
        if (p.flow_id >= last_seen.size()) continue;
        const net::ClassLabel label = source->flow_label(p.flow_id);
        if (label == net::kUnlabeled) continue;
        const sim::SimTime prev = last_seen[p.flow_id];
        const std::uint16_t ipd =
            prev == 0 ? 0 : net::encode_ipd(p.orig_timestamp - prev);
        last_seen[p.flow_id] = p.orig_timestamp;
        const float row[2] = {static_cast<float>(p.wire_length),
                              static_cast<float>(ipd)};
        data.add_row(row, label);
        if (data.rows() >= 60'000) {
          done = true;
          break;
        }
      }
    }
    source->rewind();
    trees::DecisionTree tree;
    trees::TreeConfig tree_config;
    tree_config.max_depth = 8;
    tree_config.min_samples_leaf = 64;
    tree.fit(data, classes, tree_config);
    system.data_engine().install_preliminary_tree(tree, /*max_entries=*/8192);
    std::cout << "installed fallback tree (" << tree.leaf_count()
              << " leaves) from " << data.rows() << " packets\n";
  }

  faults::FaultInjector injector(schedule, system);
  if (!schedule.empty()) {
    std::cout << "armed fault schedule (" << schedule.size() << " windows):\n"
              << schedule.to_text();
  }

  std::cout << "replaying ~" << source->packet_hint() << " packets";
  if (pipelined) {
    std::cout << " (" << pipeline_opts.pipes << " pipe shards, batch "
              << pipeline_opts.batch << ")";
  }
  std::cout << "...\n";
  faults::FaultInjector* hooks = schedule.empty() ? nullptr : &injector;
  const auto report =
      pipelined
          ? system.run_pipelined(*source, classes, hooks, {}, pipeline_opts)
          : system.run(*source, classes, hooks);

  telemetry::TextTable table({"Metric", "Value"});
  table.add_row({"precision", report.precision});
  table.add_row({"flow macro-F1",
                 telemetry::TextTable::num(report.flow_confusion.macro_f1())});
  table.add_row({"packet accuracy",
                 telemetry::TextTable::num(report.packet_confusion.accuracy())});
  table.add_row({"e2e mean (us)",
                 telemetry::TextTable::num(report.end_to_end.mean_us(), 1)});
  table.add_row({"e2e p99 (us)",
                 telemetry::TextTable::num(report.end_to_end.p99_us(), 1)});
  table.add_row({"e2e p999 (us)",
                 telemetry::TextTable::num(report.end_to_end.p999_us(), 1)});
  std::cout << table.render();
  if (config.lifecycle.enabled()) {
    std::cout << "lifecycle: " << report.lifecycle_shadow_evals
              << " shadow evals, " << report.lifecycle_disagreements
              << " disagreements, " << report.lifecycle_promotions
              << " promotion(s), " << report.lifecycle_rollbacks
              << " rollback(s), blackout "
              << sim::to_milliseconds(report.lifecycle_swap_blackout)
              << " ms, " << report.lifecycle_swap_drops
              << " swap drops\n";
  }
  if (config.admission.enabled) {
    std::cout << "admission ladder: " << report.admission_offered
              << " grants offered, " << report.admission_admitted
              << " admitted, shed " << report.shed_thinned << " thinned / "
              << report.shed_frozen << " frozen / " << report.shed_isolated
              << " isolated; " << report.admission_transitions
              << " transition(s), peak tier " << report.admission_peak_tier
              << " ("
              << core::AdmissionController::tier_name(
                     static_cast<unsigned>(report.admission_peak_tier))
              << ")\n";
  }
  // Same health table the benches emit (telemetry::MetricRegistry), so every
  // reporting surface prints one consistent set of failure counters.
  std::cout << "\nHealth counters:\n" << system.health_metrics(report).render();
  return 0;
}

int cmd_baselines(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto profile = profile_by_name(argv[0]);
  trafficgen::SynthesisConfig synth;
  if (const int bad =
          parse_flows_and_seed(argv[1], argc > 2 ? argv[2] : nullptr, synth)) {
    return bad;
  }
  synth.min_flows_per_class = 20;
  auto flows = trafficgen::synthesize_flows(profile, synth);
  const std::size_t k = profile.num_classes();

  // 80/20 train/test split in synthesis order (synthesize_flows interleaves
  // classes, so both splits cover every class).
  const std::size_t train_n = flows.size() * 4 / 5;
  std::vector<trafficgen::FlowSample> train(flows.begin(),
                                            flows.begin() + train_n);
  std::vector<trafficgen::FlowSample> test(flows.begin() + train_n, flows.end());
  std::cout << "dataset " << profile.name << ": " << train.size()
            << " train / " << test.size() << " test flows, " << k
            << " classes\n";

  baselines::FlowLens flowlens;
  baselines::NetBeacon netbeacon;
  baselines::Leo leo;
  baselines::Bos bos;
  baselines::N3ic n3ic;
  flowlens.train(train, k);
  netbeacon.train(train, k);
  leo.train(train, k);
  bos.train(train, k);
  n3ic.train(train, k);

  // All five schemes stream through the same core::VerdictBackend harness
  // the accuracy benches use — one loop, five plug-ins.
  std::unique_ptr<core::VerdictBackend> backends[] = {
      flowlens.backend(), netbeacon.backend(), leo.backend(), bos.backend(),
      n3ic.backend()};
  telemetry::TextTable table({"Scheme", "Flow macro-F1", "Packet accuracy"});
  for (auto& backend : backends) {
    const auto flow_cm = core::evaluate_flow_level(*backend, test, k);
    const auto packet_cm = core::evaluate_packet_level(*backend, test, k);
    table.add_row({backend->name(),
                   telemetry::TextTable::num(flow_cm.macro_f1()),
                   telemetry::TextTable::num(packet_cm.accuracy())});
  }
  std::cout << table.render();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "synth") return cmd_synth(argc - 2, argv + 2);
    if (command == "info") return cmd_info(argc - 2, argv + 2);
    if (command == "train") return cmd_train(argc - 2, argv + 2);
    if (command == "run") return cmd_run(argc - 2, argv + 2);
    if (command == "baselines") return cmd_baselines(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
