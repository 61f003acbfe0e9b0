// Chaos soak harness: randomized fault schedules vs the invariant registry.
//
// For each seed this tool draws a random faults::FaultSchedule (FPGA stalls
// and resets, channel brownouts, FIFO shrinks, and the corrupt / reorder /
// dup chaos mutators), replays one trace through BOTH the serial path
// (FenixSystem::run) and the multi-pipe sharded path (run_pipelined) on
// fresh systems, and then:
//
//   1. checks every core::InvariantRegistry::standard() conservation law
//      against each run's RunReport + per-direction reliable-link stats, and
//   2. asserts the two RunReports are bit-identical, printing the
//      first_divergence() diagnostic if not.
//
// Every seed also runs the model lifecycle: a second (shadow) CNN is scored
// against the active model, promoted mid-trace, and — on odd seeds — demoted
// again by an unsatisfiable latency SLO, so each soak exercises hot swaps and
// rollbacks racing the fault schedule. `--promote-every <ms>` re-arms
// promotion after each rollback at that cadence, driving repeated swap
// cycles through the same faults.
//
// Any failure prints the violating seed and the exact schedule text so the
// run reproduces with `--seeds 1 --start <seed>`. `--mutate` is the harness's
// self-test: it deliberately corrupts a healthy run's counters and exits
// nonzero unless the registry flags every corruption.
//
// `--scenario <preset>` swaps the workload for a scaled-down trafficgen
// scenario (flash_crowd, ddos_flood, ...) with the overload-admission ladder
// armed at aggressive thresholds, so every seed races random fault schedules
// against a flash crowd or flood while the ladder walks its tiers — the soak
// then demands shed-conservation and serial/sharded bit-identity *through*
// the ladder transitions, and fails if the ladder never moved.
//
// Usage:
//   fenix_chaos [--seeds N] [--start S] [--windows W] [--promote-every MS]
//               [--scenario PRESET] [--mutate]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_numbers.hpp"
#include "core/fenix_system.hpp"
#include "core/invariants.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "net/packet_source.hpp"
#include "nn/quantize.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/scenario.hpp"
#include "trafficgen/synthesizer.hpp"

namespace {

using namespace fenix;

/// One shared workload: a modest labeled trace plus a small trained +
/// quantized CNN, built once and replayed for every seed.
struct Workload {
  trafficgen::DatasetProfile profile;
  std::unique_ptr<nn::QuantizedCnn> quantized;
  std::unique_ptr<nn::QuantizedCnn> shadow;
  net::Trace trace;
  std::size_t num_classes = 0;
  std::uint64_t labeled_flows = 0;

  Workload() {
    profile = trafficgen::DatasetProfile::iscx_vpn();
    trafficgen::SynthesisConfig synth;
    synth.total_flows = 120;
    synth.seed = 23;
    const auto flows = trafficgen::synthesize_flows(profile, synth);

    num_classes = profile.num_classes();
    nn::CnnConfig config;
    config.conv_channels = {8};
    config.fc_dims = {16};
    config.num_classes = num_classes;
    nn::CnnClassifier model(config, 11);
    const auto samples = trafficgen::make_packet_samples(flows, 9, 6, 3);
    nn::TrainOptions opts;
    opts.epochs = 1;
    model.fit(samples, opts);
    quantized = std::make_unique<nn::QuantizedCnn>(model, samples);

    // Shadow candidate: same architecture, different init, so the drift
    // monitor sees real (but not total) disagreement during evaluation.
    nn::CnnClassifier candidate(config, 31);
    candidate.fit(samples, opts);
    shadow = std::make_unique<nn::QuantizedCnn>(candidate, samples);

    trafficgen::TraceConfig trace_config;
    trace_config.flow_arrival_rate_hz = 2000;
    trace = trafficgen::assemble_trace(flows, trace_config);
    for (const net::FlowRecord& f : trace.flows) {
      if (f.label >= 0 && static_cast<std::size_t>(f.label) < num_classes) {
        ++labeled_flows;
      }
    }
  }
};

/// The system configuration a given seed runs under: the reliable link's
/// repair budget rotates so the soak covers the bare-channel degenerate case
/// (0), single repair (1), and deeper repair (2). Every seed runs the model
/// lifecycle — shadow evaluation from the start, a promotion one third into
/// the trace — and the SLO rotates with seed parity: odd seeds carry an
/// unsatisfiable latency target so the promotion is always rolled back (every
/// fourth seed additionally forcing the TCAM fallback on demotion), while
/// even seeds keep the candidate serving to soak the post-swap epoch rule.
core::FenixSystemConfig config_for_seed(std::uint64_t seed,
                                        const Workload& work,
                                        std::uint64_t promote_every_ms) {
  core::FenixSystemConfig config;
  config.link.max_retransmits = static_cast<unsigned>(seed % 3);
  config.link.reorder_window = 32;
  config.lifecycle.shadow_cnn = work.shadow.get();
  config.lifecycle.promote_at = work.trace.duration() / 3;
  config.lifecycle.swap_blackout = sim::milliseconds(2);
  if (seed % 2 == 1) {
    config.lifecycle.slo.max_verdict_p99 = 1;  // unsatisfiable: forces rollback
    config.lifecycle.slo.min_samples = 1;
    config.lifecycle.slo.rollback_to_fallback = (seed % 4 == 3);
    if (promote_every_ms > 0) {
      config.lifecycle.repromote_every = sim::milliseconds(promote_every_ms);
    }
  }
  return config;
}

/// Runs the standard registry against one report. The conservation laws hold
/// over the whole striped fabric, so the link counters are the all-lane
/// aggregates (kept in locals for the duration of the check — the context
/// holds pointers).
std::vector<core::InvariantViolation> check_invariants(
    const core::RunReport& report, std::uint64_t trace_packets,
    std::uint64_t labeled_flows, const core::FenixSystem& system,
    const core::FenixSystemConfig& config) {
  const net::ReliableLinkStats to_stats = system.link_stats_to_fpga();
  const net::ReliableLinkStats from_stats = system.link_stats_from_fpga();
  core::InvariantContext ctx{report};
  ctx.trace_packets = trace_packets;
  ctx.trace_flows = labeled_flows;
  ctx.to_link = &to_stats;
  ctx.from_link = &from_stats;
  ctx.reorder_window = config.link.reorder_window;
  ctx.link_max_retransmits = config.link.max_retransmits;
  ctx.replay_max_retransmits = config.recovery.max_retransmits;
  ctx.lifecycle_enabled = config.lifecycle.enabled();
  ctx.lifecycle_blackout = config.lifecycle.swap_blackout;
  // Both FenixSystem drivers route every grant through the admission
  // controller, so shed-conservation is always live here.
  ctx.admission_tracking = true;
  return core::InvariantRegistry::standard().check(ctx);
}

void print_violations(const std::vector<core::InvariantViolation>& violations) {
  for (const core::InvariantViolation& v : violations) {
    std::cerr << "  invariant '" << v.name << "': " << v.detail << "\n";
  }
}

/// Aggregated lifecycle activity across the soak so the summary can prove
/// the run actually exercised swaps and rollbacks, not just clean replays.
struct SoakTotals {
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t admission_transitions = 0;
  std::uint64_t shed_total = 0;
  unsigned peak_tier = 0;
};

/// Replays one seed through both paths and checks everything. Returns true
/// when the seed is clean.
bool run_seed(std::uint64_t seed, const Workload& work, std::size_t windows,
              std::uint64_t promote_every_ms, SoakTotals& totals) {
  const core::FenixSystemConfig config =
      config_for_seed(seed, work, promote_every_ms);
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::random(seed, work.trace.duration(), windows);

  // Serial path, streamed through PacketSource at a seed-rotated chunk size:
  // every chaos seed also asserts that chunking is unobservable (the serial
  // report below is the sharded comparison's reference, so a chunk-size leak
  // would show up as a divergence).
  static constexpr std::size_t kChunks[] = {1, 7, 64, 4096};
  net::TraceSource trace_source(work.trace);
  net::ChunkLimiter serial_source(trace_source, kChunks[(seed / 2) % 4]);
  core::FenixSystem serial(config, work.quantized.get(), nullptr);
  faults::FaultInjector serial_injector(schedule, serial);
  const core::RunReport serial_report =
      serial.run(serial_source, work.num_classes, &serial_injector);

  // Sharded path: pipes / batch rotate with the seed so the soak sweeps the
  // shard and batch-lane space, not one fixed configuration.
  static constexpr std::size_t kPipes[] = {1, 2, 4, 8};
  static constexpr std::size_t kBatch[] = {1, 8, 16};
  core::PipelineOptions opts;
  opts.pipes = kPipes[seed % 4];
  opts.batch = kBatch[(seed / 4) % 3];
  core::FenixSystem sharded(config, work.quantized.get(), nullptr);
  faults::FaultInjector sharded_injector(schedule, sharded);
  const core::RunReport sharded_report = sharded.run_pipelined(
      work.trace, work.num_classes, &sharded_injector, {}, opts);

  bool ok = true;
  const auto serial_violations =
      check_invariants(serial_report, work.trace.packets.size(),
                       work.labeled_flows, serial, config);
  if (!serial_violations.empty()) {
    std::cerr << "seed " << seed << ": serial replay violated "
              << serial_violations.size() << " invariant(s)\n";
    print_violations(serial_violations);
    ok = false;
  }
  const auto sharded_violations =
      check_invariants(sharded_report, work.trace.packets.size(),
                       work.labeled_flows, sharded, config);
  if (!sharded_violations.empty()) {
    std::cerr << "seed " << seed << ": sharded replay (pipes=" << opts.pipes
              << " batch=" << opts.batch << ") violated "
              << sharded_violations.size() << " invariant(s)\n";
    print_violations(sharded_violations);
    ok = false;
  }
  if (const auto div = core::first_divergence(serial_report, sharded_report)) {
    std::cerr << "seed " << seed << ": serial vs sharded (pipes=" << opts.pipes
              << " batch=" << opts.batch
              << ") reports diverge: first_divergence = " << *div << "\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "reproduce with: fenix_chaos --seeds 1 --start " << seed
              << " --windows " << windows << "\nschedule:\n"
              << schedule.to_text();
  }
  totals.promotions += serial_report.lifecycle_promotions;
  totals.rollbacks += serial_report.lifecycle_rollbacks;
  return ok;
}

/// Scenario-soak workload: a scaled-down trafficgen preset materialized once
/// (flows shrunk, offered load shrunk proportionally so the horizon and the
/// arrival/service shape survive), replayed under the Workload's CNN.
struct ScenarioWorkload {
  std::string name;
  net::Trace trace;
  std::uint64_t labeled_flows = 0;

  ScenarioWorkload(const std::string& preset, std::size_t num_classes) {
    name = preset;
    trafficgen::ScenarioConfig config = trafficgen::scenario_preset(preset);
    const std::uint32_t full_flows = config.flows;
    config.flows = 3000;
    config.offered_pps =
        config.offered_pps * config.flows / static_cast<double>(full_flows);
    config.num_classes = static_cast<std::uint16_t>(num_classes);
    trafficgen::ScenarioSource source(config);
    trace = net::materialize(source);
    for (const net::FlowRecord& f : trace.flows) {
      if (f.label >= 0 && static_cast<std::size_t>(f.label) < num_classes) {
        ++labeled_flows;
      }
    }
  }
};

/// Scenario seeds arm the overload-admission ladder at aggressive thresholds
/// (escalate after one pressured epoch) so the fault schedule's FPGA stalls
/// and brownouts actually walk the tiers, and the soak exercises every
/// transition under shed-conservation + bit-identity.
core::FenixSystemConfig scenario_config_for_seed(std::uint64_t seed) {
  core::FenixSystemConfig config;
  config.link.max_retransmits = static_cast<unsigned>(seed % 3);
  config.link.reorder_window = 32;
  config.admission.enabled = true;
  config.admission.enter_epochs = 1;
  config.admission.exit_epochs = 2;
  config.admission.victim_min_count = 8;
  return config;
}

/// One scenario seed: random fault schedule racing the flood, serial
/// (chunk-rotated) vs sharded (pipes rotating over {1, 4, 8}), invariants +
/// bit-identity through every ladder transition.
bool run_scenario_seed(std::uint64_t seed, const ScenarioWorkload& work,
                       const nn::QuantizedCnn* model, std::size_t num_classes,
                       std::size_t windows, SoakTotals& totals) {
  const core::FenixSystemConfig config = scenario_config_for_seed(seed);
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::random(seed, work.trace.duration(), windows);

  static constexpr std::size_t kChunks[] = {1, 7, 64, 4096};
  net::TraceSource trace_source(work.trace);
  net::ChunkLimiter serial_source(trace_source, kChunks[(seed / 2) % 4]);
  core::FenixSystem serial(config, model, nullptr);
  faults::FaultInjector serial_injector(schedule, serial);
  const core::RunReport serial_report =
      serial.run(serial_source, num_classes, &serial_injector);

  static constexpr std::size_t kPipes[] = {1, 4, 8};
  core::PipelineOptions opts;
  opts.pipes = kPipes[seed % 3];
  opts.batch = 8;
  core::FenixSystem sharded(config, model, nullptr);
  faults::FaultInjector sharded_injector(schedule, sharded);
  const core::RunReport sharded_report = sharded.run_pipelined(
      work.trace, num_classes, &sharded_injector, {}, opts);

  bool ok = true;
  const auto serial_violations =
      check_invariants(serial_report, work.trace.packets.size(),
                       work.labeled_flows, serial, config);
  if (!serial_violations.empty()) {
    std::cerr << "scenario " << work.name << " seed " << seed
              << ": serial replay violated " << serial_violations.size()
              << " invariant(s)\n";
    print_violations(serial_violations);
    ok = false;
  }
  const auto sharded_violations =
      check_invariants(sharded_report, work.trace.packets.size(),
                       work.labeled_flows, sharded, config);
  if (!sharded_violations.empty()) {
    std::cerr << "scenario " << work.name << " seed " << seed
              << ": sharded replay (pipes=" << opts.pipes << ") violated "
              << sharded_violations.size() << " invariant(s)\n";
    print_violations(sharded_violations);
    ok = false;
  }
  if (const auto div = core::first_divergence(serial_report, sharded_report)) {
    std::cerr << "scenario " << work.name << " seed " << seed
              << ": serial vs sharded (pipes=" << opts.pipes
              << ") reports diverge: first_divergence = " << *div << "\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "reproduce with: fenix_chaos --scenario " << work.name
              << " --seeds 1 --start " << seed << " --windows " << windows
              << "\nschedule:\n"
              << schedule.to_text();
  }
  totals.admission_transitions += serial_report.admission_transitions;
  totals.shed_total += serial_report.shed_thinned + serial_report.shed_frozen +
                       serial_report.shed_isolated;
  totals.peak_tier = std::max(
      totals.peak_tier, static_cast<unsigned>(serial_report.admission_peak_tier));
  return ok;
}

/// Self-test: corrupt a healthy run's counters one at a time and demand the
/// registry catches every corruption. Guards against the checker rotting
/// into a rubber stamp.
bool run_mutation_check(std::uint64_t seed, const Workload& work,
                        std::size_t windows) {
  const core::FenixSystemConfig config = config_for_seed(seed, work, 0);
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::random(seed, work.trace.duration(), windows);
  core::FenixSystem system(config, work.quantized.get(), nullptr);
  faults::FaultInjector injector(schedule, system);
  core::RunReport report = system.run(work.trace, work.num_classes, &injector);

  const auto clean = check_invariants(report, work.trace.packets.size(),
                                      work.labeled_flows, system, config);
  if (!clean.empty()) {
    std::cerr << "mutation check: baseline run is not clean (seed " << seed
              << ")\n";
    print_violations(clean);
    return false;
  }

  struct Mutation {
    const char* name;
    void (*apply)(core::RunReport&);
  };
  const Mutation mutations[] = {
      {"packets+1", [](core::RunReport& r) { ++r.packets; }},
      {"mirrors+1", [](core::RunReport& r) { ++r.mirrors; }},
      {"fifo_drops+1", [](core::RunReport& r) { ++r.fifo_drops; }},
      {"results_applied+1", [](core::RunReport& r) { ++r.results_applied; }},
      {"retransmits=misses+1",
       [](core::RunReport& r) { r.retransmits = r.deadline_misses + 1; }},
      {"stale_epoch_drops+1",
       [](core::RunReport& r) { ++r.stale_epoch_drops; }},
      // Lifecycle accounting: each corruption must trip the matching law.
      {"demoted_applies+1",
       [](core::RunReport& r) { ++r.lifecycle_demoted_applies; }},
      {"disagreements=evals+1",
       [](core::RunReport& r) {
         r.lifecycle_disagreements = r.lifecycle_shadow_evals + 1;
       }},
      {"verdicts_primary+1",
       [](core::RunReport& r) { ++r.lifecycle_verdicts_primary; }},
      {"rollbacks=promotions+1",
       [](core::RunReport& r) {
         r.lifecycle_rollbacks = r.lifecycle_promotions + 1;
       }},
      {"swap_blackout+1",
       [](core::RunReport& r) { r.lifecycle_swap_blackout += 1; }},
      // Overload-admission accounting: each shed counter corruption must
      // break shed-conservation.
      {"admission_offered+1",
       [](core::RunReport& r) { ++r.admission_offered; }},
      {"admission_admitted+1",
       [](core::RunReport& r) { ++r.admission_admitted; }},
      {"shed_thinned+1", [](core::RunReport& r) { ++r.shed_thinned; }},
      {"shed_frozen+1", [](core::RunReport& r) { ++r.shed_frozen; }},
      {"shed_isolated+1", [](core::RunReport& r) { ++r.shed_isolated; }},
      // Report-side link aggregates must keep matching the link stats.
      {"link_retransmits+1", [](core::RunReport& r) { ++r.link_retransmits; }},
      {"link_nacks+1", [](core::RunReport& r) { ++r.link_nacks; }},
      {"link_corrupt_drops+1",
       [](core::RunReport& r) { ++r.link_corrupt_drops; }},
      {"link_resyncs+1", [](core::RunReport& r) { ++r.link_resyncs; }},
  };
  bool ok = true;
  for (const Mutation& m : mutations) {
    core::RunReport mutated = report;  // fresh copy per mutation
    m.apply(mutated);
    const auto violations = check_invariants(
        mutated, work.trace.packets.size(), work.labeled_flows, system, config);
    if (violations.empty()) {
      std::cerr << "mutation check FAILED: corruption '" << m.name
                << "' slipped past the registry (seed " << seed << ")\n";
      ok = false;
    } else {
      std::cout << "mutation '" << m.name << "' caught by invariant '"
                << violations.front().name << "'\n";
    }
  }
  return ok;
}

constexpr const char* kTool = "fenix_chaos";  ///< Diagnostic prefix.

int usage() {
  std::cerr << "usage: fenix_chaos [--seeds N] [--start S] [--windows W] "
               "[--promote-every MS] [--scenario PRESET] [--mutate]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 32;
  std::uint64_t start = 0;
  std::size_t windows = 6;
  std::uint64_t promote_every_ms = 0;
  std::string scenario;
  bool mutate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds") {
      if (++i >= argc) return usage();
      const auto n = cli::parse_count(argv[i]);
      if (!n) return cli::invalid_flag(kTool, arg, argv[i], "an integer >= 1");
      seeds = *n;
    } else if (arg == "--start") {
      if (++i >= argc) return usage();
      const auto s = cli::parse_integer(argv[i]);
      if (!s) return cli::invalid_flag(kTool, arg, argv[i], "an integer >= 0");
      start = *s;
    } else if (arg == "--windows") {
      if (++i >= argc) return usage();
      const auto w = cli::parse_integer(argv[i], 0,
                                        std::numeric_limits<std::size_t>::max());
      if (!w) return cli::invalid_flag(kTool, arg, argv[i], "an integer >= 0");
      windows = static_cast<std::size_t>(*w);
    } else if (arg == "--promote-every") {
      if (++i >= argc) return usage();
      // Bounded so the conversion to sim::SimTime cannot overflow.
      const auto ms = cli::parse_integer(
          argv[i], 0, std::numeric_limits<sim::SimTime>::max() / sim::kMillisecond);
      if (!ms) {
        return cli::invalid_flag(kTool, arg, argv[i],
                                 "a period in milliseconds >= 0");
      }
      promote_every_ms = *ms;
    } else if (arg == "--scenario") {
      if (++i >= argc) return usage();
      scenario = argv[i];
    } else if (arg == "--mutate") {
      mutate = true;
    } else {
      return usage();
    }
  }
  if (!scenario.empty()) {
    const auto& names = trafficgen::scenario_preset_names();
    if (std::find(names.begin(), names.end(), scenario) == names.end()) {
      std::cerr << "fenix_chaos: unknown scenario preset '" << scenario
                << "' (presets:";
      for (const std::string& n : names) std::cerr << " " << n;
      std::cerr << ")\n";
      return 2;
    }
  }

  const Workload work;
  std::cout << "chaos workload: " << work.trace.packets.size() << " packets, "
            << work.trace.flows.size() << " flows (" << work.labeled_flows
            << " labeled), " << work.num_classes << " classes\n";

  if (mutate) {
    return run_mutation_check(start, work, windows) ? 0 : 1;
  }

  if (!scenario.empty()) {
    const ScenarioWorkload scen(scenario, work.num_classes);
    std::cout << "scenario soak '" << scenario
              << "': " << scen.trace.packets.size() << " packets, "
              << scen.trace.flows.size() << " flows (" << scen.labeled_flows
              << " labeled)\n";
    std::uint64_t clean = 0;
    SoakTotals totals;
    for (std::uint64_t k = 0; k < seeds; ++k) {
      const std::uint64_t seed = start + k;  // wraps past the top seed
      if (!run_scenario_seed(seed, scen, work.quantized.get(),
                             work.num_classes, windows, totals)) {
        std::cerr << "scenario soak FAILED at seed " << seed << " (" << clean
                  << " clean seeds before it)\n";
        return 1;
      }
      ++clean;
      if (clean % 50 == 0) {
        std::cout << "  " << clean << "/" << seeds << " seeds clean\n";
      }
    }
    // A scenario soak whose ladder never escalated proved nothing about
    // overload resilience: the aggressive thresholds + fault schedules must
    // have moved the ladder at least once across the soak.
    if (totals.admission_transitions == 0) {
      std::cerr << "scenario soak FAILED: admission ladder never moved "
                << "(transitions=0 over " << clean << " seeds)\n";
      return 1;
    }
    std::cout << "scenario soak PASSED: " << clean << " seeds on '" << scenario
              << "', zero invariant violations, serial == sharded; ladder: "
              << totals.admission_transitions << " transitions, "
              << totals.shed_total << " sheds, peak tier "
              << totals.peak_tier << " ("
              << core::AdmissionController::tier_name(totals.peak_tier)
              << ")\n";
    return 0;
  }

  std::uint64_t clean = 0;
  SoakTotals totals;
  for (std::uint64_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = start + k;  // wraps past the top seed
    if (!run_seed(seed, work, windows, promote_every_ms, totals)) {
      std::cerr << "chaos soak FAILED at seed " << seed << " (" << clean
                << " clean seeds before it)\n";
      return 1;
    }
    ++clean;
    if (clean % 50 == 0) {
      std::cout << "  " << clean << "/" << seeds << " seeds clean\n";
    }
  }
  // A soak that never swapped models proved nothing about the lifecycle:
  // demand at least one promotion, and one rollback once two seeds ran (the
  // odd-parity SLO guarantees a demotion on every odd seed).
  if (totals.promotions == 0 || (seeds >= 2 && totals.rollbacks == 0)) {
    std::cerr << "chaos soak FAILED: lifecycle never exercised (promotions="
              << totals.promotions << " rollbacks=" << totals.rollbacks
              << ")\n";
    return 1;
  }
  std::cout << "chaos soak PASSED: " << clean << " seeds, zero invariant "
            << "violations, serial == sharded at every seed ("
            << totals.promotions << " promotions, " << totals.rollbacks
            << " rollbacks exercised)\n";
  return 0;
}
