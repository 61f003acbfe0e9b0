// Overload resilience: offered load swept past saturation, knee capacity +
// tails under the admission ladder.
//
// Methodology: each trafficgen scenario preset is scaled down (flows and
// offered load shrunk by the same factor, preserving the horizon and the
// arrival/service shape) and replayed at offered-load multipliers
// {1, 2, 4, 8, 16}x with the overload-admission ladder (DESIGN.md §4.12)
// armed. The Model Engine is deliberately slowed (ii_override_cycles) and
// the Rate Limiter deliberately mis-calibrated (fpga_inference_rate_hz far
// above the engine's real rate), modelling the attack the ladder exists
// for: a flood the token bucket's calibration cannot absorb. Overload then
// surfaces as FIFO drops and deadline misses at the epoch barriers, the
// ladder walks its tiers, and every shed grant stays attributed.
//
// Headline metrics (BENCH_PR10.json § overload), gated against
// bench/baselines_overload.json by bench_gate:
//   <preset>_knee_pps           largest swept offered load still served at
//                               >= 90% admission ratio (floor gate)
//   <preset>_overload_p999_us   verdict p999 at the most overloaded point
//                               (ceiling gate; sim-time, so deterministic)
//   <preset>_shed_unattributed  conservation residual summed over the sweep
//                               (must be exactly 0)
// plus a serial-vs-pipelined bit-identity probe at the most overloaded
// ddos_flood point (`overload_pipes4_*`), holding the ladder's epoch-barrier
// publication to bit-identity while it escalates.
//
// Usage: bench_overload
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/fenix_system.hpp"
#include "net/packet_source.hpp"
#include "telemetry/table.hpp"
#include "trafficgen/scenario.hpp"

namespace {

using namespace fenix;

/// The system under overload: admission ladder armed at defaults, Rate
/// Limiter mis-calibrated to ~3 Mpps while the Model Engine is pinned to
/// ~20k inferences/s — the bucket admits a flood the FPGA cannot serve, so
/// saturation is a property of the workload sweep, not of wall-clock.
core::FenixSystemConfig make_overload_config(std::uint32_t shrink) {
  core::FenixSystemConfig config;
  config.data_engine.tracker.index_bits = 15;
  config.data_engine.window_tw = sim::milliseconds(50);
  config.data_engine.fpga_inference_rate_hz = 3e6;
  // Pin the initiation interval proportionally to the workload shrink so
  // both bench tiers replay the same utilisation curve: offered load scales
  // as 1/shrink, so capacity must too. At the smoke tier (shrink 250) this
  // is 90k cycles -> 300us II per lane port, ~3.3k inferences/s per lane,
  // ~53k/s over the 16-lane fabric; the full tier (shrink 50) runs 5x the
  // load against 5x the capacity. Base sweep points sit well under the knee
  // (per-lane utilisation < 0.1), the 8-16x points sit above it — so the
  // knee lands inside the sweep in either tier.
  config.model_engine.ii_override_cycles = 360 * shrink;
  // With the II stretched to 300us, a grant that finds its lane port busy
  // waits up to one interval per queued predecessor. The verdict deadline
  // clears even a full four-deep lane FIFO (~1.2ms of pacing waits), so the
  // overload pressure the ladder reacts to is the unambiguous signal: lane
  // FIFO drops, a queue that physically overflowed.
  config.recovery.result_deadline = sim::microseconds(2500);
  config.admission.enabled = true;
  return config;
}

struct SweepPoint {
  double offered_pps = 0.0;
  double served_ratio = 0.0;  ///< admitted / offered grants.
  double p999_us = 0.0;
  std::uint64_t sheds = 0;
  std::uint64_t transitions = 0;
  std::uint64_t peak_tier = 0;
  std::uint64_t unattributed = 0;
};

}  // namespace

int main() {
  bench::print_banner("FENIX bench: overload resilience",
                      "Offered load past saturation, admission-ladder knee");

  const auto scale = bench::BenchScale::from_env();
  auto dataset =
      bench::make_dataset(trafficgen::DatasetProfile::iscx_vpn(), scale, 0x10ad);
  std::cout << "Training FENIX CNN...\n";
  const auto models = bench::train_fenix_models(dataset, scale, 0x10ad);
  const std::size_t classes = dataset.num_classes();

  // Scaling flows and offered load by the same factor preserves the horizon;
  // the smoke tier shrinks harder so `ctest -L overload_smoke` runs in
  // seconds while the committed record comes from the full tier.
  const std::uint32_t shrink = scale.smoke ? 250 : 50;
  static constexpr double kMultipliers[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  static constexpr double kKneeRatio = 0.9;

  telemetry::TextTable table({"Scenario", "Offered pps", "Served", "p999 us",
                              "Sheds", "Transitions", "Peak tier"});
  bench::JsonSection perf;
  bool ok = true;

  for (const std::string& name : trafficgen::scenario_preset_names()) {
    trafficgen::ScenarioConfig base = trafficgen::scenario_preset(name);
    base.flows = std::max<std::uint32_t>(1000, base.flows / shrink);
    base.offered_pps /= shrink;
    base.num_classes = static_cast<std::uint16_t>(classes);

    double knee_pps = 0.0;
    std::uint64_t residual_total = 0;
    SweepPoint last;
    for (const double mult : kMultipliers) {
      trafficgen::ScenarioConfig scenario = base;
      scenario.offered_pps = base.offered_pps * mult;
      trafficgen::ScenarioSource source(scenario);

      core::FenixSystem system(make_overload_config(shrink), models.qcnn.get(),
                               nullptr);
      const auto report = system.run(source, classes);

      SweepPoint point;
      point.offered_pps = scenario.offered_pps;
      point.served_ratio =
          report.admission_offered > 0
              ? static_cast<double>(report.admission_admitted) /
                    static_cast<double>(report.admission_offered)
              : 1.0;
      point.p999_us = report.end_to_end.p999_us();
      point.sheds =
          report.shed_thinned + report.shed_frozen + report.shed_isolated;
      point.transitions = report.admission_transitions;
      point.peak_tier = report.admission_peak_tier;
      point.unattributed = report.shed_unattributed();
      residual_total += point.unattributed;
      if (point.served_ratio >= kKneeRatio) {
        knee_pps = std::max(knee_pps, point.offered_pps);
      }
      last = point;

      table.add_row({name, telemetry::TextTable::num(point.offered_pps, 0),
                     telemetry::TextTable::num(point.served_ratio, 3),
                     telemetry::TextTable::num(point.p999_us, 1),
                     std::to_string(point.sheds),
                     std::to_string(point.transitions),
                     std::to_string(point.peak_tier)});
      perf.put(name + "_served_ratio_x" +
                   std::to_string(static_cast<int>(mult)),
               point.served_ratio);
      const std::string suffix = "_x" + std::to_string(static_cast<int>(mult));
      perf.put(name + "_offered_grants" + suffix,
               static_cast<std::int64_t>(report.admission_offered));
      perf.put(name + "_fifo_drops" + suffix,
               static_cast<std::int64_t>(report.fifo_drops));
      perf.put(name + "_deadline_misses" + suffix,
               static_cast<std::int64_t>(report.deadline_misses));
    }
    if (residual_total != 0) ok = false;
    if (knee_pps <= 0.0) {
      std::cerr << "FAIL: " << name
                << " sheds > 10% of grants at its base offered load — the "
                   "sweep never saw an unsaturated point\n";
      ok = false;
    }

    // Gated headline metrics: the knee is a floor, the overload tail a
    // ceiling, the conservation residual exact-zero.
    perf.put(name + "_knee_pps", knee_pps);
    perf.put(name + "_overload_p999_us", last.p999_us);
    perf.put(name + "_shed_unattributed",
             static_cast<std::int64_t>(residual_total));
    perf.put(name + "_overload_sheds", static_cast<std::int64_t>(last.sheds));
    perf.put(name + "_overload_transitions",
             static_cast<std::int64_t>(last.transitions));
    perf.put(name + "_overload_peak_tier",
             static_cast<std::int64_t>(last.peak_tier));
  }
  std::cout << table.render() << "\n";

  // Bit-identity probe at the most overloaded ddos_flood point: the ladder
  // escalates through its tiers while serial and 4-pipe sharded replays must
  // still produce byte-identical reports (the barrier-published ladder is
  // part of the replay semantics, not an observer).
  {
    trafficgen::ScenarioConfig scenario = trafficgen::scenario_preset("ddos_flood");
    scenario.flows = std::max<std::uint32_t>(1000, scenario.flows / shrink);
    scenario.offered_pps =
        scenario.offered_pps / shrink * kMultipliers[std::size(kMultipliers) - 1];
    scenario.num_classes = static_cast<std::uint16_t>(classes);

    trafficgen::ScenarioSource stream(scenario);
    const net::Trace materialized = net::materialize(stream);
    core::FenixSystem serial(make_overload_config(shrink), models.qcnn.get(), nullptr);
    const core::RunReport reference = serial.run(materialized, classes);

    core::PipelineOptions opts;
    opts.pipes = 4;
    core::FenixSystem sharded(make_overload_config(shrink), models.qcnn.get(),
                              nullptr);
    const core::RunReport pipelined =
        sharded.run_pipelined(materialized, classes, nullptr, {}, opts);

    const auto divergence = core::first_divergence(reference, pipelined);
    perf.put("overload_pipes4_bit_identical",
             divergence ? std::int64_t{0} : std::int64_t{1});
    if (divergence) {
      perf.put("overload_pipes4_divergence", *divergence);
      std::cerr << "DIVERGENCE overload_pipes4: " << *divergence << "\n";
      ok = false;
    } else {
      perf.put("overload_pipes4_divergence", std::int64_t{0});
      std::cout << "overload_pipes4: bit-identical through "
                << reference.admission_transitions
                << " ladder transition(s) (peak tier "
                << reference.admission_peak_tier << ")\n";
      if (reference.admission_transitions == 0) {
        std::cerr << "FAIL: the 16x ddos_flood point never moved the ladder — "
                     "the bit-identity probe proved nothing\n";
        ok = false;
      }
    }
  }

  bench::write_bench_json("overload", perf, "BENCH_PR10.json");

  if (!ok) {
    std::cerr << "FAIL: unattributed sheds, a saturated base point, or a "
                 "diverged overload replay\n";
    return 1;
  }
  return 0;
}
