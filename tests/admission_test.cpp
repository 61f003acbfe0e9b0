// Overload-admission ladder: hysteresis boundaries, per-tier shed semantics
// and attribution precedence on the AdmissionController directly, then the
// end-to-end contracts — shed conservation and serial-vs-pipelined
// bit-identity through real ladder transitions under a compound fault
// schedule — and the flow-table churn satellite (ExactMatchTable collision
// eviction inside a real replay, with evicted flows re-admitting cleanly).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/admission_controller.hpp"
#include "core/fenix_system.hpp"
#include "core/invariants.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_schedule.hpp"
#include "net/packet_source.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "switchsim/match_table.hpp"
#include "switchsim/resources.hpp"
#include "trafficgen/scenario.hpp"
#include "trafficgen/synthesizer.hpp"

namespace fenix::core {
namespace {

/// Drives one reconcile epoch against lane 0: `offered` grants (distinct
/// flow hashes unless pinned), then `pressure_events` fifo-drop deltas, then
/// the barrier. Mirrors the ReplayCore cadence: observe_lane with the
/// *cumulative* counter, reconcile once.
class Epochs {
 public:
  explicit Epochs(AdmissionController& ctrl) : ctrl_(ctrl) {}

  /// Returns reconcile()'s board-degrade edge.
  bool run(std::uint64_t offered, std::uint64_t pressure_events,
           std::uint32_t dst_ip = 0x0a000001u) {
    for (std::uint64_t i = 0; i < offered; ++i) {
      const std::uint64_t hash = next_hash_++ * 0x9e3779b97f4a7c15ULL + 1;
      if (ctrl_.on_grant(0, hash, /*slot=*/0, dst_ip)) ctrl_.note_admitted(0);
    }
    cum_drops_ += pressure_events;
    ctrl_.observe_lane(0, cum_drops_, 0);
    return ctrl_.reconcile(sim::milliseconds(++epoch_));
  }

 private:
  AdmissionController& ctrl_;
  std::uint64_t cum_drops_ = 0;
  std::uint64_t next_hash_ = 1;
  std::uint64_t epoch_ = 0;
};

AdmissionConfig armed_config() {
  AdmissionConfig config;
  config.enabled = true;
  config.enter_pressure = 0.02;
  config.exit_pressure = 0.005;
  config.enter_epochs = 2;
  config.exit_epochs = 4;
  config.thin_fraction = 0.5;
  config.victim_min_share = 0.05;
  config.victim_min_count = 32;
  config.table_slots = 64;
  return config;
}

TEST(AdmissionLadder, AccountingRunsButLadderHoldsWhenDisabled) {
  AdmissionConfig config = armed_config();
  config.enabled = false;
  AdmissionController ctrl(config);
  Epochs epochs(ctrl);
  for (int e = 0; e < 10; ++e) {
    EXPECT_FALSE(epochs.run(100, 100));  // pressure 1.0, every epoch
  }
  EXPECT_EQ(ctrl.tier(), 0u);
  EXPECT_EQ(ctrl.transitions(), 0u);
  const RunCounters t = ctrl.totals();
  EXPECT_EQ(t.admission_offered, 1000u);
  EXPECT_EQ(t.admission_admitted, 1000u);
  EXPECT_EQ(t.shed_thinned + t.shed_frozen + t.shed_isolated, 0u);
  EXPECT_EQ(ctrl.reconciles(), 10u);
}

TEST(AdmissionLadder, EnterThresholdIsInclusiveAndStreakGated) {
  AdmissionController ctrl(armed_config());
  Epochs epochs(ctrl);
  // Exactly enter_pressure (2 events over 100 grants = 0.02) qualifies, but
  // one qualifying epoch is not enough: enter_epochs = 2.
  epochs.run(100, 2);
  EXPECT_EQ(ctrl.tier(), 0u);
  epochs.run(100, 2);
  EXPECT_EQ(ctrl.tier(), 1u);
  EXPECT_EQ(ctrl.transitions(), 1u);
}

TEST(AdmissionLadder, DeadBandResetsBothStreaks) {
  AdmissionController ctrl(armed_config());
  Epochs epochs(ctrl);
  // One pressured epoch, then a dead-band epoch (0.01 sits strictly between
  // exit 0.005 and enter 0.02): the escalation streak must restart.
  epochs.run(100, 2);
  epochs.run(100, 1);
  epochs.run(100, 2);
  EXPECT_EQ(ctrl.tier(), 0u) << "dead band must reset the enter streak";
  epochs.run(100, 2);
  EXPECT_EQ(ctrl.tier(), 1u);

  // Same on the way down: three calm epochs, a dead-band epoch, then the
  // calm streak must need its full exit_epochs again.
  epochs.run(100, 0);
  epochs.run(100, 0);
  epochs.run(100, 0);
  epochs.run(100, 1);
  epochs.run(100, 0);
  epochs.run(100, 0);
  epochs.run(100, 0);
  EXPECT_EQ(ctrl.tier(), 1u) << "dead band must reset the exit streak";
  epochs.run(100, 0);
  EXPECT_EQ(ctrl.tier(), 0u);
}

TEST(AdmissionLadder, ExitThresholdIsInclusiveAndSlowerThanEntry) {
  AdmissionConfig config = armed_config();
  AdmissionController ctrl(config);
  Epochs epochs(ctrl);
  epochs.run(100, 2);
  epochs.run(100, 2);
  ASSERT_EQ(ctrl.tier(), 1u);
  // Exactly exit_pressure (1 event over 200 grants = 0.005) counts as calm;
  // descent still takes exit_epochs = 4 consecutive calm epochs.
  for (int e = 0; e < 3; ++e) {
    epochs.run(200, 1);
    EXPECT_EQ(ctrl.tier(), 1u);
  }
  epochs.run(200, 1);
  EXPECT_EQ(ctrl.tier(), 0u);
  EXPECT_EQ(ctrl.transitions(), 2u);
}

TEST(AdmissionLadder, WalksOneTierPerBarrierAndDegradeEdgeFiresOnce) {
  AdmissionConfig config = armed_config();
  config.enter_epochs = 1;
  AdmissionController ctrl(config);
  Epochs epochs(ctrl);
  // Sustained saturation walks the ladder strictly one tier per barrier —
  // no oscillation or multi-step jumps within an epoch — and the
  // board-degrade edge fires exactly when tier 4 is entered, never again.
  const unsigned expected_tiers[] = {1, 2, 3, 4, 4, 4};
  for (unsigned i = 0; i < 6; ++i) {
    const bool degrade_edge = epochs.run(100, 50);
    EXPECT_EQ(ctrl.tier(), expected_tiers[i]) << "epoch " << i;
    EXPECT_EQ(degrade_edge, expected_tiers[i] == 4 &&
                                (i == 0 || expected_tiers[i - 1] != 4))
        << "epoch " << i;
  }
  EXPECT_EQ(ctrl.peak_tier(), AdmissionController::kTopTier);
  EXPECT_EQ(ctrl.transitions(), 4u);
  EXPECT_STREQ(AdmissionController::tier_name(0), "full");
  EXPECT_STREQ(AdmissionController::tier_name(1), "thinned");
  EXPECT_STREQ(AdmissionController::tier_name(2), "frozen");
  EXPECT_STREQ(AdmissionController::tier_name(3), "isolated");
  EXPECT_STREQ(AdmissionController::tier_name(4), "degraded");
}

TEST(AdmissionLadder, ThinningIsDeterministicWholeFlowAndProportional) {
  AdmissionController ctrl(armed_config());
  // Whole-flow: the decision is a pure function of the flow hash.
  for (std::uint64_t h : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    EXPECT_EQ(ctrl.thinned(h), ctrl.thinned(h));
  }
  // Proportional: about thin_fraction of a large hash sample sheds.
  std::uint64_t shed = 0;
  const std::uint64_t n = 20000;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (ctrl.thinned(i * 0x9e3779b97f4a7c15ULL + 7)) ++shed;
  }
  const double fraction = static_cast<double>(shed) / static_cast<double>(n);
  EXPECT_NEAR(fraction, 0.5, 0.03);

  AdmissionConfig none = armed_config();
  none.thin_fraction = 0.0;
  AdmissionConfig all = armed_config();
  all.thin_fraction = 1.0;
  AdmissionController ctrl_none(none);
  AdmissionController ctrl_all(all);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(ctrl_none.thinned(i));
    EXPECT_TRUE(ctrl_all.thinned(i));
  }
}

TEST(AdmissionLadder, FreezeStampsFlowsBornFrozenOnly) {
  AdmissionConfig config = armed_config();
  config.enter_epochs = 1;
  config.thin_fraction = 0.0;  // isolate the freeze tier
  AdmissionController ctrl(config);
  Epochs epochs(ctrl);
  ctrl.on_new_flow(3);  // born at tier 0: never frozen
  epochs.run(100, 50);
  epochs.run(100, 50);
  ASSERT_EQ(ctrl.tier(), 2u);

  // Established flow keeps full inference at tier 2.
  EXPECT_TRUE(ctrl.on_grant(0, 42, /*slot=*/3, 0x0a000001u));
  ctrl.note_admitted(0);
  // A flow born while frozen never gets mirrors.
  ctrl.on_new_flow(5);
  EXPECT_FALSE(ctrl.on_grant(0, 43, /*slot=*/5, 0x0a000001u));
  EXPECT_EQ(ctrl.totals().shed_frozen, 1u);

  // Recycling the slot after the ladder descends clears the stamp — an
  // evicted-then-readmitted flow is a fresh, unfrozen flow.
  for (int e = 0; e < 8; ++e) epochs.run(100, 0);
  ASSERT_LT(ctrl.tier(), 2u);
  ctrl.on_new_flow(5);
  EXPECT_TRUE(ctrl.on_grant(0, 44, /*slot=*/5, 0x0a000001u));
}

TEST(AdmissionLadder, VictimPinRequiresShareAndCount) {
  AdmissionConfig config = armed_config();
  config.enter_epochs = 1;
  config.thin_fraction = 0.0;
  config.table_slots = 0;
  AdmissionController ctrl(config);
  Epochs epochs(ctrl);
  epochs.run(100, 50, trafficgen::kScenarioVictimIp);  // tier 1
  epochs.run(100, 50, trafficgen::kScenarioVictimIp);  // tier 2
  epochs.run(100, 50, trafficgen::kScenarioVictimIp);  // tier 3, vote folded
  ASSERT_EQ(ctrl.tier(), 3u);
  ASSERT_TRUE(ctrl.victim_pinned());
  EXPECT_EQ(ctrl.victim_ip(), trafficgen::kScenarioVictimIp);

  // Victim traffic sheds to the TCAM fallback; bystanders keep inference.
  EXPECT_FALSE(ctrl.on_grant(0, 1, 0, trafficgen::kScenarioVictimIp));
  EXPECT_TRUE(ctrl.on_grant(0, 2, 0, 0x0a000002u));
  EXPECT_EQ(ctrl.totals().shed_isolated, 1u);

  // A diffuse overload (every grant a different destination) has no
  // qualifying majority: tier 3 is entered but isolates nobody.
  AdmissionController diffuse(config);
  Epochs diffuse_epochs(diffuse);
  for (int e = 0; e < 3; ++e) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      diffuse.on_grant(0, i, 0, static_cast<std::uint32_t>(0x0a000000u + i));
    }
    diffuse.observe_lane(0, static_cast<std::uint64_t>(50 * (e + 1)), 0);
    diffuse.reconcile(sim::milliseconds(e + 1));
  }
  ASSERT_EQ(diffuse.tier(), 3u);
  EXPECT_FALSE(diffuse.victim_pinned());
}

TEST(AdmissionLadder, AttributionPrecedenceIsolateOverFreezeOverThin) {
  AdmissionConfig config = armed_config();
  config.enter_epochs = 1;
  config.thin_fraction = 1.0;  // every flow hash is thinnable
  AdmissionController ctrl(config);
  Epochs epochs(ctrl);
  for (int e = 0; e < 3; ++e) epochs.run(100, 50, trafficgen::kScenarioVictimIp);
  ASSERT_EQ(ctrl.tier(), 3u);
  ASSERT_TRUE(ctrl.victim_pinned());
  ctrl.on_new_flow(7);  // frozen (tier >= 2)

  const RunCounters before = ctrl.totals();
  // Victim + frozen + thinnable: charged to isolation only.
  EXPECT_FALSE(ctrl.on_grant(0, 9, 7, trafficgen::kScenarioVictimIp));
  // Frozen + thinnable bystander: charged to the freeze.
  EXPECT_FALSE(ctrl.on_grant(0, 9, 7, 0x0a000002u));
  // Thinnable bystander in a never-frozen slot: charged to the thinning.
  EXPECT_FALSE(ctrl.on_grant(0, 9, 63, 0x0a000002u));
  const RunCounters after = ctrl.totals();
  EXPECT_EQ(after.shed_isolated - before.shed_isolated, 1u);
  EXPECT_EQ(after.shed_frozen - before.shed_frozen, 1u);
  EXPECT_EQ(after.shed_thinned - before.shed_thinned, 1u);
  // Conservation at the unit level: every offered grant is accounted.
  EXPECT_EQ(after.admission_offered,
            after.admission_admitted + after.shed_thinned + after.shed_frozen +
                after.shed_isolated);
}

// ---------------------------------------------------------------------------
// End-to-end: conservation + bit-identity through real ladder transitions.
// ---------------------------------------------------------------------------

struct E2eWorkload {
  net::Trace trace;
  std::unique_ptr<nn::QuantizedCnn> quantized;
  std::size_t num_classes = 0;
};

/// Scaled ddos_flood with a tiny trained CNN — small enough for a fast test,
/// hot enough (with the aggressive thresholds below) to walk the ladder.
E2eWorkload make_e2e_workload() {
  const auto profile = trafficgen::DatasetProfile::iscx_vpn();
  trafficgen::SynthesisConfig synth;
  synth.total_flows = 60;
  synth.seed = 5;
  const auto flows = trafficgen::synthesize_flows(profile, synth);
  nn::CnnConfig cnn;
  cnn.conv_channels = {8};
  cnn.fc_dims = {16};
  cnn.num_classes = profile.num_classes();
  nn::CnnClassifier model(cnn, 11);
  const auto samples = trafficgen::make_packet_samples(flows, 9, 6, 3);
  nn::TrainOptions opts;
  opts.epochs = 1;
  model.fit(samples, opts);

  E2eWorkload work;
  work.num_classes = profile.num_classes();
  work.quantized = std::make_unique<nn::QuantizedCnn>(model, samples);
  trafficgen::ScenarioConfig scenario = trafficgen::scenario_preset("ddos_flood");
  scenario.flows = 2000;
  scenario.offered_pps = 25000.0;
  scenario.num_classes = static_cast<std::uint16_t>(work.num_classes);
  trafficgen::ScenarioSource source(scenario);
  work.trace = net::materialize(source);
  return work;
}

/// The chaos tool's overloaded-system shape: slow engine, generous bucket,
/// hair-trigger ladder.
FenixSystemConfig e2e_config() {
  FenixSystemConfig config;
  config.data_engine.tracker.index_bits = 12;
  config.data_engine.window_tw = sim::milliseconds(20);
  config.data_engine.fpga_inference_rate_hz = 3e6;
  config.model_engine.ii_override_cycles = 90000;
  config.recovery.result_deadline = sim::microseconds(2500);
  config.admission.enabled = true;
  config.admission.enter_epochs = 1;
  config.admission.exit_epochs = 2;
  config.admission.victim_min_count = 8;
  return config;
}

std::uint64_t count_labeled_flows(const net::Trace& trace,
                                  std::size_t num_classes) {
  std::uint64_t labeled = 0;
  for (const net::FlowRecord& f : trace.flows) {
    if (f.label >= 0 && static_cast<std::size_t>(f.label) < num_classes) {
      ++labeled;
    }
  }
  return labeled;
}

void check_standard_invariants(const RunReport& report,
                               const FenixSystem& system,
                               const FenixSystemConfig& config,
                               std::uint64_t trace_packets,
                               std::uint64_t labeled_flows) {
  const net::ReliableLinkStats to_stats = system.link_stats_to_fpga();
  const net::ReliableLinkStats from_stats = system.link_stats_from_fpga();
  InvariantContext ctx{report};
  ctx.trace_packets = trace_packets;
  ctx.trace_flows = labeled_flows;
  ctx.to_link = &to_stats;
  ctx.from_link = &from_stats;
  ctx.reorder_window = config.link.reorder_window;
  ctx.link_max_retransmits = config.link.max_retransmits;
  ctx.replay_max_retransmits = config.recovery.max_retransmits;
  ctx.admission_tracking = true;
  const auto violations = InvariantRegistry::standard().check(ctx);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.name << ": " << v.detail;
  }
}

TEST(AdmissionE2e, ConservationAndBitIdentityThroughLadderUnderFaults) {
  const E2eWorkload work = make_e2e_workload();
  const FenixSystemConfig config = e2e_config();
  // Compound fault schedule racing the flood: stalls, brownouts, FIFO
  // shrinks and chaos mutators, same generator the chaos soak uses.
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::random(0xF10D, work.trace.duration(), 6);

  FenixSystem serial(config, work.quantized.get(), nullptr);
  faults::FaultInjector serial_injector(schedule, serial);
  const RunReport reference =
      serial.run(work.trace, work.num_classes, &serial_injector);
  ASSERT_GT(reference.packets, 0u);
  // The point of the test: the ladder genuinely moved, sheds were taken, and
  // still every grant is accounted for.
  EXPECT_GT(reference.admission_transitions, 0u);
  EXPECT_GT(reference.shed_thinned + reference.shed_frozen +
                reference.shed_isolated,
            0u);
  const std::uint64_t labeled =
      count_labeled_flows(work.trace, work.num_classes);
  check_standard_invariants(reference, serial, config,
                            work.trace.packets.size(), labeled);

  for (std::size_t pipes : {1u, 2u, 4u, 8u}) {
    PipelineOptions opts;
    opts.pipes = pipes;
    FenixSystem sharded(config, work.quantized.get(), nullptr);
    faults::FaultInjector injector(schedule, sharded);
    const RunReport pipelined = sharded.run_pipelined(
        work.trace, work.num_classes, &injector, {}, opts);
    const auto div = first_divergence(reference, pipelined);
    EXPECT_EQ(div, std::nullopt)
        << "pipes=" << pipes << ": " << div.value_or("");
    check_standard_invariants(pipelined, sharded, config,
                              work.trace.packets.size(), labeled);
  }
}

// ---------------------------------------------------------------------------
// Satellite: flow-table collision eviction under churn, inside a real replay.
// ---------------------------------------------------------------------------

TEST(AdmissionE2e, MatchTableEvictionChurnReAdmitsCleanly) {
  // A churny scenario (short flow lifetime => the active set turns over many
  // times) replayed through the full system; the same packet stream then
  // drives an ExactMatchTable sized far below the flow count with the
  // collision-eviction policy — the switch-side flow table the TCAM fallback
  // depends on. Evicted flows must re-admit cleanly: a later packet of an
  // evicted flow misses, re-inserts, and hits again.
  const E2eWorkload work = [] {
    E2eWorkload w = make_e2e_workload();
    trafficgen::ScenarioConfig scenario =
        trafficgen::scenario_preset("heavy_tailed");
    scenario.flows = 3000;
    scenario.offered_pps = 25000.0;
    scenario.flow_lifetime = sim::milliseconds(30);
    scenario.num_classes = static_cast<std::uint16_t>(w.num_classes);
    trafficgen::ScenarioSource source(scenario);
    w.trace = net::materialize(source);
    return w;
  }();

  const FenixSystemConfig config = e2e_config();
  FenixSystem system(config, work.quantized.get(), nullptr);
  const RunReport report = system.run(work.trace, work.num_classes);
  ASSERT_GT(report.packets, 0u);

  switchsim::ResourceLedger ledger(switchsim::ChipProfile::tofino2());
  switchsim::ExactMatchTable table(ledger, "flow_table", /*stage=*/1,
                                   /*capacity=*/512, /*key_bits=*/64,
                                   /*action_data_bits=*/32);
  table.set_eviction(switchsim::EvictionPolicy::kEvictCollision);

  std::unordered_map<std::uint64_t, bool> seen;  // key -> ever inserted
  std::uint64_t readmits = 0;
  for (const auto& pkt : work.trace.packets) {
    const std::uint64_t key = net::flow_hash32(pkt.tuple);
    if (table.lookup(key).has_value()) continue;
    const auto it = seen.find(key);
    const bool was_evicted = it != seen.end();
    ASSERT_TRUE(table.insert(key, {/*action_id=*/1, /*action_data=*/key}))
        << "collision eviction must always make room";
    ASSERT_TRUE(table.lookup(key).has_value())
        << "fresh insert must be immediately visible";
    if (was_evicted) ++readmits;
    seen.emplace(key, true);
  }
  EXPECT_GT(table.evictions(), 0u)
      << "capacity 512 << 3000 flows must collide";
  EXPECT_GT(readmits, 0u) << "evicted flows must re-admit cleanly";
  EXPECT_LE(table.size(), table.capacity());
  EXPECT_LE(table.max_probe_length(), table.capacity());
}

}  // namespace
}  // namespace fenix::core
