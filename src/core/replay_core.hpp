// Staged replay core shared by every trace-replay loop.
//
// FENIX's data plane is one per-packet dataflow — parse, flow-track /
// featurize, admission / mirror, inference, verdict accounting — and this
// file owns the stages around the Data Engine, exactly once. The core is
// *lane-granular* (DESIGN.md §4.9): all mutable per-packet state — the mirror
// transmit path (per-lane PCB link pair -> Model Engine lane port -> return
// link) with per-mirror result deadlines, MissEvent ordering, and the
// deterministic retransmit pacing bucket; the simulated-time event pump; and
// the deferred verdict / confusion / phase accounting — is sharded over the
// fixed core::kCoordinationLanes coordination lanes
// (core/lane_coordination.hpp), keyed by flow-table slot. A lane's state is
// touched only by the caller driving that lane's packets, so one thread
// walking all lanes and several pipe workers splitting them drive the exact
// same per-lane state machines and merge to bit-identical RunReports.
//
// The coordinator's only jobs are the epoch boundaries (reconcile(): fault
// hooks + an all-lane pump; close_epoch(): fold the records of two barriers
// back) and the final merge (resolve()). Verdicts flow through the
// accounting as opaque symbols — a predicted class is pure data that never
// feeds back into replay timing or RNG state — and resolve to classes two
// barriers after they were issued (confusion increments commute).
//
// FenixSystem::run_pipelined() is the one driver: it spreads the lanes over
// the fleet's pipes and calls the one InferenceStage (core/model_pool.hpp),
// which tokenizes each lane's mirrors into rows the lane owns and hands them
// to an InferenceBatcher in lane order between rounds; run() is its
// one-pipe, one-thread instantiation. The first_divergence() diagnostic
// pinpoints the first field where two reports differ.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/admission_controller.hpp"
#include "core/flow_tracker.hpp"
#include "core/lane_coordination.hpp"
#include "core/run_counters.hpp"
#include "net/feature.hpp"
#include "net/packet.hpp"
#include "net/reliable_link.hpp"
#include "sim/pacing_bucket.hpp"
#include "telemetry/latency.hpp"
#include "telemetry/metrics.hpp"

namespace fenix::net {
class PacketSource;
}

namespace fenix::lifecycle {
class LifecycleManager;
}

namespace fenix::core {

class DataEngine;
class InferenceStage;

/// Per-mirror deadline / retransmit / watchdog knobs.
struct RecoveryConfig {
  /// A mirror whose verdict has not come back `result_deadline` after it
  /// left the deparser is declared missed (watchdog signal + retransmit
  /// candidate). Healthy end-to-end latency is a few microseconds, so the
  /// default only fires on real loss or a stalled card.
  sim::SimDuration result_deadline = sim::microseconds(500);

  /// Retransmit attempts per original mirror (0 disables retransmission).
  unsigned max_retransmits = 1;

  /// Token bucket governing the aggregate retransmit rate, so a dead card
  /// cannot double the PCB channel load with futile repeats. Split evenly
  /// over the coordination lanes (rate / L per lane, burst / L each with a
  /// floor of one token) so pipe workers never share a pacer.
  double retransmit_rate_hz = 200e3;
  double retransmit_burst_tokens = 32;
};

/// Host-side observation hooks driven by the replay loop as simulated time
/// advances. Fault injectors (src/faults) implement this to arm and clear
/// their fault windows against the running system. Since the decentralized
/// coordinator, hooks fire at epoch-reconciliation boundaries (every
/// FenixSystemConfig::reconcile_quantum of trace time), not per packet.
struct RunHooks {
  virtual ~RunHooks() = default;
  /// Called with each epoch boundary's timestamp (monotonically
  /// non-decreasing).
  virtual void at_time(sim::SimTime now) { (void)now; }
};

/// A named time slice of a replay for phase-by-phase accounting
/// ([start, end) in simulated time; slices must be sorted and disjoint).
struct RunPhase {
  std::string name;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
};

/// Per-phase accounting of forwarding verdicts (the in-outage / recovery
/// accuracy numbers of the degradation bench).
struct PhaseReport {
  std::string name;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  telemetry::ConfusionMatrix packet_confusion;  ///< Forwarding class vs truth.
  std::uint64_t packets = 0;
  std::uint64_t dnn_verdicts = 0;   ///< Forwarded on a cached DNN verdict.
  std::uint64_t tree_verdicts = 0;  ///< Forwarded on the compiled tree.
  std::uint64_t unclassified = 0;   ///< No verdict source had an answer.

  PhaseReport(std::string name_, sim::SimTime start_, sim::SimTime end_,
              std::size_t num_classes)
      : name(std::move(name_)), start(start_), end(end_),
        packet_confusion(num_classes) {}
};

/// The latency recorders of one trace replay (the Figure 11 breakdown),
/// declared once. Each ReplayCore lane records into its own, and resolve()
/// absorbs them into the report in lane order.
struct RunLatencies {
  telemetry::LatencyRecorder internal_tx;  ///< Mirror deparser -> FPGA ingress.
  telemetry::LatencyRecorder queueing;     ///< FPGA ingress -> array start.
  telemetry::LatencyRecorder inference;    ///< Array compute (+ CDC crossings).
  telemetry::LatencyRecorder return_tx;    ///< FPGA egress -> switch.
  telemetry::LatencyRecorder end_to_end;   ///< Mirror emit -> verdict installed.
};

/// Calls `f(name, l.recorder...)` once per RunLatencies recorder, in
/// declaration order — the for_each_counter() of the recorders.
template <typename F, typename... Latencies>
constexpr void for_each_latency(F&& f, Latencies&... l) {
  f("internal_tx", l.internal_tx...);
  f("queueing", l.queueing...);
  f("inference", l.inference...);
  f("return_tx", l.return_tx...);
  f("end_to_end", l.end_to_end...);
}

/// Number of for_each_latency() entries (a walk over no reports).
constexpr std::size_t run_latency_count() {
  std::size_t n = 0;
  for_each_latency([&n](const char*) { ++n; });
  return n;
}

// A recorder without a visitor line fails the build here.
static_assert(sizeof(RunLatencies) ==
                  run_latency_count() * sizeof(telemetry::LatencyRecorder),
              "every RunLatencies recorder needs a for_each_latency() entry");

/// Aggregate measurements of one trace replay: the counters and latency
/// recorders plus the confusion matrices, precision tier and phases.
struct RunReport : RunCounters, RunLatencies {
  telemetry::ConfusionMatrix packet_confusion;    ///< Forwarding class vs truth.
  telemetry::ConfusionMatrix inference_confusion; ///< DNN verdicts vs truth.
  telemetry::ConfusionMatrix flow_confusion;      ///< Final per-flow verdict vs truth
                                                  ///< (flows never inferred = miss).

  /// Precision tier the Model Engine served this run ("fp32" / "int8" /
  /// "int4" / "ternary"). Part of the bit-identity contract: every pipe count
  /// reports the same precision.
  std::string precision = "int8";

  std::vector<PhaseReport> phases;  ///< Populated when run() was given phases.

  explicit RunReport(std::size_t num_classes)
      : packet_confusion(num_classes), inference_confusion(num_classes),
        flow_confusion(num_classes) {}

  /// Drop-attribution residual: every mirror (plus every retransmit) must
  /// end as exactly one of channel loss, engine FIFO drop, stale-epoch drop,
  /// or applied / stale result. Nonzero means a drop path went untracked.
  std::uint64_t drop_unattributed() const;

  /// Shed-conservation residual: every Rate Limiter grant offered to the
  /// admission stage is admitted as a mirror, shed by one ladder tier, or
  /// suppressed by the degraded probe stride. Nonzero means a shed path went
  /// untracked.
  std::uint64_t shed_unattributed() const;
};

/// Timing/recovery knobs of a ReplayCore, copied out of the owning system.
struct ReplayCoreConfig {
  RecoveryConfig recovery;
  sim::SimDuration transit_latency = 0;  ///< Packet ingress -> mirror deparsed.
  sim::SimDuration pass_latency = 0;     ///< Result ingress -> verdict installed.
  /// Overload-shedding ladder knobs; accounting runs even when disabled.
  AdmissionConfig admission;
};

/// One ReliableLink endpoint per coordination lane, per direction.
using LaneLinks = std::array<net::ReliableLink*, kCoordinationLanes>;

/// The per-packet stage driver, lane-granular. A replay loop constructs one
/// ReplayCore per run and calls, for every packet in trace order (lane =
/// lane_of_slot(flow-table slot); only one thread may drive a given lane
/// between reconcile() calls):
///
///   reconcile(ts)                       // at epoch boundaries: hooks + all-lane pump
///   close_epoch()                       // after the barrier's other work
///   begin_packet(ts, lane)              // lane event pump
///   DataEngine::on_packet(packet, hash) // flow tracking / admission
///   account_packet(ts, truth, ..., lane)// deferred outcome capture
///   emit_mirror(vec, ts, lane)          // granted mirrors only
///
/// then a final reconcile(trace_end), `drain(trace_end)`, the compute
/// barrier (InferenceStage::finish), and `resolve()` to
/// merge the lanes and materialize symbolic verdicts into the final
/// RunReport.
class ReplayCore {
 public:
  /// Sizes per-flow verdict state from the source's flow metadata and its
  /// packet/duration hints; the core never pulls packets itself — the driver
  /// streams them in and feeds each one through the staged calls below.
  /// Delivered verdicts land in `data_engine`'s Flow Info Table, deadline
  /// misses in its watchdog, and the core's admission stage is attached to
  /// it for the core's lifetime.
  ReplayCore(const net::PacketSource& source, std::size_t num_classes,
             const std::vector<RunPhase>& phases, const ReplayCoreConfig& config,
             const LaneLinks& to_fpga, const LaneLinks& from_fpga,
             DataEngine& data_engine, InferenceStage& inference,
             RunHooks* hooks);
  ~ReplayCore();

  ReplayCore(const ReplayCore&) = delete;
  ReplayCore& operator=(const ReplayCore&) = delete;

  /// Epoch boundary (coordinator only): drives fault hooks at `now`, then
  /// drains every lane's due events in lane order.
  void reconcile(sim::SimTime now);

  /// Advances `lane` to `now`: drains the lane's result deliveries and
  /// deadline misses due by `now` in simulated-time order.
  void begin_packet(sim::SimTime now, std::size_t lane);

  /// Books one forwarded packet on `lane`: the outcome (truth, verdict
  /// source, phase slice) is captured per lane and folded into the
  /// confusion matrices two barriers later, so accounting never contends.
  void account_packet(sim::SimTime now, net::ClassLabel truth,
                      std::int16_t forward_class, bool from_engine,
                      VerdictSymbol engine_symbol, bool from_tree,
                      std::size_t lane);

  /// Ships one granted mirror on `lane`: deparser transit, the lane's PCB
  /// link pair, inference lane port, deadline scheduling.
  void emit_mirror(const net::FeatureVector& vec, sim::SimTime packet_ts,
                   std::size_t lane);

  /// Epoch barrier (coordinator only), after reconcile() and the Data
  /// Engine's barrier work: seals the records since the last call, settles
  /// the symbols of two barriers back (InferenceStage::close_epoch) and
  /// folds the records sealed then, reusing their buffers.
  void close_epoch();

  /// End of trace: drains the remaining events of every lane (late verdicts
  /// still count; final misses reach the watchdog) and closes the watchdog
  /// accounting.
  void drain(sim::SimTime trace_end);

  /// Folds the records of the last two epochs and the tail, adds up the
  /// partial reports — every lane's counters and latency recorders in lane
  /// order, the admission ladder's and the lifecycle manager's counters —
  /// sums the link deltas, and copies the Data Engine's packet, mirror,
  /// result, degraded-mode and watchdog counters into the report, which it
  /// returns. Call once, after the driver's compute barrier.
  RunReport resolve();

  /// Most outcome and applied-verdict records held at any close_epoch().
  std::size_t peak_open_records() const { return peak_open_records_; }

  /// Attaches the model-lifecycle manager (nullptr = none). Set before the
  /// first packet; the manager outlives resolve().
  void set_lifecycle(lifecycle::LifecycleManager* m) { lifecycle_ = m; }

  /// Records the measured first-to-last-packet span. Streaming drivers call
  /// this once the stream is exhausted (the construction-time value is only
  /// the source's hint), before the tail reconcile/drain.
  void set_trace_duration(sim::SimDuration duration) {
    report_.trace_duration = duration;
  }

 private:
  struct PendingResult {
    sim::SimTime delivered_at;
    net::InferenceResult result;
    sim::SimTime mirror_emitted;
    VerdictSymbol symbol = kNoVerdict;
    /// Return-path frame epoch; a reboot between stamp and delivery makes
    /// the verdict stale (discarded, and the deadline miss fires instead).
    std::uint16_t epoch = 0;
    /// Carried so a stale-epoch discard can still retransmit the mirror.
    net::FeatureVector vec;
    unsigned retries_left = 0;

    bool operator>(const PendingResult& other) const {
      return delivered_at > other.delivered_at;
    }
  };

  /// A mirror whose verdict will not be back by its deadline: fires the
  /// watchdog and (retry budget + token bucket permitting) a retransmit.
  /// `seq` makes heap ordering total, so identical runs pop identical orders.
  struct MissEvent {
    sim::SimTime at;
    std::uint64_t seq;
    net::FeatureVector vec;
    unsigned retries_left;

    bool operator>(const MissEvent& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  /// One packet's verdict-accounting outcome, captured lane-locally and
  /// folded two barriers later. `phase` is -1 outside every phase slice.
  struct PacketOutcome {
    net::ClassLabel label;
    std::int16_t forward_class;
    VerdictSymbol symbol;
    std::int32_t phase;
    bool from_engine;
    bool from_tree;
  };

  /// An engine verdict applied to a flow, carried symbolically until folded.
  struct AppliedVerdict {
    std::uint32_t flow;
    VerdictSymbol symbol;
  };

  /// One lane's records of one epoch.
  struct EpochRecords {
    std::vector<PacketOutcome> outcomes;
    std::vector<AppliedVerdict> applied;
  };

  /// Everything one coordination lane owns, its partial report included.
  /// Touched by exactly one thread between reconcile() barriers; folded and
  /// merged by the coordinator.
  struct alignas(64) LaneState : RunCounters, RunLatencies {
    LaneState(net::ReliableLink* to, net::ReliableLink* from,
              double rtx_rate_hz, double rtx_burst);

    net::ReliableLink* to_fpga;
    net::ReliableLink* from_fpga;
    /// Link counters at construction: the links outlive a single run, so the
    /// report carries this run's deltas.
    net::ReliableLinkStats to_start;
    net::ReliableLinkStats from_start;

    /// Min-heaps (std::push_heap / std::pop_heap with std::greater<>).
    std::vector<PendingResult> pending;
    std::vector<MissEvent> misses;
    std::uint64_t miss_seq = 0;
    /// Deadline-driven mirror retransmits (distinct from the links' own
    /// NACK-paced frame repairs); this lane's slice of the pacing budget.
    sim::PacingBucket rtx_bucket;

    std::size_t phase_idx = 0;  ///< Monotone per lane: lane packets are in trace order.
    /// records[open_] is open; the others were sealed at the last barriers.
    std::array<EpochRecords, 3> records;
  };

  void send_vector(const net::FeatureVector& vec, sim::SimTime emitted,
                   unsigned retries_left, std::size_t lane);
  void deliver_one(std::size_t lane);
  void miss_one(std::size_t lane);
  void pump(sim::SimTime now, bool everything, std::size_t lane);
  /// Books `records` into the report and empties them; every symbol they
  /// carry must be settled.
  void fold(EpochRecords& records);

  ReplayCoreConfig config_;
  /// The overload-admission stage (between begin_packet and emit_mirror):
  /// the Data Engine routes every token-bucket grant through on_grant and
  /// every flow birth through on_new_flow; the ladder fold runs inside
  /// reconcile(), so tier changes are epoch-barrier-published.
  AdmissionController admission_;
  DataEngine& data_engine_;
  InferenceStage& inference_;
  RunHooks* hooks_;
  lifecycle::LifecycleManager* lifecycle_ = nullptr;

  RunReport report_;
  std::vector<LaneState> lanes_;  ///< kCoordinationLanes entries.
  std::size_t open_ = 0;  ///< LaneState::records index being written.
  std::size_t peak_open_records_ = 0;

  /// Flow-id -> truth label for inference accuracy accounting, plus the
  /// class of the last verdict each folded epoch applied to the flow, -1
  /// for none (flow-level macro-F1, Figure 10).
  std::vector<net::ClassLabel> flow_labels_;
  std::vector<std::int16_t> flow_class_;
};

/// Human-readable description of the first field where two run reports
/// differ — "field[indices]: <a-value> vs <b-value>" — walking every counter,
/// confusion cell, latency-recorder statistic (count / mean / min / max /
/// percentile grid), watchdog stat, and per-phase field in a fixed order.
/// nullopt when the reports are bit-identical. The sharded-replay tests and
/// the bench gate print this when the bit-identity contract breaks, so the
/// failure names the first divergent quantity instead of a bare bool.
std::optional<std::string> first_divergence(const RunReport& a,
                                            const RunReport& b);

/// Structural equality of two run reports: every counter, every confusion
/// cell, the latency recorders (count / sum via mean / min / max / percentile
/// grid), watchdog stats, and per-phase accounting. The identity tests and
/// benches use this to assert replays are bit-identical across pipe, thread
/// and batch counts. Equivalent to !first_divergence(a, b).
bool run_reports_equal(const RunReport& a, const RunReport& b);

}  // namespace fenix::core
