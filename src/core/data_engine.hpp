// The Data Engine (§4): Flow Tracker + Rate Limiter + Buffer Manager on the
// programmable switch, orchestrated per packet.
//
// Per packet the engine (1) updates the Flow Info Table, (2) computes the
// packet's feature (length + IPD) and appends it to the flow's ring buffer,
// (3) consults the probabilistic token bucket to decide whether to mirror the
// flow's feature sequence to the Model Engine, and (4) produces a forwarding
// classification — the cached Model Engine verdict when present, otherwise
// the lightweight preliminary decision tree compiled into TCAM (§4.1).
//
// The control plane (control_plane_tick) runs once per window T_w: it reads
// and resets the flow/packet counters, recomputes the traffic statistics
// (N, Q), and rebuilds the probability lookup table (§4.2).
//
// This is the only implementation of the per-packet switch stages; both
// replay drivers run it (FenixSystem::run_pipelined, DESIGN.md §4.9). Every
// register, counter, token sub-bucket and mirror buffer belongs to one
// coordination lane, so on_packet() and deliver_result() may run
// concurrently for packets and results of *different* lanes. Between epoch
// barriers they read only state published at a barrier: the probability
// table, the watchdog's degraded flag, the admission tier, and the window
// epoch. epoch_reconcile(), control_plane_tick() and
// install_preliminary_tree() are barrier-only.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/admission_controller.hpp"
#include "core/buffer_manager.hpp"
#include "core/flow_tracker.hpp"
#include "core/health_watchdog.hpp"
#include "core/lane_coordination.hpp"
#include "core/probability_model.hpp"
#include "core/token_bucket.hpp"
#include "core/tree_compiler.hpp"
#include "net/packet.hpp"
#include "switchsim/chip.hpp"
#include "switchsim/match_table.hpp"
#include "switchsim/pipeline.hpp"
#include "telemetry/rate_meter.hpp"

namespace fenix::core {

struct DataEngineConfig {
  switchsim::ChipProfile chip = switchsim::ChipProfile::tofino2();
  FlowTrackerConfig tracker;

  // Rate Limiter: hardware constants of Eq. 1. F <= 0 means "derive":
  // FenixSystem substitutes the bound Model Engine's sustained rate; a
  // standalone DataEngine falls back to the paper's 75 Mpps figure.
  double fpga_inference_rate_hz = 0.0;
  double channel_bandwidth_bps = 100e9;   ///< B: one 100G port channel.
  double feature_vector_bits = 8.0 * (13 + 4 * 9 + 16);  ///< W (wire bytes * 8).
  double bucket_capacity_tokens = 64;     ///< Capped to the FPGA queue depth.
  std::uint64_t bucket_seed = 0xfe41;

  // Probability lookup table resolution (control-plane discretization).
  // Both axes are log-bucketed by default: the data plane derives the cell
  // from the counter's leading-one position, keeping resolution where the
  // probability ramp lives.
  std::size_t prob_t_cells = 64;
  std::size_t prob_c_cells = 64;
  double prob_t_max_s = 0.2;
  double prob_c_max = 4096;
  bool prob_log_scale_c = true;
  bool prob_log_scale_t = true;

  sim::SimDuration window_tw = sim::milliseconds(50);

  /// FPGA health watchdog thresholds (§ Failure semantics in DESIGN.md).
  HealthWatchdogConfig watchdog;

  /// While the watchdog is degraded only every k-th Rate Limiter grant is
  /// actually mirrored — enough of a heartbeat probe stream to detect
  /// recovery without wasting PCB bandwidth on a card that is down.
  unsigned degraded_probe_stride = 16;

  /// EWMA smoothing factor for the per-window N and Q estimates (1.0 = use
  /// raw window counts). Smoothing keeps one quiet or bursty window from
  /// whipsawing the probability table.
  double stats_ewma_alpha = 0.4;

  /// Initial traffic statistics before the first control-plane refresh.
  double initial_flow_count = 1000;
  double initial_packet_rate = 1e6;
};

/// Result of one data-plane packet pass.
struct DataEngineOutput {
  FlowState flow;
  /// Class driving the forwarding action. For a cached DNN verdict this is
  /// flow.verdict read as a class, which is exact when verdicts are
  /// delivered as classes; replays resolve flow.verdict through their
  /// inference stage instead.
  std::int16_t forward_class = -1;
  bool from_model_engine = false;   ///< True when flow.verdict drives forwarding.
  bool from_fallback_tree = false;  ///< True when the compiled tree supplied it.
  /// Set on a Rate Limiter grant. Points into the lane's DataEngine-owned
  /// assembly buffer, valid until the next on_packet() of the same lane —
  /// the hot replay loop consumes (or copies) it immediately, so no
  /// per-packet FeatureVector allocation happens on the granted path.
  const net::FeatureVector* mirrored = nullptr;
};

class DataEngine {
 public:
  /// Throws std::invalid_argument for a zero-depth feature ring.
  explicit DataEngine(const DataEngineConfig& config);

  /// Data-plane processing of one packet.
  DataEngineOutput on_packet(const net::PacketRecord& packet) {
    return on_packet(packet,
                     net::flow_index(packet.tuple, config_.tracker.index_bits));
  }

  /// on_packet() for a caller that already hashed the packet to its
  /// flow-table slot (the replay coordinator does, to pick the pipe).
  DataEngineOutput on_packet(const net::PacketRecord& packet, std::uint32_t slot);

  /// Applies an inference result arriving back from the Model Engine and
  /// caches `symbol` as the flow's verdict. The heartbeat is buffered into
  /// the result's lane (derived from the tuple's flow-table slot) and folded
  /// into the watchdog at the next epoch_reconcile(). Returns false (stale)
  /// when the slot now belongs to another flow.
  bool deliver_result(const net::InferenceResult& result, VerdictSymbol symbol);

  /// deliver_result() of a class delivered directly (its own symbol).
  bool deliver_result(const net::InferenceResult& result) {
    return deliver_result(result, result.predicted_class);
  }

  /// Control-plane window maintenance at time `now`; call at least once per
  /// T_w (idempotent within a window).
  void control_plane_tick(sim::SimTime now);

  /// Epoch reconciliation (coordinator only, at a barrier): folds buffered
  /// watchdog events in canonical order, publishes the degraded flag the
  /// forwarding ladder reads, and rebalances the sharded token budget.
  void epoch_reconcile(sim::SimTime now) {
    watchdog_.reconcile();
    bucket_->reconcile(now);
  }

  /// Installs the preliminary per-packet decision tree (compiled to TCAM).
  /// The tree's features are (packet length, IPD code). `max_entries` caps
  /// the TCAM budget (0 = size to the compiled rule count); compilation
  /// installs rules in priority order and stops at the cap. The table is
  /// prepared for the read-only lookups concurrent lanes share.
  void install_preliminary_tree(const trees::DecisionTree& tree,
                                std::size_t max_entries = 0);

  // ---- accessors ----
  const switchsim::ResourceLedger& ledger() const { return ledger_; }
  const FlowTracker& tracker() const { return *tracker_; }
  const ShardedTokenBucket& bucket() const { return *bucket_; }
  const ProbabilityLookupTable& prob_table() const { return prob_table_; }
  const BufferManager& buffers() const { return *buffers_; }
  const switchsim::PipelineTiming& timing() const { return timing_; }
  double token_rate_v() const { return token_rate_v_; }
  /// The installed preliminary-classifier TCAM (nullptr before
  /// install_preliminary_tree). All lanes share this one table, as all
  /// pipes of a real switch share the compiled program.
  const switchsim::TernaryMatchTable* preliminary_table() const {
    return prelim_table_.get();
  }
  // Counters, summed over the lanes.
  std::uint64_t packets_seen() const {
    return sum_lanes(lanes_, &Lane::packets_seen);
  }
  std::uint64_t mirrors_sent() const {
    return sum_lanes(lanes_, &Lane::mirrors_sent);
  }
  std::uint64_t results_applied() const {
    return sum_lanes(lanes_, &Lane::results_applied);
  }
  std::uint64_t results_stale() const {
    return sum_lanes(lanes_, &Lane::results_stale);
  }
  std::uint64_t fallback_verdicts() const {
    return sum_lanes(lanes_, &Lane::fallback_verdicts);
  }
  std::uint64_t mirrors_suppressed() const {
    return sum_lanes(lanes_, &Lane::mirrors_suppressed);
  }

  /// Attaches a replay's overload-admission stage (nullptr = none, the
  /// standalone-DataEngine default). When set, every flow birth and every
  /// token-bucket grant is routed through it. The controller belongs to the
  /// run's ReplayCore, which attaches and detaches it.
  void set_admission(AdmissionController* admission) { admission_ = admission; }

  /// FPGA health watchdog, lane-buffered. deliver_result() buffers
  /// heartbeats; the replay core buffers missed result deadlines; the
  /// degradation ladder reads the flag published at epoch_reconcile().
  LaneWatchdog& watchdog() { return watchdog_; }
  const LaneWatchdog& watchdog() const { return watchdog_; }

 private:
  /// One coordination lane's IPD register (dense over its slots), mirror
  /// assembly buffer and counters.
  struct alignas(64) Lane {
    std::vector<std::uint32_t> last_orig_us;  ///< feature_last_t register.
    net::FeatureVector mirror_buf;
    std::uint64_t packets_seen = 0;
    std::uint64_t mirrors_sent = 0;
    std::uint64_t results_applied = 0;
    std::uint64_t results_stale = 0;
    std::uint64_t fallback_verdicts = 0;
    std::uint64_t mirrors_suppressed = 0;
    /// Grants seen while degraded (the probe stride counter).
    std::uint64_t degraded_grants = 0;
  };

  DataEngineConfig config_;
  switchsim::ResourceLedger ledger_;
  switchsim::PipelineTiming timing_;
  std::unique_ptr<FlowTracker> tracker_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<ShardedTokenBucket> bucket_;
  ProbabilityLookupTable prob_table_;
  double token_rate_v_;

  // Preliminary classifier TCAM (installed lazily).
  std::unique_ptr<switchsim::TernaryMatchTable> prelim_table_;
  FeatureLayout prelim_layout_;

  telemetry::RateMeter flow_rate_meter_{0.4};
  telemetry::RateMeter packet_rate_meter_{0.4};

  LaneWatchdog watchdog_;
  AdmissionController* admission_ = nullptr;
  std::vector<Lane> lanes_;  ///< kCoordinationLanes entries.

  sim::SimTime last_window_tick_ = 0;
};

}  // namespace fenix::core
