// End-to-end FENIX system: Data Engine <-> PCB channels <-> Model Engine.
//
// Replays a trace through the switch data plane, ships mirrored feature
// vectors to the FPGA over the board-level 100G channel, runs inference, and
// returns verdicts to the Flow Info Table. Produces the measurements behind
// Figure 10 (accuracy under scale) and Figure 11 (latency breakdown):
// per-packet forwarding classifications, and internal-transmission /
// inference / return-path latency distributions.
//
// Since the decentralized coordinator (DESIGN.md §4.9) the switch<->FPGA
// fabric is lane-striped: the aggregate PCB bandwidth is split into
// core::kCoordinationLanes per-direction channel + reliable-link pairs, one
// per coordination lane, so pipe workers drive their lanes' links without a
// shared endpoint. run_pipelined() is the one replay driver: it spreads the
// lanes of the one Data Engine over pipe workers and reconciles cross-lane
// state (token budget, watchdog, fault hooks, control plane) on an epoch
// schedule — every `reconcile_quantum` of trace time — so its RunReport is
// bit-identical at every pipe, thread and batch count. run() is its one-pipe,
// one-thread instantiation.
//
// The replay is failure-aware (DESIGN.md § Failure semantics): every mirror
// carries a result deadline; deadlines missed feed the Data Engine's FPGA
// health watchdog and arm a token-bucket-governed retransmit of the stored
// feature vector. While the watchdog declares the card unhealthy the switch
// serves verdicts from its compiled decision tree and thins mirroring to a
// heartbeat probe stream, failing back to DNN service when results resume.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/data_engine.hpp"
#include "core/model_engine.hpp"
#include "core/replay_core.hpp"
#include "lifecycle/config.hpp"
#include "net/packet_source.hpp"
#include "runtime/mpsc_queue.hpp"
#include "sim/channel.hpp"
#include "telemetry/latency.hpp"
#include "telemetry/metrics.hpp"

namespace fenix::core {

struct FenixSystemConfig {
  /// data_engine.fpga_inference_rate_hz <= 0 derives F (Eq. 1) from the
  /// bound Model Engine's sustained inference rate — the deployment-correct
  /// setting, since the token rate V exists to protect exactly that engine.
  DataEngineConfig data_engine;
  ModelEngineConfig model_engine;

  /// Aggregate board-level bandwidth between the Tofino and the FPGA per
  /// direction (§6: multiple 100 Gbps channels). Striped evenly over the
  /// kCoordinationLanes per-lane channels.
  double pcb_channel_bps = 100e9;
  sim::SimDuration pcb_propagation = sim::nanoseconds(40);  ///< PCB trace flight.
  /// Frame loss rate on the PCB channels (failure injection: signal-integrity
  /// faults drop CRC-failing frames). 0 = healthy board. Applied to every
  /// lane; each lane draws from its own decorrelated RNG stream.
  double pcb_loss_rate = 0.0;

  /// Reliable framing over the PCB channels (net/reliable_link.hpp): reorder
  /// window, NACK-paced frame retransmits, epoch resync after FPGA reboot.
  /// The default (max_retransmits = 0) degenerates to the bare lossy channel.
  /// The NACK pacing budget is split evenly over the lanes (rate / L, burst
  /// / L with a floor of one token).
  net::ReliableLink::Config link;

  /// Deadline / retransmit / watchdog recovery behaviour
  /// (core/replay_core.hpp, threaded into the shared ReplayCore).
  RecoveryConfig recovery;

  /// Overload-admission ladder (core/admission_controller.hpp): hysteresis
  /// load shedding between the Rate Limiter grant and the mirror emission.
  /// Offered/admitted/shed accounting always runs (the shed-conservation
  /// invariant holds on every report); `admission.enabled` arms the ladder.
  /// table_slots is resolved from the flow tracker at run time.
  AdmissionConfig admission;

  /// Online model lifecycle (src/lifecycle/): configuring a shadow model
  /// enables shadow evaluation + drift monitoring, and optionally an
  /// epoch-tagged hot swap at promote_at with SLO-guarded automatic
  /// rollback. Disabled (all-default) runs are byte-for-byte unaffected.
  lifecycle::LifecycleConfig lifecycle;

  /// Epoch-reconciliation quantum of the decentralized coordinator: fault
  /// hooks, the cross-lane watchdog fold, token-budget rebalancing, and the
  /// control-plane window tick all run at trace-timestamp boundaries spaced
  /// by this quantum. Part of the replay semantics — the schedule is a pure
  /// function of the trace, identical at every pipe count.
  sim::SimDuration reconcile_quantum = sim::milliseconds(1);
};

/// Knobs of the multi-pipe sharded replay (run_pipelined).
struct PipelineOptions {
  /// Pipe shards the packet stream is partitioned into (flow-affine by
  /// coordination lane: pipe = lane % pipes, modeling Tofino 2's pipes).
  /// Capped at kCoordinationLanes.
  std::size_t pipes = 4;
  /// Inferences per batched Model Engine submission (predict_batch frame).
  std::size_t batch = 16;
  /// Threads that run the pipes and DNN batches, the calling coordinator
  /// included (the fleet starts threads − 1 workers); 0 picks
  /// runtime::ThreadPool::default_thread_count().
  std::size_t threads = 0;
};

/// What the last replay observed about its own coordination machinery
/// (satellite telemetry of the decentralized coordinator). Exported by
/// health_metrics().
struct PipelineTelemetry {
  std::size_t pipes = 0;
  std::uint64_t epochs = 0;  ///< Reconciliation barriers executed.
  /// Peak per-epoch packet backlog each pipe worker drained (index = pipe).
  std::vector<std::uint64_t> pipe_queue_peaks;
  /// The inference stage's row hand-off, in the fan-in counters' terms:
  /// `enqueues` (= `dequeues`) counts the rows handed to the batcher and
  /// `peak_size` the most one hand-off carried; `cas_retries` and
  /// `full_stalls` are 0, since no pipe shares a queue or waits for room.
  /// All are deterministic.
  runtime::MpscQueueStats fanin;
  /// Most inference batches alive at any barrier (before retiring).
  std::uint64_t peak_live_batches = 0;
  /// Most unfolded outcome and applied-verdict records at any barrier.
  std::uint64_t peak_open_records = 0;
  /// Host time, not results: seconds the fleet threads spent computing DNN
  /// batches (InferenceBatcher::compute, one clock pair per batch, summed
  /// over threads) and the coordinator spent inside the batcher's seal(),
  /// batches it computes while it waits included. They vary run to run,
  /// so first_divergence(), the golden digests and every identity check
  /// leave them out.
  double batch_compute_s = 0.0;
  double seal_wait_s = 0.0;
  /// The kernel rung the batches ran at (nn::kernels::active_isa()).
  nn::kernels::Isa kernel_isa = nn::kernels::Isa::kScalar;
};

class FenixSystem {
 public:
  /// Binds the system to one quantized model (exactly one non-null).
  FenixSystem(const FenixSystemConfig& config, const nn::QuantizedCnn* cnn,
              const nn::QuantizedRnn* rnn);

  /// Replays a packet stream through the full system, pulling chunks from
  /// `source` as simulated time advances — the workload never materializes
  /// beyond one epoch, and per-packet and per-mirror records are folded and
  /// freed two barriers later, so RSS grows only with the flow count, the
  /// epoch size, two bytes per mirror and the latency reservoirs (at most
  /// 2^20 samples each). `hooks` (optional) observes simulated time for fault injection
  /// (fired at epoch boundaries); `phases` (optional, sorted, disjoint)
  /// requests per-phase forwarding accuracy accounting. This is
  /// run_pipelined() with one pipe on one thread: the packets run inline on
  /// the calling thread and the DNN passes are batched.
  RunReport run(net::PacketSource& source, std::size_t num_classes,
                RunHooks* hooks = nullptr, const std::vector<RunPhase>& phases = {});

  /// Materialized-trace convenience wrapper: streams `trace` through a
  /// net::TraceSource. Bit-identical to the streamed path by construction.
  RunReport run(const net::Trace& trace, std::size_t num_classes,
                RunHooks* hooks = nullptr, const std::vector<RunPhase>& phases = {});

  /// Multi-pipe replay on the decentralized coordinator: bit-identical
  /// RunReport at any pipe/batch/thread count (DESIGN.md §4.9). Pipe
  /// workers own disjoint coordination-lane sets and run the Data Engine's
  /// on_packet for them — flow tracking, admission, the lane's link pair,
  /// and Model Engine lane submission all stay pipe-local — and the
  /// coordinator only reconciles the lanes at epoch barriers and merges at
  /// the end. Pipes tokenize mirrored windows into rows their lanes own,
  /// which the coordinator hands to the DNN batcher in lane order between
  /// rounds. Packets stream epoch-by-epoch: the coordinator buffers only one
  /// reconcile quantum's worth of packets at a time. Must be called on a
  /// freshly constructed system (the Data Engine's registers and counters
  /// carry over between runs).
  RunReport run_pipelined(net::PacketSource& source, std::size_t num_classes,
                          RunHooks* hooks = nullptr,
                          const std::vector<RunPhase>& phases = {},
                          const PipelineOptions& opts = {});

  /// Materialized-trace convenience wrapper for run_pipelined().
  RunReport run_pipelined(const net::Trace& trace, std::size_t num_classes,
                          RunHooks* hooks = nullptr,
                          const std::vector<RunPhase>& phases = {},
                          const PipelineOptions& opts = {});

  /// One consistent health table over the failure counters of the last
  /// run() plus the live engine/channel/device statistics, so every
  /// reporting surface prints the same numbers.
  telemetry::MetricRegistry health_metrics(const RunReport& report) const;

  DataEngine& data_engine() { return data_engine_; }
  ModelEngine& model_engine() { return model_engine_; }

  /// Number of coordination lanes the fabric is striped over.
  static constexpr std::size_t lane_count() { return kCoordinationLanes; }

  /// Lane-0 endpoints (representative lane — every lane is configured
  /// identically at construction; fault injection mutates all of them).
  const sim::Channel& to_fpga() const { return lanes_[0]->to_ch; }
  const sim::Channel& from_fpga() const { return lanes_[0]->from_ch; }
  const net::ReliableLink& link_to_fpga() const { return lanes_[0]->to_link; }
  const net::ReliableLink& link_from_fpga() const { return lanes_[0]->from_link; }

  /// Mutable per-lane channel access for fault injection (brownouts retune
  /// the line rate, loss, and chaos rates of every live lane).
  sim::Channel& to_fpga_mut(std::size_t lane = 0) { return lanes_[lane]->to_ch; }
  sim::Channel& from_fpga_mut(std::size_t lane = 0) { return lanes_[lane]->from_ch; }

  /// Reliable-link counters aggregated over all lanes of one direction
  /// (counters summed, peak_window maxed) — the whole-fabric view the
  /// invariant checker's conservation laws run against.
  net::ReliableLinkStats link_stats_to_fpga() const;
  net::ReliableLinkStats link_stats_from_fpga() const;

  /// Channel fault counters aggregated over all lanes of one direction.
  sim::ChannelStats channel_stats_to_fpga() const;
  sim::ChannelStats channel_stats_from_fpga() const;

  /// Coordination telemetry of the last replay (zeros before the first).
  const PipelineTelemetry& pipeline_telemetry() const { return pipeline_telemetry_; }

 private:
  /// One coordination lane's slice of the switch<->FPGA fabric.
  struct LanePath {
    LanePath(double bps, sim::SimDuration propagation, double loss_rate,
             std::uint64_t to_seed, std::uint64_t from_seed,
             const net::ReliableLink::Config& link_cfg)
        : to_ch(bps, propagation, loss_rate, to_seed),
          from_ch(bps, propagation, loss_rate, from_seed),
          to_link(to_ch, link_cfg), from_link(from_ch, link_cfg) {}

    sim::Channel to_ch;
    sim::Channel from_ch;
    net::ReliableLink to_link;
    net::ReliableLink from_link;
  };

  static DataEngineConfig resolve_data_engine_config(FenixSystemConfig config,
                                                     const ModelEngine& engine);

  LaneLinks to_links();
  LaneLinks from_links();

  FenixSystemConfig config_;
  ModelEngine model_engine_;  ///< Built first: the Data Engine derives V from it.
  DataEngine data_engine_;
  /// kCoordinationLanes lane paths (unique_ptr: links hold channel refs).
  std::vector<std::unique_ptr<LanePath>> lanes_;
  PipelineTelemetry pipeline_telemetry_;
};

}  // namespace fenix::core
