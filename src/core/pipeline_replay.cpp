// The replay driver on the decentralized coordinator (DESIGN.md §4.9).
//
// FenixSystem::run_pipelined() replays a trace through the one Data Engine,
// driven by one runtime::WorkerFleet of `threads` threads, the coordinator
// included; run() is the same driver with one pipe on one thread. There is
// no global packet-order drain and no coordinator-owned token bucket,
// watchdog or Model Engine admission:
//
//  * Every coordination lane (core/lane_coordination.hpp; lane = flow-table
//    slot mod kCoordinationLanes) owns a full vertical slice of the
//    per-packet dataflow: its slots of the Data Engine's registers, its
//    share of the sharded token bucket, its own PCB link pair, its Model
//    Engine lane port, and its ReplayCore lane (deadline heaps, retransmit
//    pacer, deferred accounting). Pipe p holds the lanes with
//    lane % pipes == p; each epoch, the fleet thread that claims pipe p runs
//    DataEngine::on_packet for its packets in trace order, start to finish —
//    admission decision included.
//  * The coordinator stages each epoch (one CRC per packet: the flow
//    fingerprint, from which the slot and so the pipe follow), runs pipe 0
//    and claims others too, and runs the epoch barrier every
//    FenixSystemConfig::reconcile_quantum of trace time: hand the round's
//    mirrors to the batcher, fire fault hooks, fold the lane-buffered
//    watchdog events (publishing the degraded flag), rebalance the token
//    sub-budgets, and run the control-plane window tick.
//  * DNN forward passes are batched by the one InferenceStage
//    (core/model_pool.hpp): pipes admit mirrors with
//    ModelEngine::submit_timed_lane (pure timing/FIFO effects against the
//    lane port) and tokenize each feature window into a row buffer their
//    lane owns. After the round the coordinator hands the rows to an
//    InferenceBatcher lane by lane — the software mirror of the Model
//    Engine's input arbiter — so tickets and batch composition are a pure
//    function of the trace; any fleet thread with no pipe to claim computes
//    the batches. Verdicts flow through the accounting as (generation,
//    lane, sequence) symbols and resolve to classes two barriers later
//    (ReplayCore::close_epoch). Lifecycle runs batch the shadow model too
//    and flush at every barrier.
//
// Determinism: a lane's state is touched only by its owner between barriers,
// every packet of a flow hashes to one lane, and the barrier schedule is a
// pure function of the trace — so per-lane state evolves identically whether
// the lanes run interleaved on one thread or spread over N workers, and the
// folds (confusion increments commute) yield bit-identical RunReports at
// every pipes/batch/threads setting.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/fenix_system.hpp"
#include "core/model_pool.hpp"
#include "core/replay_core.hpp"
#include "lifecycle/lifecycle.hpp"
#include "net/hash.hpp"
#include "runtime/thread_pool.hpp"

namespace fenix::core {

RunReport FenixSystem::run_pipelined(net::PacketSource& source,
                                     std::size_t num_classes, RunHooks* hooks,
                                     const std::vector<RunPhase>& phases,
                                     const PipelineOptions& opts) {
  const std::size_t pipes =
      std::min<std::size_t>(kCoordinationLanes,
                            std::max<std::size_t>(1, opts.pipes));
  const FlowTracker& tracker = data_engine_.tracker();
  const sim::SimDuration quantum =
      std::max<sim::SimDuration>(1, config_.reconcile_quantum);

  // The epoch schedule (reconcile barriers, control-plane ticks, window
  // epochs) is a pure function of the packet timestamps, so it is evaluated
  // incrementally as packets stream in: the coordinator buffers exactly one
  // epoch's packets (partitioned per pipe) and flushes the fleet at each
  // boundary, and close_epoch() retires each epoch's outcome records,
  // tickets and batches two barriers later. What still grows with the run
  // is four bytes per flow and two per mirror (the settled class table); the
  // latency recorders are fixed 20 KB histograms (2^-7 relative error).

  // ---- The one inference stage, whose fleet (this thread + threads − 1
  // workers) runs pipes and DNN batches, and the lane-granular core.
  // Lifecycle runs bind the shadow as the stage's second model, so the
  // batcher scores both, and attach the manager that collects the window's
  // disagreements at every barrier.
  const std::size_t threads = opts.threads > 0
                                  ? opts.threads
                                  : runtime::ThreadPool::default_thread_count();
  InferenceStage inference(
      model_engine_,
      ModelRef{config_.lifecycle.shadow_cnn, config_.lifecycle.shadow_rnn},
      std::max<std::size_t>(1, opts.batch), threads - 1);
  ReplayCoreConfig core_config;
  core_config.recovery = config_.recovery;
  core_config.transit_latency = data_engine_.timing().transit_latency();
  core_config.pass_latency = data_engine_.timing().pass_latency();
  core_config.admission = config_.admission;
  // The frozen-flow bit table shadows the Flow Info Table slot-for-slot.
  core_config.admission.table_slots = data_engine_.tracker().table_size();
  ReplayCore core(source, num_classes, phases, core_config, to_links(),
                  from_links(), data_engine_, inference, hooks);
  std::optional<lifecycle::LifecycleManager> manager;
  if (config_.lifecycle.enabled()) {
    manager.emplace(config_.lifecycle, model_engine_, inference, to_links(),
                    from_links(), data_engine_.watchdog());
    core.set_lifecycle(&*manager);
  }

  // ---- Epoch staging: one reconcile quantum's packets, pipe-partitioned.
  // The buffers are reused across epochs, so steady-state allocation is the
  // peak epoch backlog — independent of workload length.
  std::vector<net::PacketRecord> epoch_pkts;
  std::vector<std::uint32_t> epoch_hashes;  // flow fingerprints
  std::vector<std::vector<std::uint32_t>> pipe_idxs(pipes);

  // Full per-packet work for one packet, on its lane's state only.
  const std::function<void(std::size_t)> run_pipe = [&](std::size_t pipe) {
    for (const std::uint32_t k : pipe_idxs[pipe]) {
      const net::PacketRecord& packet = epoch_pkts[k];
      const std::uint32_t flow_hash = epoch_hashes[k];
      const std::size_t lane = lane_of_slot(tracker.slot_of(flow_hash));
      const sim::SimTime ts = packet.timestamp;
      core.begin_packet(ts, lane);
      const DataEngineOutput out = data_engine_.on_packet(packet, flow_hash);
      core.account_packet(ts, packet.label, out.forward_class,
                          out.from_model_engine, out.flow.verdict,
                          out.from_fallback_tree, lane);
      if (out.mirrored) core.emit_mirror(*out.mirrored, ts, lane);
    }
  };

  std::vector<std::uint64_t> pipe_peaks(pipes, 0);

  // Replays the buffered epoch as one fleet round (lanes are disjoint, so
  // any claim order is another interleaving), hands the round's mirrors to
  // the batcher, then clears the staging buffers. The coordinator runs
  // pipe 0 and claims others too. What on_packet reads is republished only
  // after the round.
  const auto flush_epoch = [&] {
    for (std::size_t p = 0; p < pipes; ++p) {
      pipe_peaks[p] = std::max<std::uint64_t>(pipe_peaks[p],
                                              pipe_idxs[p].size());
    }
    inference.fleet().run(pipes, run_pipe, [] { return false; });
    inference.hand_off();
    epoch_pkts.clear();
    epoch_hashes.clear();
    for (auto& idxs : pipe_idxs) idxs.clear();
  };

  // ---- Stream loop. At each boundary: flush the buffered epoch, then the
  // coordinator barrier work in order — fault hooks + all-lane pump,
  // watchdog fold (publishes degraded), token rebalance, the control-plane
  // window tick, then the fold of the epoch two barriers back.
  std::uint64_t epochs = 0;
  sim::SimTime last_epoch = 0;
  sim::SimTime first_ts = 0;
  sim::SimTime last_ts = 0;
  bool first = true;
  std::vector<net::PacketRecord> chunk(4096);
  for (;;) {
    const std::size_t got = source.next_chunk(chunk);
    if (got == 0) break;
    for (std::size_t ci = 0; ci < got; ++ci) {
      const net::PacketRecord& packet = chunk[ci];
      const sim::SimTime ts = packet.timestamp;
      if (first || ts >= last_epoch + quantum) {
        flush_epoch();
        ++epochs;
        core.reconcile(ts);
        data_engine_.epoch_reconcile(ts);
        data_engine_.control_plane_tick(ts);
        core.close_epoch();
        last_epoch = ts;
        if (first) first_ts = ts;
        first = false;
      }
      last_ts = ts;
      const std::uint32_t flow_hash = net::flow_hash32(packet.tuple);
      pipe_idxs[lane_of_slot(tracker.slot_of(flow_hash)) % pipes].push_back(
          static_cast<std::uint32_t>(epoch_pkts.size()));
      epoch_pkts.push_back(packet);
      epoch_hashes.push_back(flow_hash);
    }
  }
  flush_epoch();  // last (possibly partial) epoch

  // Final barrier at end of trace, tail drain (late verdicts still count;
  // the watchdog folds and closes inside drain()), then the compute barrier
  // before resolving symbols to classes. The measured span replaces the
  // source's construction-time hint.
  const sim::SimDuration duration = first ? 0 : last_ts - first_ts;
  core.set_trace_duration(duration);
  core.reconcile(duration);
  data_engine_.epoch_reconcile(duration);
  core.drain(duration);
  inference.finish();
  RunReport report = core.resolve();
  report.precision = nn::precision_name(model_engine_.precision());

  pipeline_telemetry_ = PipelineTelemetry{};
  pipeline_telemetry_.pipes = pipes;
  pipeline_telemetry_.epochs = epochs;
  pipeline_telemetry_.pipe_queue_peaks = std::move(pipe_peaks);
  pipeline_telemetry_.fanin = inference.fanin_stats();
  pipeline_telemetry_.peak_live_batches = inference.peak_live_batches();
  pipeline_telemetry_.peak_open_records = core.peak_open_records();
  pipeline_telemetry_.batch_compute_s = inference.batch_compute_s();
  pipeline_telemetry_.seal_wait_s = inference.seal_wait_s();
  pipeline_telemetry_.kernel_isa = nn::kernels::active_isa();
  return report;
}

RunReport FenixSystem::run_pipelined(const net::Trace& trace,
                                     std::size_t num_classes, RunHooks* hooks,
                                     const std::vector<RunPhase>& phases,
                                     const PipelineOptions& opts) {
  net::TraceSource source(trace);
  return run_pipelined(source, num_classes, hooks, phases, opts);
}

}  // namespace fenix::core
