#include "core/replay_core.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <string_view>

#include "core/data_engine.hpp"
#include "core/model_pool.hpp"
#include "lifecycle/lifecycle.hpp"
#include "net/packet_source.hpp"

namespace fenix::core {

// ---------------------------------------------------------------------------
// ReplayCore.

namespace {

// The lane event heaps: the pop order is exactly std::priority_queue's, but
// pop_heap() moves the top out instead of copying it.
template <typename T>
void heap_push(std::vector<T>& heap, T item) {
  heap.push_back(std::move(item));
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

template <typename T>
T heap_pop(std::vector<T>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  T top = std::move(heap.back());
  heap.pop_back();
  return top;
}

}  // namespace

ReplayCore::LaneState::LaneState(net::ReliableLink* to, net::ReliableLink* from,
                                 double rtx_rate_hz, double rtx_burst)
    : to_fpga(to), from_fpga(from), to_start(to->stats()),
      from_start(from->stats()), rtx_bucket(rtx_rate_hz, rtx_burst) {}

ReplayCore::ReplayCore(const net::PacketSource& source, std::size_t num_classes,
                       const std::vector<RunPhase>& phases,
                       const ReplayCoreConfig& config, const LaneLinks& to_fpga,
                       const LaneLinks& from_fpga, DataEngine& data_engine,
                       InferenceStage& inference, RunHooks* hooks)
    : config_(config), admission_(config.admission), data_engine_(data_engine),
      inference_(inference), hooks_(hooks), report_(num_classes),
      flow_labels_(source.flow_count(), net::kUnlabeled),
      flow_class_(source.flow_count(), -1) {
  // A hint, not a measurement: streaming drivers overwrite it with the
  // measured span via set_trace_duration() once the stream is exhausted.
  report_.trace_duration = source.duration_hint();
  report_.phases.reserve(phases.size());
  for (const RunPhase& p : phases) {
    report_.phases.emplace_back(p.name, p.start, p.end, num_classes);
  }
  // The per-lane retransmit pacer gets an even slice of the aggregate budget
  // (burst floored at one token so a lane can always repair its first loss).
  const auto n = static_cast<double>(kCoordinationLanes);
  const double lane_rate = config.recovery.retransmit_rate_hz / n;
  const double lane_burst =
      std::max(1.0, config.recovery.retransmit_burst_tokens / n);
  lanes_.reserve(kCoordinationLanes);
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    lanes_.emplace_back(to_fpga[lane], from_fpga[lane], lane_rate, lane_burst);
  }
  for (std::uint32_t fid = 0; fid < flow_labels_.size(); ++fid) {
    flow_labels_[fid] = source.flow_label(fid);
  }
  data_engine_.set_admission(&admission_);
}

ReplayCore::~ReplayCore() { data_engine_.set_admission(nullptr); }

// One send attempt (original mirror or retransmit) through the lane's full
// link -> Model Engine lane port -> link path. Any failure to produce a
// verdict by `emitted + deadline` schedules a MissEvent; the simulator learns
// the attempt's fate synchronously, but the switch only acts on it when the
// deadline actually passes. The links hide frame-level repair (NACK-paced
// retransmits of lost/corrupt frames) — a link drop here means the frame
// is gone for good with a recorded reason.
void ReplayCore::send_vector(const net::FeatureVector& vec, sim::SimTime emitted,
                             unsigned retries_left, std::size_t lane) {
  LaneState& L = lanes_[lane];
  const sim::SimDuration deadline = config_.recovery.result_deadline;
  const auto schedule_miss = [&] {
    heap_push(L.misses,
              MissEvent{emitted + deadline, L.miss_seq++, vec, retries_left});
  };
  const net::SendOutcome fwd = L.to_fpga->send(emitted, vec.wire_bytes());
  if (!fwd.delivered_at) {
    ++L.channel_losses;
    schedule_miss();
    return;
  }
  L.internal_tx.record(*fwd.delivered_at - emitted);

  VerdictSymbol symbol = kNoVerdict;
  auto result = inference_.submit(vec, *fwd.delivered_at, lane, symbol);
  if (!result) {
    ++L.fifo_drops;
    schedule_miss();
    return;
  }
  L.queueing.record(result->inference_started - *fwd.delivered_at);
  L.inference.record(result->inference_finished - result->inference_started);
  // Result packet: five-tuple + verdict, minimal frame.
  const net::SendOutcome back =
      L.from_fpga->send(result->inference_finished, result->wire_bytes());
  if (!back.delivered_at) {
    ++L.channel_losses;
    schedule_miss();
    return;
  }
  L.return_tx.record(*back.delivered_at - result->inference_finished);
  PendingResult p;
  p.delivered_at = *back.delivered_at + config_.pass_latency;
  p.result = *result;
  p.result.delivered_at = p.delivered_at;
  p.mirror_emitted = emitted;
  p.symbol = symbol;
  p.epoch = back.epoch;
  p.vec = vec;
  p.retries_left = retries_left;
  // A verdict landing after its own deadline still gets applied, but the
  // switch has already declared the miss by then.
  if (p.delivered_at > emitted + deadline) schedule_miss();
  heap_push(L.pending, std::move(p));
}

void ReplayCore::deliver_one(std::size_t lane) {
  LaneState& L = lanes_[lane];
  PendingResult p = heap_pop(L.pending);
  if (L.from_fpga->stale(p.epoch, p.delivered_at)) {
    // The FPGA rebooted after this verdict's frame was stamped: the switch
    // discards it rather than install pre-reboot flow state. If the verdict
    // was going to beat its deadline, no miss was scheduled at send time —
    // the switch now never hears back, so the deadline fires (and may
    // retransmit into the new epoch).
    ++L.stale_epoch_drops;
    const sim::SimTime deadline_at =
        p.mirror_emitted + config_.recovery.result_deadline;
    if (p.delivered_at <= deadline_at) {
      heap_push(L.misses, MissEvent{deadline_at, L.miss_seq++, std::move(p.vec),
                                    p.retries_left});
    }
    return;
  }
  data_engine_.deliver_result(p.result, p.symbol);
  L.end_to_end.record(p.delivered_at - p.mirror_emitted);
  if (lifecycle_) {
    lifecycle_->on_apply(lane, p.symbol, p.delivered_at - p.mirror_emitted);
  }
  if (p.result.flow_id < flow_labels_.size()) {
    L.records[open_].applied.push_back({p.result.flow_id, p.symbol});
  }
}

void ReplayCore::miss_one(std::size_t lane) {
  LaneState& L = lanes_[lane];
  const MissEvent ev = heap_pop(L.misses);
  ++L.deadline_misses;
  data_engine_.watchdog().buffer_miss(lane, ev.at);
  if (ev.retries_left == 0) {
    ++L.retransmits_exhausted;
    return;
  }
  if (!L.rtx_bucket.try_take(ev.at)) {
    ++L.retransmits_suppressed;
    return;
  }
  ++L.retransmits;
  send_vector(ev.vec, ev.at, ev.retries_left - 1, lane);
}

// Drains the lane's result deliveries and deadline misses due by `now` in
// simulated-time order, so watchdog heartbeats and misses interleave exactly
// as the switch would observe them. `everything` drains both queues to empty
// (end-of-trace tail, where retransmits may spawn further events). The
// tie-break is part of the bit-identity contract: results win ties.
void ReplayCore::pump(sim::SimTime now, bool everything, std::size_t lane) {
  LaneState& L = lanes_[lane];
  for (;;) {
    const bool have_result =
        !L.pending.empty() && (everything || L.pending.front().delivered_at <= now);
    const bool have_miss =
        !L.misses.empty() && (everything || L.misses.front().at <= now);
    if (!have_result && !have_miss) break;
    if (have_result &&
        (!have_miss || L.pending.front().delivered_at <= L.misses.front().at)) {
      deliver_one(lane);
    } else {
      miss_one(lane);
    }
  }
}

void ReplayCore::reconcile(sim::SimTime now) {
  if (hooks_) hooks_->at_time(now);
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    pump(now, /*everything=*/false, lane);
  }
  // Admission ladder fold: the pump above may have produced this epoch's
  // final FIFO drops and deadline misses, so the pressure signal is complete.
  // Tier changes publish here — never between barriers — and entering the
  // top tier pins the board-wide TCAM degrade through the watchdog (whose
  // own reconcile runs after ours in both drivers, so recovery follows the
  // normal consecutive-result hysteresis).
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    admission_.observe_lane(lane, lanes_[lane].fifo_drops,
                            lanes_[lane].deadline_misses);
  }
  if (admission_.reconcile(now)) data_engine_.watchdog().force_degrade(now);
  // Lifecycle decisions run strictly after the all-lane pump: every pending
  // verdict due by `now` has been applied, so a cutover's link resync leaves
  // only not-yet-due pendings behind — all of which the epoch-staleness rule
  // (epoch < cur && delivered_at >= epoch_end == now) then discards. That is
  // the no-demoted-verdicts guarantee.
  if (lifecycle_) lifecycle_->at_barrier(now);
}

void ReplayCore::begin_packet(sim::SimTime now, std::size_t lane) {
  pump(now, /*everything=*/false, lane);
}

void ReplayCore::account_packet(sim::SimTime now, net::ClassLabel truth,
                                std::int16_t forward_class, bool from_engine,
                                VerdictSymbol engine_symbol, bool from_tree,
                                std::size_t lane) {
  LaneState& L = lanes_[lane];
  // The lane's packets are a subsequence of the trace, so a per-lane
  // monotone cursor finds the same slice a global cursor would.
  while (L.phase_idx < report_.phases.size() &&
         now >= report_.phases[L.phase_idx].end) {
    ++L.phase_idx;
  }
  const bool in_phase = L.phase_idx < report_.phases.size() &&
                        now >= report_.phases[L.phase_idx].start;
  L.records[open_].outcomes.push_back(
      {truth, forward_class, engine_symbol,
       in_phase ? static_cast<std::int32_t>(L.phase_idx) : -1, from_engine,
       from_tree});
}

void ReplayCore::emit_mirror(const net::FeatureVector& vec,
                             sim::SimTime packet_ts, std::size_t lane) {
  // Counted here — after the degraded probe stride — so that
  // admission_admitted == mirrors holds exactly and stride suppressions stay
  // attributed to mirrors_suppressed (retransmits bypass this path).
  admission_.note_admitted(lane);
  // Mirror leaves the deparser after the full switch transit.
  send_vector(vec, packet_ts + config_.transit_latency,
              config_.recovery.max_retransmits, lane);
}

void ReplayCore::fold(EpochRecords& records) {
  for (const PacketOutcome& o : records.outcomes) {
    const std::int16_t cls =
        o.from_engine ? inference_.resolve(o.symbol) : o.forward_class;
    report_.packet_confusion.add(o.label, cls);
    if (o.phase >= 0) {
      PhaseReport& phase = report_.phases[static_cast<std::size_t>(o.phase)];
      phase.packet_confusion.add(o.label, cls);
      ++phase.packets;
      if (o.from_engine) {
        ++phase.dnn_verdicts;
      } else if (o.from_tree) {
        ++phase.tree_verdicts;
      } else {
        ++phase.unclassified;
      }
    }
  }
  // In apply order per flow (a flow's verdicts all land on one lane), so the
  // flow keeps the class of its last verdict.
  for (const AppliedVerdict& a : records.applied) {
    const std::int16_t cls = inference_.resolve(a.symbol);
    report_.inference_confusion.add(flow_labels_[a.flow], cls);
    flow_class_[a.flow] = cls;
  }
  records.outcomes.clear();
  records.applied.clear();
}

void ReplayCore::close_epoch() {
  std::size_t held = 0;
  for (const LaneState& L : lanes_) {
    for (const EpochRecords& r : L.records) held += r.outcomes.size() + r.applied.size();
  }
  peak_open_records_ = std::max(peak_open_records_, held);
  inference_.close_epoch();
  // records[open_ + 1] was sealed two barriers back; folded, it is the next
  // epoch's buffer.
  open_ = (open_ + 1) % 3;
  for (LaneState& L : lanes_) fold(L.records[open_]);
}

void ReplayCore::drain(sim::SimTime trace_end) {
  // Drain every lane's tail so late verdicts still count toward inference
  // accuracy and the final misses reach the watchdog, then fold the buffered
  // events and close the open degraded interval.
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    pump(0, /*everything=*/true, lane);
  }
  if (lifecycle_) lifecycle_->at_drain();
  data_engine_.watchdog().close(trace_end);
}

RunReport ReplayCore::resolve() {
  net::ReliableLinkStats links;
  for (LaneState& L : lanes_) {
    // Oldest first: the two sealed epochs, then the tail since.
    for (std::size_t k = 1; k <= 3; ++k) fold(L.records[(open_ + k) % 3]);

    report_ += L;
    for_each_latency(
        [](const char*, telemetry::LatencyRecorder& into,
           const telemetry::LatencyRecorder& part) { into.absorb(part); },
        report_, L);

    // Link counters: the links belong to the system and outlive a run, so
    // the report carries this run's deltas, aggregated over both directions
    // of every lane.
    links += L.to_fpga->stats() - L.to_start;
    links += L.from_fpga->stats() - L.from_start;
  }
  report_.link_retransmits = links.retransmits;
  report_.link_nacks = links.nacks;
  report_.link_corrupt_drops = links.corrupt_drops;
  report_.link_dup_suppressed = links.dup_suppressed;
  report_.link_reorder_held = links.reorder_held;
  report_.link_window_drops = links.window_overflow_drops;
  report_.link_pacer_drops = links.drops_pacer;
  report_.link_resyncs = links.resyncs;

  for (std::size_t f = 0; f < flow_labels_.size(); ++f) {
    report_.flow_confusion.add(flow_labels_[f], flow_class_[f]);
  }
  report_ += admission_.totals();
  if (lifecycle_) report_ += lifecycle_->counts();
  report_.packets = data_engine_.packets_seen();
  report_.mirrors = data_engine_.mirrors_sent();
  report_.results_applied = data_engine_.results_applied();
  report_.results_stale = data_engine_.results_stale();
  report_.fallback_verdicts = data_engine_.fallback_verdicts();
  report_.mirrors_suppressed = data_engine_.mirrors_suppressed();
  report_.watchdog = data_engine_.watchdog().stats();
  return std::move(report_);
}

// ---------------------------------------------------------------------------
// Conservation residuals and report comparison / divergence diagnostics.

namespace {

std::uint64_t abs_diff(std::uint64_t x, std::uint64_t y) {
  return x > y ? x - y : y - x;
}

template <typename T>
std::optional<std::string> diverge(std::string_view field, const T& a,
                                   const T& b) {
  if (a == b) return std::nullopt;
  std::ostringstream out;
  // Round-trip precision: two doubles that differ must print differently.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << field << ": " << a << " vs " << b;
  return out.str();
}

std::optional<std::string> confusion_divergence(
    const std::string& field, const telemetry::ConfusionMatrix& a,
    const telemetry::ConfusionMatrix& b) {
  if (auto d = diverge(field + ".num_classes", a.num_classes(), b.num_classes()))
    return d;
  // Cells first: "which cell" is the actionable diagnostic; total/unpredicted
  // are derived tallies that only catch compensating cell errors.
  for (std::size_t t = 0; t < a.num_classes(); ++t) {
    for (std::size_t p = 0; p < a.num_classes(); ++p) {
      if (a.count(t, p) != b.count(t, p)) {
        std::ostringstream out;
        out << field << "[truth=" << t << "][pred=" << p
            << "]: " << a.count(t, p) << " vs " << b.count(t, p);
        return out.str();
      }
    }
  }
  if (auto d = diverge(field + ".unpredicted", a.unpredicted(), b.unpredicted()))
    return d;
  if (auto d = diverge(field + ".total", a.total(), b.total())) return d;
  return std::nullopt;
}

std::optional<std::string> recorder_divergence(
    const std::string& field, const telemetry::LatencyRecorder& a,
    const telemetry::LatencyRecorder& b) {
  if (auto d = diverge(field + ".count", a.count(), b.count())) return d;
  if (auto d = diverge(field + ".min", a.min(), b.min())) return d;
  if (auto d = diverge(field + ".max", a.max(), b.max())) return d;
  if (auto d = diverge(field + ".mean_ps", a.mean_ps(), b.mean_ps())) return d;
  static constexpr double kPercentiles[] = {0.0,  10.0, 25.0, 50.0,  75.0,
                                            90.0, 95.0, 99.0, 99.9, 100.0};
  for (double p : kPercentiles) {
    if (a.percentile(p) == b.percentile(p)) continue;
    std::ostringstream name;
    name << field << ".p" << p;
    return diverge(name.str(), a.percentile(p), b.percentile(p));
  }
  return std::nullopt;
}

}  // namespace

std::uint64_t RunReport::drop_unattributed() const {
  return abs_diff(mirrors + retransmits, channel_losses + fifo_drops +
                                             stale_epoch_drops +
                                             results_applied + results_stale);
}

std::uint64_t RunReport::shed_unattributed() const {
  return abs_diff(admission_offered, admission_admitted + shed_thinned +
                                         shed_frozen + shed_isolated +
                                         mirrors_suppressed);
}

std::optional<std::string> first_divergence(const RunReport& a,
                                            const RunReport& b) {
  if (auto d = diverge("precision", a.precision, b.precision)) return d;
  std::optional<std::string> counter;
  for_each_counter(
      [&counter](const char* name, std::uint64_t x, std::uint64_t y) {
        if (!counter) counter = diverge(name, x, y);
      },
      a, b);
  if (counter) return counter;
  if (auto d = confusion_divergence("packet_confusion", a.packet_confusion,
                                    b.packet_confusion))
    return d;
  if (auto d = confusion_divergence("inference_confusion",
                                    a.inference_confusion,
                                    b.inference_confusion))
    return d;
  if (auto d = confusion_divergence("flow_confusion", a.flow_confusion,
                                    b.flow_confusion))
    return d;
  std::optional<std::string> recorder;
  for_each_latency(
      [&recorder](const char* name, const telemetry::LatencyRecorder& x,
                  const telemetry::LatencyRecorder& y) {
        if (!recorder) recorder = recorder_divergence(name, x, y);
      },
      a, b);
  if (recorder) return recorder;
  if (auto d = diverge("phases.size", a.phases.size(), b.phases.size()))
    return d;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const PhaseReport& pa = a.phases[i];
    const PhaseReport& pb = b.phases[i];
    if (auto d = diverge("phases[" + std::to_string(i) + "].name", pa.name,
                         pb.name))
      return d;
    const std::string prefix =
        "phases[" + std::to_string(i) + " \"" + pa.name + "\"].";
    if (auto d = diverge(prefix + "start", pa.start, pb.start)) return d;
    if (auto d = diverge(prefix + "end", pa.end, pb.end)) return d;
    if (auto d = diverge(prefix + "packets", pa.packets, pb.packets)) return d;
    if (auto d = diverge(prefix + "dnn_verdicts", pa.dnn_verdicts,
                         pb.dnn_verdicts))
      return d;
    if (auto d = diverge(prefix + "tree_verdicts", pa.tree_verdicts,
                         pb.tree_verdicts))
      return d;
    if (auto d = diverge(prefix + "unclassified", pa.unclassified,
                         pb.unclassified))
      return d;
    if (auto d = confusion_divergence(prefix + "packet_confusion",
                                      pa.packet_confusion, pb.packet_confusion))
      return d;
  }
  return std::nullopt;
}

bool run_reports_equal(const RunReport& a, const RunReport& b) {
  return !first_divergence(a, b).has_value();
}

}  // namespace fenix::core
