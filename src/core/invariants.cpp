#include "core/invariants.hpp"

#include <sstream>
#include <utility>

namespace fenix::core {
namespace {

/// Builds "lhs-name (v) != rhs-name (v)"-style details without each check
/// hand-rolling its stream code.
class Expect {
 public:
  Expect(std::string name, std::vector<InvariantViolation>& out)
      : name_(std::move(name)), out_(out) {}

  void eq(const char* what, std::uint64_t lhs, std::uint64_t rhs) {
    if (lhs == rhs) return;
    std::ostringstream s;
    s << what << ": " << lhs << " != " << rhs;
    out_.push_back({name_, s.str()});
  }

  void le(const char* what, std::uint64_t lhs, std::uint64_t rhs) {
    if (lhs <= rhs) return;
    std::ostringstream s;
    s << what << ": " << lhs << " > " << rhs;
    out_.push_back({name_, s.str()});
  }

 private:
  const std::string name_;
  std::vector<InvariantViolation>& out_;
};

std::uint64_t link_drops(const net::ReliableLinkStats& s) {
  return s.drops_lost + s.drops_corrupt + s.drops_pacer +
         s.window_overflow_drops;
}

}  // namespace

void InvariantRegistry::add(std::string name, Check check) {
  checks_.push_back({std::move(name), std::move(check)});
}

std::vector<InvariantViolation> InvariantRegistry::check(
    const InvariantContext& ctx) const {
  std::vector<InvariantViolation> violations;
  for (const Named& named : checks_) named.check(ctx, violations);
  return violations;
}

InvariantRegistry InvariantRegistry::standard() {
  InvariantRegistry reg;

  // Every trace packet is booked exactly once, and no forwarding-confusion
  // row exists without a packet behind it.
  reg.add("packet-conservation",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("packet-conservation", out);
            e.eq("packets != trace packets", ctx.report.packets,
                 ctx.trace_packets);
            e.le("packet_confusion.total() > packets",
                 ctx.report.packet_confusion.total(), ctx.report.packets);
          });

  // Per link: every frame offered to send() is delivered exactly once or
  // dropped with exactly one recorded reason.
  reg.add("frame-conservation",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("frame-conservation", out);
            if (ctx.to_link) {
              e.eq("to_fpga: data_frames != delivered + drops",
                   ctx.to_link->data_frames,
                   ctx.to_link->delivered + link_drops(*ctx.to_link));
            }
            if (ctx.from_link) {
              e.eq("from_fpga: data_frames != delivered + drops",
                   ctx.from_link->data_frames,
                   ctx.from_link->delivered + link_drops(*ctx.from_link));
            }
          });

  // The forward link carries exactly the granted mirrors plus the
  // deadline-driven retransmits — nothing is sent twice or swallowed.
  reg.add("mirror-frames",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            if (!ctx.to_link) return;
            Expect e("mirror-frames", out);
            e.eq("to_fpga.data_frames != mirrors + retransmits",
                 ctx.to_link->data_frames,
                 ctx.report.mirrors + ctx.report.retransmits);
          });

  // Every feature vector that reached the FPGA either died in the input FIFO
  // or produced exactly one return frame.
  reg.add("return-frames",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            if (!ctx.to_link || !ctx.from_link) return;
            Expect e("return-frames", out);
            e.eq("from_fpga.data_frames != to_fpga.delivered - fifo_drops",
                 ctx.from_link->data_frames,
                 ctx.to_link->delivered - ctx.report.fifo_drops);
          });

  // Every verdict delivered back to the switch is applied, rejected as
  // flow-stale, or discarded as epoch-stale — and end-to-end latency records
  // exactly the non-epoch-stale ones.
  reg.add("verdict-conservation",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            if (!ctx.from_link) return;
            Expect e("verdict-conservation", out);
            e.eq("from_fpga.delivered != applied + stale + epoch drops",
                 ctx.from_link->delivered,
                 ctx.report.results_applied + ctx.report.results_stale +
                     ctx.report.stale_epoch_drops);
            e.eq("end_to_end.count() != applied + stale",
                 ctx.report.end_to_end.count(),
                 ctx.report.results_applied + ctx.report.results_stale);
          });

  // Every labeled trace flow gets exactly one final-verdict row (flows never
  // inferred count as misses, not omissions).
  reg.add("flow-accounting",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("flow-accounting", out);
            e.eq("flow_confusion.total() != labeled trace flows",
                 ctx.report.flow_confusion.total(), ctx.trace_flows);
          });

  // The receiver's reorder window never held more frames than configured.
  reg.add("reorder-window-bound",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("reorder-window-bound", out);
            if (ctx.to_link) {
              e.le("to_fpga.peak_window > reorder_window",
                   ctx.to_link->peak_window, ctx.reorder_window);
            }
            if (ctx.from_link) {
              e.le("from_fpga.peak_window > reorder_window",
                   ctx.from_link->peak_window, ctx.reorder_window);
            }
          });

  // Repair traffic stays within its budgets: per-frame NACK repairs on each
  // link, and at most one deadline retransmit per declared miss.
  reg.add("retransmit-budget",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("retransmit-budget", out);
            if (ctx.to_link) {
              e.le("to_fpga.retransmits > data_frames * budget",
                   ctx.to_link->retransmits,
                   ctx.to_link->data_frames * ctx.link_max_retransmits);
            }
            if (ctx.from_link) {
              e.le("from_fpga.retransmits > data_frames * budget",
                   ctx.from_link->retransmits,
                   ctx.from_link->data_frames * ctx.link_max_retransmits);
            }
            e.le("replay retransmits > deadline misses",
                 ctx.report.retransmits, ctx.report.deadline_misses);
          });

  // No verdict from a demoted model generation is ever applied: the cutover
  // runs after the barrier's all-lane pump and resyncs every lane link, so
  // the epoch staleness rule discards everything the old generation still
  // had in flight. Unconditional — a non-lifecycle run trivially books 0.
  reg.add("no-demoted-verdicts",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("no-demoted-verdicts", out);
            e.eq("lifecycle_demoted_applies != 0",
                 ctx.report.lifecycle_demoted_applies, 0);
          });

  // Shadow scoring never invents evaluations: disagreements are a subset
  // of shadow evaluations.
  reg.add("drift-bounds",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("drift-bounds", out);
            e.le("lifecycle_disagreements > lifecycle_shadow_evals",
                 ctx.report.lifecycle_disagreements,
                 ctx.report.lifecycle_shadow_evals);
          });

  // Every verdict delivered without an epoch discard is attributed to
  // exactly one model generation (the sink may still reject it as
  // flow-stale, so the right-hand side is applied + stale).
  reg.add("lifecycle-attribution",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            if (!ctx.lifecycle_enabled) return;
            Expect e("lifecycle-attribution", out);
            e.eq("primary + candidate != applied + stale",
                 ctx.report.lifecycle_verdicts_primary +
                     ctx.report.lifecycle_verdicts_candidate,
                 ctx.report.results_applied + ctx.report.results_stale);
          });

  // Swap accounting: rollbacks demote previous promotions and each one was
  // triggered by a recorded SLO breach; the summed blackout is exactly the
  // configured window per swap event.
  reg.add("lifecycle-swap-accounting",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("lifecycle-swap-accounting", out);
            e.le("lifecycle_rollbacks > lifecycle_promotions",
                 ctx.report.lifecycle_rollbacks, ctx.report.lifecycle_promotions);
            e.le("lifecycle_rollbacks > lifecycle_slo_breaches",
                 ctx.report.lifecycle_rollbacks,
                 ctx.report.lifecycle_slo_breaches);
            if (!ctx.lifecycle_enabled) return;
            e.eq("lifecycle_swap_blackout != swaps * configured blackout",
                 static_cast<std::uint64_t>(ctx.report.lifecycle_swap_blackout),
                 (ctx.report.lifecycle_promotions +
                  ctx.report.lifecycle_rollbacks) *
                     static_cast<std::uint64_t>(ctx.lifecycle_blackout));
          });

  // The report's aggregated link deltas agree with the per-direction link
  // statistics the checker was handed (both directions summed) — the two
  // reporting surfaces cannot drift apart.
  reg.add("link-report-consistency",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            if (!ctx.to_link || !ctx.from_link) return;
            Expect e("link-report-consistency", out);
            e.eq("report.link_retransmits != to + from retransmits",
                 ctx.report.link_retransmits,
                 ctx.to_link->retransmits + ctx.from_link->retransmits);
            e.eq("report.link_nacks != to + from nacks",
                 ctx.report.link_nacks, ctx.to_link->nacks + ctx.from_link->nacks);
            e.eq("report.link_corrupt_drops != to + from corrupt drops",
                 ctx.report.link_corrupt_drops,
                 ctx.to_link->corrupt_drops + ctx.from_link->corrupt_drops);
            e.eq("report.link_resyncs != to + from resyncs",
                 ctx.report.link_resyncs,
                 ctx.to_link->resyncs + ctx.from_link->resyncs);
          });

  // Overload-admission conservation (DESIGN.md §4.12): every token-bucket
  // grant routed through the admission ladder is either admitted (and became
  // exactly one mirror) or shed with exactly one attributed reason — thinned,
  // frozen, isolated, or suppressed by the degraded probe stride. Gated on
  // admission_tracking: standalone ReplayCore/DataEngine harnesses don't
  // route grants through the controller, so offered would read 0 there.
  reg.add("shed-conservation",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            if (!ctx.admission_tracking) return;
            Expect e("shed-conservation", out);
            e.eq("offered != admitted + thinned + frozen + isolated + suppressed",
                 ctx.report.admission_offered,
                 ctx.report.admission_admitted + ctx.report.shed_thinned +
                     ctx.report.shed_frozen + ctx.report.shed_isolated +
                     ctx.report.mirrors_suppressed);
            e.eq("admission_admitted != mirrors", ctx.report.admission_admitted,
                 ctx.report.mirrors);
          });

  // In-order release times never run backwards. Only *release* order is
  // monotone by contract — send times are legitimately not (a deadline miss
  // at t can fire after a mirror emitted at t + transit), which is why the
  // links count release inversions rather than send inversions.
  reg.add("monotone-release",
          [](const InvariantContext& ctx, std::vector<InvariantViolation>& out) {
            Expect e("monotone-release", out);
            if (ctx.to_link) {
              e.eq("to_fpga.monotone_violations != 0",
                   ctx.to_link->monotone_violations, 0);
            }
            if (ctx.from_link) {
              e.eq("from_fpga.monotone_violations != 0",
                   ctx.from_link->monotone_violations, 0);
            }
          });

  return reg;
}

}  // namespace fenix::core
