// The scalar counters of one trace replay, declared once, and the one rule
// that merges partial reports of them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/health_watchdog.hpp"
#include "sim/time.hpp"

namespace fenix::core {

/// The scalar counters of one trace replay, declared once. for_each_counter()
/// below walks them, and first_divergence(), FenixSystem::health_metrics()
/// and the identity tests all go through it, so a new counter is one member
/// here plus one visitor line there.
struct RunCounters {
  std::uint64_t packets = 0;
  std::uint64_t mirrors = 0;
  std::uint64_t fifo_drops = 0;
  std::uint64_t channel_losses = 0;  ///< Mirrors or results dropped by the link
                                     ///< (lost / corrupt / pacer / window).
  std::uint64_t results_applied = 0;
  std::uint64_t results_stale = 0;
  sim::SimDuration trace_duration = 0;

  // Reliable-link accounting, aggregated over both directions and all lanes
  // for this run (DESIGN.md § Reliable framing). `stale_epoch_drops` counts
  // verdicts discarded because the FPGA rebooted between stamp and delivery.
  std::uint64_t stale_epoch_drops = 0;
  std::uint64_t link_retransmits = 0;    ///< NACK-paced frame re-sends.
  std::uint64_t link_nacks = 0;
  std::uint64_t link_corrupt_drops = 0;  ///< Arrivals failing the frame checksum.
  std::uint64_t link_dup_suppressed = 0;
  std::uint64_t link_reorder_held = 0;
  std::uint64_t link_window_drops = 0;
  std::uint64_t link_pacer_drops = 0;
  std::uint64_t link_resyncs = 0;        ///< Epoch bumps seen this run.

  // Model-lifecycle accounting (src/lifecycle, DESIGN.md §5.7). All zero
  // unless a shadow model was configured for the run.
  std::uint64_t lifecycle_shadow_evals = 0;    ///< Candidate scored per mirror.
  std::uint64_t lifecycle_disagreements = 0;   ///< Active vs shadow mismatches.
  std::uint64_t lifecycle_promotions = 0;      ///< Shadow -> serving cutovers.
  std::uint64_t lifecycle_rollbacks = 0;       ///< SLO-breach demotions.
  std::uint64_t lifecycle_slo_breaches = 0;    ///< Guard trips (>= rollbacks).
  std::uint64_t lifecycle_verdicts_primary = 0;    ///< Applies from even generations.
  std::uint64_t lifecycle_verdicts_candidate = 0;  ///< Applies from odd generations.
  /// Verdicts whose generation was no longer serving when they crossed back.
  /// The swap's link resync + the epoch-staleness rule guarantee this is 0.
  std::uint64_t lifecycle_demoted_applies = 0;
  std::uint64_t lifecycle_swap_drops = 0;      ///< Mirrors lost to swap blackouts.
  sim::SimDuration lifecycle_swap_blackout = 0;  ///< Summed blackout windows.

  // Failure / recovery accounting (DESIGN.md § Failure semantics).
  std::uint64_t deadline_misses = 0;         ///< Mirrors with no verdict by deadline.
  std::uint64_t retransmits = 0;             ///< Feature vectors re-sent.
  std::uint64_t retransmits_suppressed = 0;  ///< Wanted to re-send, bucket empty.
  std::uint64_t retransmits_exhausted = 0;   ///< Retry budget spent, verdict lost.
  std::uint64_t fallback_verdicts = 0;       ///< Tree verdicts served while degraded.
  std::uint64_t mirrors_suppressed = 0;      ///< Grants thinned while degraded.

  // Overload-admission accounting (core/admission_controller.hpp). Offered
  // counts every token-bucket grant presented to the admission stage;
  // admitted counts grants that became actual mirrors (== `mirrors`). The
  // shed-conservation invariant is
  //   admission_offered == admission_admitted + shed_thinned + shed_frozen
  //                        + shed_isolated + mirrors_suppressed.
  std::uint64_t admission_offered = 0;
  std::uint64_t admission_admitted = 0;
  std::uint64_t shed_thinned = 0;        ///< Tier >= 1 flow-hash thinning.
  std::uint64_t shed_frozen = 0;         ///< Tier >= 2 new-flow freeze.
  std::uint64_t shed_isolated = 0;       ///< Tier >= 3 victim isolation.
  std::uint64_t admission_transitions = 0;  ///< Ladder tier changes this run.
  std::uint64_t admission_peak_tier = 0;    ///< Highest tier reached.

  HealthWatchdogStats watchdog;              ///< Final watchdog state counters.
};

/// Calls `f(name, c.field...)` once per RunCounters field, in declaration
/// order, passing that field of every report in `c` — so
/// for_each_counter(f, a, b) walks two reports side by side, and a
/// non-const report hands `f` mutable references. `name` is the field's one
/// name: its health-table row and its first_divergence() label (watchdog
/// fields carry a `watchdog_` prefix).
template <typename F, typename... Counters>
constexpr void for_each_counter(F&& f, Counters&... c) {
  f("packets", c.packets...);
  f("mirrors", c.mirrors...);
  f("fifo_drops", c.fifo_drops...);
  f("channel_losses", c.channel_losses...);
  f("results_applied", c.results_applied...);
  f("results_stale", c.results_stale...);
  f("trace_duration", c.trace_duration...);
  f("stale_epoch_drops", c.stale_epoch_drops...);
  f("link_retransmits", c.link_retransmits...);
  f("link_nacks", c.link_nacks...);
  f("link_corrupt_drops", c.link_corrupt_drops...);
  f("link_dup_suppressed", c.link_dup_suppressed...);
  f("link_reorder_held", c.link_reorder_held...);
  f("link_window_drops", c.link_window_drops...);
  f("link_pacer_drops", c.link_pacer_drops...);
  f("link_resyncs", c.link_resyncs...);
  f("lifecycle_shadow_evals", c.lifecycle_shadow_evals...);
  f("lifecycle_disagreements", c.lifecycle_disagreements...);
  f("lifecycle_promotions", c.lifecycle_promotions...);
  f("lifecycle_rollbacks", c.lifecycle_rollbacks...);
  f("lifecycle_slo_breaches", c.lifecycle_slo_breaches...);
  f("lifecycle_verdicts_primary", c.lifecycle_verdicts_primary...);
  f("lifecycle_verdicts_candidate", c.lifecycle_verdicts_candidate...);
  f("lifecycle_demoted_applies", c.lifecycle_demoted_applies...);
  f("lifecycle_swap_drops", c.lifecycle_swap_drops...);
  f("lifecycle_swap_blackout", c.lifecycle_swap_blackout...);
  f("deadline_misses", c.deadline_misses...);
  f("retransmits", c.retransmits...);
  f("retransmits_suppressed", c.retransmits_suppressed...);
  f("retransmits_exhausted", c.retransmits_exhausted...);
  f("fallback_verdicts", c.fallback_verdicts...);
  f("mirrors_suppressed", c.mirrors_suppressed...);
  f("admission_offered", c.admission_offered...);
  f("admission_admitted", c.admission_admitted...);
  f("shed_thinned", c.shed_thinned...);
  f("shed_frozen", c.shed_frozen...);
  f("shed_isolated", c.shed_isolated...);
  f("admission_transitions", c.admission_transitions...);
  f("admission_peak_tier", c.admission_peak_tier...);
  f("watchdog_deadline_misses", c.watchdog.deadline_misses...);
  f("watchdog_heartbeats", c.watchdog.heartbeats...);
  f("watchdog_degradations", c.watchdog.degradations...);
  f("watchdog_recoveries", c.watchdog.recoveries...);
  f("watchdog_time_degraded", c.watchdog.time_degraded...);
}

/// Number of for_each_counter() entries.
constexpr std::size_t run_counter_count() {
  const RunCounters counters;
  std::size_t n = 0;
  for_each_counter([&n](const char*, std::uint64_t) { ++n; }, counters);
  return n;
}

// Every RunCounters member is 8 bytes, so a member without a visitor line
// (which first_divergence and the health table would silently skip) fails
// the build here.
static_assert(sizeof(RunCounters) == run_counter_count() * sizeof(std::uint64_t),
              "every RunCounters field needs a for_each_counter() entry");

/// Adds every counter of the partial report `part` into `total`. A
/// ReplayCore lane, the admission ladder (AdmissionController::totals()) and
/// the lifecycle manager (LifecycleManager::counts()) each keep one, and
/// ReplayCore::resolve() adds them up.
inline RunCounters& operator+=(RunCounters& total, const RunCounters& part) {
  for_each_counter(
      [](const char*, std::uint64_t& sum, std::uint64_t add) { sum += add; },
      total, part);
  return total;
}

}  // namespace fenix::core
