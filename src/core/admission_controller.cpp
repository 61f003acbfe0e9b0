#include "core/admission_controller.hpp"

#include <algorithm>

namespace fenix::core {

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  double f = config_.thin_fraction;
  if (f < 0.0) f = 0.0;
  if (f > 1.0) f = 1.0;
  thin_threshold_ = static_cast<std::uint32_t>(f * 65536.0);
  if (config_.table_slots > 0) frozen_.assign(config_.table_slots, 0);
}

void AdmissionController::observe_lane(std::size_t lane,
                                       std::uint64_t cum_fifo_drops,
                                       std::uint64_t cum_deadline_misses) {
  LaneState& L = lanes_[lane];
  epoch_pressure_events_ += (cum_fifo_drops - L.seen_fifo_drops) +
                            (cum_deadline_misses - L.seen_deadline_misses);
  L.seen_fifo_drops = cum_fifo_drops;
  L.seen_deadline_misses = cum_deadline_misses;
}

bool AdmissionController::reconcile(sim::SimTime) {
  // Fold the epoch in canonical lane order: total offered grants plus the
  // combined Boyer-Moore victim vote. The same destination may be several
  // lanes' candidate; group by ip and sum the residual counts, breaking
  // count ties toward the lower address.
  std::uint64_t epoch_offered = 0;
  std::array<std::uint32_t, kCoordinationLanes> cand_ip{};
  std::array<std::uint64_t, kCoordinationLanes> cand_count{};
  std::size_t cands = 0;
  for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
    LaneState& L = lanes_[lane];
    epoch_offered += L.epoch_offered;
    if (L.cand_count > 0) {
      std::size_t j = 0;
      while (j < cands && cand_ip[j] != L.cand_ip) ++j;
      if (j == cands) {
        cand_ip[cands] = L.cand_ip;
        cand_count[cands] = 0;
        ++cands;
      }
      cand_count[j] += L.cand_count;
    }
    L.epoch_offered = 0;
    L.cand_ip = 0;
    L.cand_count = 0;
  }
  std::uint32_t winner_ip = 0;
  std::uint64_t winner_count = 0;
  for (std::size_t j = 0; j < cands; ++j) {
    if (cand_count[j] > winner_count ||
        (cand_count[j] == winner_count && winner_count > 0 &&
         cand_ip[j] < winner_ip)) {
      winner_ip = cand_ip[j];
      winner_count = cand_count[j];
    }
  }

  const double pressure =
      static_cast<double>(epoch_pressure_events_) /
      static_cast<double>(std::max<std::uint64_t>(epoch_offered, 1));
  epoch_pressure_events_ = 0;
  ++reconciles_;

  bool entered_board_degrade = false;
  if (config_.enabled) {
    if (pressure >= config_.enter_pressure) {
      ++above_streak_;
      below_streak_ = 0;
    } else if (pressure <= config_.exit_pressure) {
      ++below_streak_;
      above_streak_ = 0;
    } else {
      // Hysteresis dead band: neither direction makes progress.
      above_streak_ = 0;
      below_streak_ = 0;
    }
    if (above_streak_ >= config_.enter_epochs && published_tier_ < kTopTier) {
      ++published_tier_;
      ++transitions_;
      above_streak_ = 0;
      below_streak_ = 0;
      peak_tier_ = std::max(peak_tier_, published_tier_);
      if (published_tier_ == 3) {
        // Pin the victim from this epoch's vote, if it qualifies. A tier-3
        // epoch with no qualifying victim isolates nothing — the ladder
        // still walks strictly one tier at a time, so a victimless overload
        // (flash crowd) passes through to the board-wide tier.
        const double share =
            static_cast<double>(winner_count) /
            static_cast<double>(std::max<std::uint64_t>(epoch_offered, 1));
        if (winner_count >= config_.victim_min_count &&
            share >= config_.victim_min_share) {
          victim_ip_ = winner_ip;
          victim_pinned_ = true;
        } else {
          victim_pinned_ = false;
          victim_ip_ = 0;
        }
      }
      if (published_tier_ == kTopTier) entered_board_degrade = true;
    } else if (below_streak_ >= config_.exit_epochs && published_tier_ > 0) {
      if (published_tier_ == 3) {
        victim_pinned_ = false;
        victim_ip_ = 0;
      }
      --published_tier_;
      ++transitions_;
      above_streak_ = 0;
      below_streak_ = 0;
    }
  }
  return entered_board_degrade;
}

RunCounters AdmissionController::totals() const {
  RunCounters t;
  for (const LaneState& L : lanes_) {
    t.admission_offered += L.offered;
    t.admission_admitted += L.admitted;
    t.shed_thinned += L.shed_thinned;
    t.shed_frozen += L.shed_frozen;
    t.shed_isolated += L.shed_isolated;
  }
  t.admission_transitions = transitions_;
  t.admission_peak_tier = peak_tier_;
  return t;
}

const char* AdmissionController::tier_name(unsigned tier) {
  switch (tier) {
    case 0:
      return "full";
    case 1:
      return "thinned";
    case 2:
      return "frozen";
    case 3:
      return "isolated";
    default:
      return "degraded";
  }
}

}  // namespace fenix::core
