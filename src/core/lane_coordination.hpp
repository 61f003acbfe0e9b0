// Lane-decomposed coordination state for the decentralized replay.
//
// The serial replay of PR 3 funneled every shard through one coordinator
// that owned the token bucket, the health watchdog, and the switch<->FPGA
// links — so adding pipes bought nothing. This module splits that shared
// state into a fixed number of *coordination lanes* keyed by flow-table slot
// (lane = slot mod kCoordinationLanes), independent of the runtime pipe
// count. A pipe owns every lane with lane % pipes == pipe, touches only its
// own lanes' state between epoch barriers, and the coordinator reconciles
// the lanes at each barrier:
//
//   - ShardedTokenBucket: the Rate Limiter's global budget V is split into
//     per-lane sub-buckets (rate V/L, capacity C/L — the same cap_ps, since
//     a lane token costs L times a global token). The epoch reconciler tops
//     idle lanes' refill clocks up and redistributes the pooled budget in
//     integer arithmetic, so the global budget is conserved deterministically
//     regardless of which lanes drew it down.
//
//   - LaneWatchdog: pipes cannot drive one consecutive-miss streak machine
//     concurrently, so deadline misses and heartbeats buffer per lane and
//     the reconciler replays them into the inner HealthWatchdog in canonical
//     order — (timestamp, results-before-misses, lane, buffer order) — the
//     exact tie-break the serial event pump uses. The degraded flag the Data
//     Engine's forwarding ladder reads is published only at reconciliation,
//     which is what makes it identical no matter how many pipes ran.
//
// Determinism argument (DESIGN.md §4.9): a lane's state is touched only by
// its owner between barriers and every packet of a flow hashes to one lane,
// so per-lane state evolves identically whether lanes run interleaved on one
// thread or spread over N; cross-lane state only changes at barriers, whose
// schedule is a pure function of the trace.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/health_watchdog.hpp"
#include "core/token_bucket.hpp"
#include "sim/time.hpp"

namespace fenix::core {

/// Number of coordination lanes. Fixed (not the pipe count!) so the lane
/// decomposition — and with it every RunReport — is identical at every
/// pipes= setting; pipes share lanes round-robin.
inline constexpr std::size_t kCoordinationLanes = 16;

constexpr std::size_t lane_of_slot(std::size_t slot) {
  return slot & (kCoordinationLanes - 1);
}

/// Lane-grouped register layout: a slot's index within its lane's arrays.
constexpr std::size_t lane_index(std::size_t slot) {
  return slot / kCoordinationLanes;
}

/// Lane-grouped register layout: slots per lane of a `table_size`-slot table.
constexpr std::size_t lane_slots(std::size_t table_size) {
  return (table_size + kCoordinationLanes - 1) / kCoordinationLanes;
}

/// Sums one counter over a component's per-lane state.
template <typename Lane>
std::uint64_t sum_lanes(const std::vector<Lane>& lanes,
                        std::uint64_t Lane::*counter) {
  std::uint64_t sum = 0;
  for (const Lane& lane : lanes) sum += lane.*counter;
  return sum;
}

/// The Rate Limiter's token bucket, split into kCoordinationLanes
/// sub-budgets with an epoch reconciler. See the header comment for the
/// conservation protocol.
class ShardedTokenBucket {
 public:
  explicit ShardedTokenBucket(const TokenBucketConfig& config) {
    lanes_.reserve(kCoordinationLanes);
    const auto n = static_cast<double>(kCoordinationLanes);
    for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
      TokenBucketConfig sub;
      sub.token_rate_v = config.token_rate_v / n;
      sub.capacity_tokens = config.capacity_tokens / n;
      // Decorrelate the per-lane admission draws; RandomStream seeding
      // splitmixes, so nearby seeds already yield independent streams.
      sub.seed = config.seed + 0x9e3779b97f4a7c15ULL * (lane + 1);
      lanes_.emplace_back(sub);
    }
  }

  /// Algorithm 1 for one packet of `lane`. Only the lane's owner pipe may
  /// call this between barriers; lanes are independent.
  bool on_packet(std::size_t lane, sim::SimTime now, std::uint16_t prob_fixed) {
    return lanes_[lane].on_packet(now, prob_fixed);
  }

  /// Epoch reconciliation (coordinator only, at a barrier): top up every
  /// lane's refill clock to `now`, then redistribute the pooled budget
  /// evenly in integer arithmetic. The pool total is conserved exactly while
  /// below the cap sum; overflow past all caps spills, exactly as the global
  /// bucket's cap would have clamped it.
  void reconcile(sim::SimTime now) {
    sim::SimDuration total = 0;
    for (TokenBucket& lane : lanes_) {
      lane.refill_to(now);
      total += lane.level_ps();
    }
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const auto remaining = static_cast<sim::SimDuration>(lanes_.size() - i);
      sim::SimDuration give = total / remaining;
      if (give > lanes_[i].capacity_ps()) give = lanes_[i].capacity_ps();
      lanes_[i].set_level_ps(give);
      total -= give;
    }
    ++reconciles_;
  }

  /// Summed stats across lanes (the global Rate Limiter view).
  TokenBucketStats stats() const {
    TokenBucketStats total;
    for (const TokenBucket& lane : lanes_) {
      total.attempts += lane.stats().attempts;
      total.prob_rejections += lane.stats().prob_rejections;
      total.token_rejections += lane.stats().token_rejections;
      total.grants += lane.stats().grants;
    }
    return total;
  }

  /// Pooled budget in picoseconds (conservation checks).
  sim::SimDuration total_level_ps() const {
    sim::SimDuration total = 0;
    for (const TokenBucket& lane : lanes_) total += lane.level_ps();
    return total;
  }
  sim::SimDuration total_capacity_ps() const {
    sim::SimDuration total = 0;
    for (const TokenBucket& lane : lanes_) total += lane.capacity_ps();
    return total;
  }

  TokenBucket& lane(std::size_t i) { return lanes_[i]; }
  const TokenBucket& lane(std::size_t i) const { return lanes_[i]; }
  std::uint64_t reconciles() const { return reconciles_; }

 private:
  std::vector<TokenBucket> lanes_;
  std::uint64_t reconciles_ = 0;
};

/// Per-lane buffered watchdog events merged into one HealthWatchdog at epoch
/// reconciliation. See the header comment for the canonical merge order.
class LaneWatchdog {
 public:
  explicit LaneWatchdog(const HealthWatchdogConfig& config = {})
      : inner_(config) {}

  /// Lane-local event capture; only the lane's owner pipe may call these
  /// between barriers.
  void buffer_miss(std::size_t lane, sim::SimTime at) {
    buffers_[lane].events.push_back(Event{at, kMiss});
  }
  void buffer_result(std::size_t lane, sim::SimTime at) {
    buffers_[lane].events.push_back(Event{at, kResult});
  }

  /// Epoch reconciliation (coordinator only, at a barrier): replay every
  /// buffered event into the streak machine in canonical order and publish
  /// the degraded flag the forwarding ladder reads until the next barrier.
  void reconcile() {
    merge_scratch_.clear();
    for (std::size_t lane = 0; lane < kCoordinationLanes; ++lane) {
      std::vector<Event>& events = buffers_[lane].events;
      for (std::size_t i = 0; i < events.size(); ++i) {
        merge_scratch_.push_back(MergeEntry{events[i].at, events[i].kind,
                                            static_cast<std::uint32_t>(lane),
                                            static_cast<std::uint32_t>(i)});
      }
      events.clear();
    }
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergeEntry& a, const MergeEntry& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.kind != b.kind) return a.kind < b.kind;  // results first
                if (a.lane != b.lane) return a.lane < b.lane;
                return a.index < b.index;
              });
    for (const MergeEntry& e : merge_scratch_) {
      if (e.kind == kResult) {
        inner_.on_result(e.at);
      } else {
        inner_.on_deadline_missed(e.at);
      }
    }
    published_degraded_ = inner_.degraded();
    ++reconciles_;
  }

  /// Final merge + open-interval close at end of run.
  void close(sim::SimTime now) {
    reconcile();
    inner_.close(now);
  }

  /// Control-plane-forced degradation (coordinator only, at a barrier): the
  /// lifecycle rollback-to-fallback path pins the ladder onto the TCAM tree
  /// immediately; the next reconcile()'s event replay then applies the
  /// normal recovery hysteresis.
  void force_degrade(sim::SimTime at) {
    inner_.force_degrade(at);
    published_degraded_ = inner_.degraded();
  }

  /// The epoch-published flag (NOT the live inner state): stable between
  /// barriers, so per-packet forwarding decisions are pipe-count-invariant.
  bool degraded() const { return published_degraded_; }

  const HealthWatchdogStats& stats() const { return inner_.stats(); }
  const HealthWatchdogConfig& config() const { return inner_.config(); }
  std::uint64_t reconciles() const { return reconciles_; }

 private:
  static constexpr std::uint8_t kResult = 0;
  static constexpr std::uint8_t kMiss = 1;
  struct Event {
    sim::SimTime at;
    std::uint8_t kind;
  };
  struct MergeEntry {
    sim::SimTime at;
    std::uint8_t kind;
    std::uint32_t lane;
    std::uint32_t index;
  };

  /// One lane's events, on cache lines only its owner pipe writes.
  struct alignas(64) LaneEvents { std::vector<Event> events; };

  HealthWatchdog inner_;
  std::array<LaneEvents, kCoordinationLanes> buffers_;
  std::vector<MergeEntry> merge_scratch_;
  bool published_degraded_ = false;
  std::uint64_t reconciles_ = 0;
};

}  // namespace fenix::core
