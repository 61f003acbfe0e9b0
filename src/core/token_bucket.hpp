// Algorithm 1: the probabilistic token bucket of the Rate Limiter (§4.2).
//
// The bucket is held in time units, as a PISA stateful ALU would keep it:
// tokens refill by the elapsed gap between packets, one feature transmission
// costs 1/V seconds of bucket, and the bucket is capped so bursts cannot
// overflow the downstream queue. Selection combines a 16-bit hardware random
// number with the 16-bit probability from the lookup table — integer
// arithmetic only.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace fenix::core {

struct TokenBucketConfig {
  /// Token generation rate V in tokens per second (Eq. 1).
  double token_rate_v = 1e6;
  /// Bucket capacity in tokens; capped to the downstream queue length so the
  /// Model Engine's input FIFO cannot overflow (§4.2 Discussion).
  double capacity_tokens = 64;
  std::uint64_t seed = 0xfe41;
};

struct TokenBucketStats {
  std::uint64_t attempts = 0;        ///< Packets considered.
  std::uint64_t prob_rejections = 0; ///< rand >= prob.
  std::uint64_t token_rejections = 0;///< Selected but bucket empty.
  std::uint64_t grants = 0;          ///< Feature vectors sent.
};

class alignas(64) TokenBucket {
 public:
  explicit TokenBucket(const TokenBucketConfig& config);

  /// Executes Algorithm 1 for one packet arriving at `now` with lookup
  /// probability `prob_fixed` (16-bit fixed point). Returns true when a
  /// feature vector should be transmitted.
  bool on_packet(sim::SimTime now, std::uint16_t prob_fixed);

  /// Tokens currently available (fractional).
  double tokens() const {
    return static_cast<double>(bucket_ps_) / static_cast<double>(cost_ps_);
  }

  const TokenBucketStats& stats() const { return stats_; }
  sim::SimDuration token_cost_ps() const { return cost_ps_; }
  sim::SimDuration capacity_ps() const { return cap_ps_; }

  /// Raw bucket content in picoseconds-of-budget. The epoch reconciler uses
  /// these to conserve the global budget across per-lane sub-buckets: levels
  /// are read, redistributed in integer arithmetic, and written back.
  sim::SimDuration level_ps() const { return bucket_ps_; }
  void set_level_ps(sim::SimDuration level) {
    bucket_ps_ = level < cap_ps_ ? level : cap_ps_;
  }

  /// Advances the refill clock to `now` without running the admission draw:
  /// the bucket gains the elapsed gap (capped), exactly as the next on_packet
  /// would have credited it. Lanes that saw no packets this epoch are topped
  /// up this way so their budget is not stranded behind an idle refill clock.
  void refill_to(sim::SimTime now);

  /// Control-plane reconfiguration when V changes (bucket content is scaled
  /// to preserve the token count).
  void set_token_rate(double token_rate_v);

 private:
  sim::SimDuration cost_ps_;   ///< 1/V in picoseconds.
  sim::SimDuration cap_ps_;    ///< capacity * cost.
  sim::SimDuration bucket_ps_ = 0;
  sim::SimTime t_last_ = 0;
  bool first_ = true;
  double capacity_tokens_;
  sim::RandomStream rng_;
  TokenBucketStats stats_;
};

}  // namespace fenix::core
