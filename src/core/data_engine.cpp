#include "core/data_engine.hpp"

#include <algorithm>

#include "switchsim/register_array.hpp"

namespace fenix::core {

DataEngine::DataEngine(const DataEngineConfig& config)
    : config_(config), ledger_(config.chip), timing_(config.chip),
      prob_table_(config.prob_t_cells, config.prob_c_cells, config.prob_t_max_s,
                  config.prob_c_max, config.prob_log_scale_c,
                  config.prob_log_scale_t),
      watchdog_(config.watchdog), lanes_(kCoordinationLanes) {
  tracker_ = std::make_unique<FlowTracker>(ledger_, config.tracker);
  // Stage layout (matching the deployed 9-stage program): stages 0-3 flow
  // tracker, 4 IPD register, 5-6 feature rings, 7 probability table +
  // preliminary tree, 8 token bucket + mirror assembly.
  buffers_ = std::make_unique<BufferManager>(
      ledger_, tracker_->table_size(), config.tracker.ring_capacity,
      config.tracker.first_stage + 5);
  const double fpga_rate =
      config.fpga_inference_rate_hz > 0.0 ? config.fpga_inference_rate_hz : 75e6;
  token_rate_v_ = token_rate_from_hardware(fpga_rate, config.channel_bandwidth_bps,
                                           config.feature_vector_bits);
  TokenBucketConfig bucket_config;
  bucket_config.token_rate_v = token_rate_v_;
  bucket_config.capacity_tokens = config.bucket_capacity_tokens;
  bucket_config.seed = config.bucket_seed;
  bucket_ = std::make_unique<ShardedTokenBucket>(bucket_config);

  flow_rate_meter_ = telemetry::RateMeter(config.stats_ewma_alpha);
  packet_rate_meter_ = telemetry::RateMeter(config.stats_ewma_alpha);

  switchsim::allocate_register(ledger_, "feature_last_t",
                               config.tracker.first_stage + 4,
                               tracker_->table_size(), 32);
  for (Lane& lane : lanes_) {
    lane.last_orig_us.assign(lane_slots(tracker_->table_size()), 0);
    lane.mirror_buf.sequence.reserve(config.tracker.ring_capacity + 1);
  }

  // The probability lookup table occupies SRAM in the rate-limiter stage.
  switchsim::Allocation prob_alloc;
  prob_alloc.owner = "prob_lookup_table";
  prob_alloc.stage = config.tracker.first_stage + 7;
  prob_alloc.sram_bits = prob_table_.sram_bits();
  prob_alloc.bus_bits = 16;
  ledger_.allocate(prob_alloc);

  // Token bucket state (bucket level, T_last, RNG seed) plus the mirror
  // header staging through the deparser PHV.
  switchsim::Allocation bucket_alloc;
  bucket_alloc.owner = "token_bucket";
  bucket_alloc.stage = config.tracker.first_stage + 8;
  bucket_alloc.sram_bits = 3 * 64;
  bucket_alloc.bus_bits = 64 + 256;  // bucket words + mirror header PHV
  ledger_.allocate(bucket_alloc);

  // Initial statistics until the first control-plane refresh.
  TrafficStats stats;
  stats.token_rate_v = token_rate_v_;
  stats.flow_count_n = config.initial_flow_count;
  stats.packet_rate_q = config.initial_packet_rate;
  prob_table_.rebuild(stats);
}

void DataEngine::install_preliminary_tree(const trees::DecisionTree& tree,
                                          std::size_t max_entries) {
  // Features: packet length (11 bits suffices for <= 1500B) and the 16-bit
  // IPD code.
  prelim_layout_.widths = {11, 16};
  const auto rules = compile_tree(tree, prelim_layout_);
  std::size_t capacity = rules.size();
  if (max_entries != 0) capacity = std::min(capacity, max_entries);
  prelim_table_ = std::make_unique<switchsim::TernaryMatchTable>(
      ledger_, "prelim_tree", config_.tracker.first_stage + 7,
      std::max<std::size_t>(capacity, 1), prelim_layout_.total_bits(), 8);
  install_rules(rules, *prelim_table_);
  prelim_table_->prepare();
}

DataEngineOutput DataEngine::on_packet(const net::PacketRecord& packet,
                                      std::uint32_t flow_hash) {
  DataEngineOutput out;
  const std::uint32_t slot = tracker_->slot_of(flow_hash);
  const std::size_t lane = lane_of_slot(slot);
  Lane& L = lanes_[lane];
  ++L.packets_seen;

  // Stage 0-3: Flow Tracker update.
  out.flow = tracker_->on_packet(flow_hash, packet.timestamp);
  if (admission_ && out.flow.new_flow) admission_->on_new_flow(slot);

  // Feature computation: IPD from the original capture timestamp register
  // (see net::PacketRecord::orig_timestamp).
  const auto orig_us =
      static_cast<std::uint32_t>(packet.orig_timestamp / sim::kMicrosecond);
  std::uint32_t& last_us = L.last_orig_us[lane_index(slot)];
  const std::uint32_t prev_us = last_us;
  last_us = orig_us;
  net::PacketFeature feature;
  feature.length = packet.wire_length;
  if (out.flow.new_flow || out.flow.packet_count <= 1) {
    feature.ipd_code = 0;
  } else {
    const std::uint32_t ipd_us = orig_us - prev_us;  // wrap-aware
    feature.ipd_code = net::encode_ipd(static_cast<sim::SimDuration>(ipd_us) *
                                       sim::kMicrosecond);
  }

  // Forwarding decision — the degradation ladder (DESIGN.md § Failure
  // semantics): a cached DNN verdict wins when present; otherwise the
  // switch-local compiled tree serves. While the watchdog is degraded the
  // tree is the primary verdict source for every flow the DNN never reached,
  // and those verdicts are counted as fallbacks.
  if (out.flow.verdict != kNoVerdict) {
    out.forward_class = static_cast<std::int16_t>(out.flow.verdict);
    out.from_model_engine = true;
  } else if (prelim_table_) {
    const std::uint64_t key = pack_key(
        prelim_layout_, {std::min<std::uint64_t>(feature.length, (1u << 11) - 1),
                         feature.ipd_code});
    if (const auto hit = prelim_table_->lookup_shared(key)) {
      out.forward_class = static_cast<std::int16_t>(hit->action_data);
      out.from_fallback_tree = true;
      if (watchdog_.degraded()) ++L.fallback_verdicts;
    }
  }

  // Rate Limiter: probabilistic token bucket over (T_i, C_i), one draw per
  // packet against the lane's sub-bucket. While the watchdog is degraded,
  // grants are thinned to a probe stream: the few mirrors that do go out are
  // the heartbeats that detect recovery.
  const double t_i = sim::to_seconds(out.flow.backlog_age);
  const double c_i = static_cast<double>(out.flow.backlog_count);
  const std::uint16_t prob = prob_table_.lookup_fixed(t_i, c_i);
  if (bucket_->on_packet(lane, packet.timestamp, prob)) {
    // Overload-admission ladder first (a shed grant never reaches the
    // degraded probe stride, so every shed is attributed exactly once),
    // then the degraded probe thinning.
    bool emit = admission_ == nullptr ||
                admission_->on_grant(lane, out.flow.flow_hash, slot,
                                     packet.tuple.dst_ip);
    if (emit && watchdog_.degraded()) {
      const unsigned stride = std::max(1u, config_.degraded_probe_stride);
      emit = L.degraded_grants++ % stride == 0;
      if (!emit) ++L.mirrors_suppressed;
    }
    if (emit) {
      buffers_->assemble_into(L.mirror_buf, slot, packet.tuple, packet.flow_id,
                              feature, out.flow.ring_slot,
                              out.flow.packet_count - 1, packet.timestamp);
      out.mirrored = &L.mirror_buf;
      tracker_->record_feature_sent(slot, packet.timestamp);
      ++L.mirrors_sent;
    }
  }

  // Deparser-stage register write: current feature enters the ring.
  buffers_->store(slot, out.flow.ring_slot, feature);
  return out;
}

bool DataEngine::deliver_result(const net::InferenceResult& result,
                                VerdictSymbol symbol) {
  // Any verdict making it back is proof of life, stale or not — the slot may
  // have been recycled, but the FPGA computed and returned it. The heartbeat
  // buffers in the result's lane until the next epoch_reconcile().
  const std::uint32_t flow_hash = net::flow_hash32(result.tuple);
  const std::size_t lane = lane_of_slot(tracker_->slot_of(flow_hash));
  watchdog_.buffer_result(lane, result.delivered_at);
  if (tracker_->apply_verdict(flow_hash, symbol)) {
    ++lanes_[lane].results_applied;
    return true;
  }
  ++lanes_[lane].results_stale;
  return false;
}

void DataEngine::control_plane_tick(sim::SimTime now) {
  if (now < last_window_tick_ + config_.window_tw) return;
  const sim::SimDuration elapsed =
      last_window_tick_ == 0 ? config_.window_tw : now - last_window_tick_;
  last_window_tick_ = now;

  // EWMA-smoothed window estimates (N is a count, smoothed as a "rate" over
  // a unit window so the same meter applies).
  const double n_smoothed = flow_rate_meter_.update(
      tracker_->window_new_flows(), sim::kSecond);  // flows per window, smoothed
  const double q_smoothed = packet_rate_meter_.update(
      tracker_->window_packets(), elapsed);

  TrafficStats stats;
  stats.token_rate_v = token_rate_v_;
  stats.flow_count_n = std::max(1.0, n_smoothed);
  stats.packet_rate_q = std::max(1.0, q_smoothed);
  prob_table_.rebuild(stats);
  tracker_->reset_window();
}

}  // namespace fenix::core
