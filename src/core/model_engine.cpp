#include "core/model_engine.hpp"

#include <stdexcept>

namespace fenix::core {

ModelEngine::ModelEngine(const ModelEngineConfig& config, const nn::QuantizedCnn* cnn,
                         const nn::QuantizedRnn* rnn)
    : config_(config), device_(config.device), timer_(config.systolic) {
  bind_model(cnn, rnn);
  sync_latency_ = timer_.clock().cycles(config_.sync_cycles);
  // A card reset loses everything staged in the fabric: every lane's input
  // FIFO and the flow identifiers parked with it.
  device_.set_reset_hook(
      [this](sim::SimTime) { clear_ports(device_.down_until()); });
}

void ModelEngine::bind_model(const nn::QuantizedCnn* cnn,
                             const nn::QuantizedRnn* rnn) {
  if ((cnn == nullptr) == (rnn == nullptr)) {
    throw std::invalid_argument("ModelEngine: exactly one model must be bound");
  }
  cnn_ = cnn;
  rnn_ = rnn;
  const auto [latency, slowest_stage] = compute_cycles();
  cycles_per_inference_ = latency;
  ii_cycles_ = config_.layer_pipelined ? slowest_stage : latency;
  if (config_.ii_override_cycles != 0) ii_cycles_ = config_.ii_override_cycles;
}

void ModelEngine::clear_ports(sim::SimTime free_at) {
  for (EnginePort& port : ports_) {
    port.pending_finishes.clear();
    port.array_free_at = free_at;
  }
}

void ModelEngine::set_input_queue_depth(std::size_t depth) {
  config_.input_queue_depth = depth == 0 ? 1 : depth;
}

std::pair<std::uint64_t, std::uint64_t> ModelEngine::compute_cycles() const {
  std::uint64_t total = 0;
  std::uint64_t slowest = 0;
  const auto add_stage = [&](std::uint64_t cycles) {
    total += cycles;
    slowest = std::max(slowest, cycles);
  };
  if (cnn_) {
    const nn::CnnConfig& c = cnn_->config();
    const auto T = static_cast<unsigned>(c.seq_len);
    add_stage(timer_.embedding_cycles(2 * T));
    unsigned in_ch = static_cast<unsigned>(c.embed_dim());
    for (std::size_t i = 0; i < c.conv_channels.size(); ++i) {
      const auto out_ch = static_cast<unsigned>(c.conv_channels[i]);
      add_stage(timer_.conv1d_cycles(in_ch, out_ch,
                                     static_cast<unsigned>(c.kernel), T));
      in_ch = out_ch;
    }
    // Global average pool: one pass over T x C (C/cols lanes per cycle).
    add_stage(T * ((in_ch + config_.systolic.cols - 1) / config_.systolic.cols));
    unsigned in = in_ch;
    for (std::size_t dim : c.fc_dims) {
      add_stage(timer_.matvec_cycles(in, static_cast<unsigned>(dim)));
      in = static_cast<unsigned>(dim);
    }
    add_stage(timer_.matvec_cycles(in, static_cast<unsigned>(c.num_classes)));
  } else {
    const nn::RnnConfig& c = rnn_->config();
    const auto T = static_cast<unsigned>(c.seq_len);
    add_stage(timer_.embedding_cycles(2 * T));
    add_stage(timer_.recurrent_cycles(static_cast<unsigned>(c.embed_dim()),
                                      static_cast<unsigned>(c.units), 1, T));
    unsigned in = static_cast<unsigned>(c.units);
    for (std::size_t dim : c.fc_dims) {
      add_stage(timer_.matvec_cycles(in, static_cast<unsigned>(dim)));
      in = static_cast<unsigned>(dim);
    }
    add_stage(timer_.matvec_cycles(in, static_cast<unsigned>(c.num_classes)));
  }
  return {total, slowest};
}

double ModelEngine::inference_rate_hz() const {
  const double cycle_time_s = 1.0 / config_.systolic.clock_hz;
  return 1.0 / (static_cast<double>(ii_cycles_) * cycle_time_s);
}

void ModelEngine::begin_reconfiguration(sim::SimTime now, const nn::QuantizedCnn* cnn,
                                        const nn::QuantizedRnn* rnn,
                                        sim::SimDuration duration) {
  bind_model(cnn, rnn);
  reconfig_until_ = now + duration;
  // In-flight work is abandoned with the old bitstream region.
  clear_ports(reconfig_until_);
  ++reconfigurations_;
}

std::optional<net::InferenceResult> ModelEngine::submit_timed_lane(
    std::size_t lane, const net::FeatureVector& vec, sim::SimTime arrival) {
  EnginePort& port = ports_[lane];
  if (arrival < reconfig_until_) {
    ++port.stats.reconfig_drops;
    return std::nullopt;
  }
  if (!device_.available(arrival)) {
    ++port.stats.stall_drops;
    return std::nullopt;
  }
  // Free the slots of the inferences finished by now.
  while (!port.pending_finishes.empty() &&
         port.pending_finishes.front() <= arrival) {
    port.pending_finishes.pop_front();
  }
  const std::size_t lane_depth =
      std::max<std::size_t>(1, config_.input_queue_depth / kCoordinationLanes);
  if (port.pending_finishes.size() >= lane_depth) {
    ++port.stats.input_drops;
    return std::nullopt;
  }
  // The vector becomes visible to the inference clock domain after the CDC
  // synchronizer, then waits for the lane's next initiation slot.
  const sim::SimTime visible = arrival + sync_latency_;
  const sim::SimTime start =
      visible > port.array_free_at ? visible : port.array_free_at;
  const sim::SimTime finish = start + timer_.to_time(cycles_per_inference_);
  port.array_free_at = start + timer_.to_time(ii_cycles_);
  port.pending_finishes.push_back(finish);
  port.stats.fifo_peak =
      std::max<std::uint64_t>(port.stats.fifo_peak, port.pending_finishes.size());
  ++port.stats.inferences;

  // The port finishes vectors in admission order, so the result pairs with
  // the identifier admitted with it, then crosses the output async FIFO.
  net::InferenceResult result;
  result.tuple = vec.tuple;
  result.flow_id = vec.flow_id;
  result.inference_started = start;
  result.inference_finished = finish + sync_latency_;
  return result;
}

ModelEngineStats ModelEngine::stats() const {
  ModelEngineStats total;
  for (const EnginePort& port : ports_) total += port.stats;
  total.reconfigurations = reconfigurations_;
  return total;
}

std::vector<fpgasim::ResourceEstimate> ModelEngine::resource_report() const {
  std::vector<fpgasim::ResourceEstimate> report;
  const fpgasim::CostModel& cm = config_.cost_model;
  if (cnn_) {
    const nn::CnnConfig& c = cnn_->config();
    report.push_back(fpgasim::estimate_embedding(
        cm, static_cast<unsigned>(nn::kLenVocab + nn::kIpdVocab),
        static_cast<unsigned>(c.embed_dim()), static_cast<unsigned>(2 * c.seq_len)));
    std::vector<unsigned> channels{static_cast<unsigned>(c.embed_dim())};
    for (std::size_t ch : c.conv_channels) channels.push_back(static_cast<unsigned>(ch));
    report.push_back(fpgasim::estimate_conv_stack(
        cm, channels, static_cast<unsigned>(c.kernel), config_.conv_lanes));
    // FC stack reported as one module (Table 4 row "FC").
    fpgasim::ResourceEstimate fc;
    fc.module = "FC";
    unsigned in = channels.back();
    bool first = true;
    for (std::size_t dim : c.fc_dims) {
      auto est = fpgasim::estimate_fc(cm, in, static_cast<unsigned>(dim),
                                      first ? config_.fc_lanes : config_.fc_lanes / 4);
      fc += est;
      in = static_cast<unsigned>(dim);
      first = false;
    }
    fc += fpgasim::estimate_fc(cm, in, static_cast<unsigned>(c.num_classes),
                               config_.fc_lanes / 8);
    report.push_back(fc);
  } else {
    const nn::RnnConfig& c = rnn_->config();
    report.push_back(fpgasim::estimate_embedding(
        cm, static_cast<unsigned>(nn::kLenVocab + nn::kIpdVocab),
        static_cast<unsigned>(c.embed_dim()), static_cast<unsigned>(2 * c.seq_len)));
    report.push_back(fpgasim::estimate_recurrent(
        cm, static_cast<unsigned>(c.embed_dim()), static_cast<unsigned>(c.units), 1,
        config_.recurrent_lanes));
    fpgasim::ResourceEstimate fc;
    fc.module = "FC";
    unsigned in = static_cast<unsigned>(c.units);
    bool first = true;
    for (std::size_t dim : c.fc_dims) {
      fc += fpgasim::estimate_fc(cm, in, static_cast<unsigned>(dim),
                                 first ? config_.fc_lanes : config_.fc_lanes / 4);
      in = static_cast<unsigned>(dim);
      first = false;
    }
    fc += fpgasim::estimate_fc(cm, in, static_cast<unsigned>(c.num_classes),
                               config_.fc_lanes / 8);
    report.push_back(fc);
  }
  // Vector I/O Processor: 512-bit datapath at 100G, three FIFOs.
  report.push_back(fpgasim::estimate_vector_io(
      cm, 512, static_cast<unsigned>(config_.input_queue_depth), 512));
  return report;
}

}  // namespace fenix::core
