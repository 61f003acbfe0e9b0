// The Model Engine (§5): Vector I/O Processor + DNN Inference Module on the
// FPGA.
//
// Functional behaviour comes from the INT8-quantized models (nn::QuantizedCnn
// / nn::QuantizedRnn) — the exact arithmetic the systolic array executes;
// the replay computes it in batches (core::InferenceBatcher). Timing comes
// from the fpgasim cycle model: per inference, embedding lookup cycles plus
// the layer-by-layer systolic schedule. Every vector enters through one of
// the kCoordinationLanes lane ports, each with its own slice of the input
// FIFO and its own array clock (ROADMAP item 1). A port serves vectors in the
// order it admits them, so each result carries the flow identifier admitted
// with it — the Flow Identifier Queue's FIFO re-pairing (§5.1). Input and
// output crossings pay an async-FIFO synchronizer latency.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/lane_coordination.hpp"
#include "fpgasim/device.hpp"
#include "fpgasim/resource_model.hpp"
#include "fpgasim/systolic.hpp"
#include "net/feature.hpp"
#include "nn/quantize.hpp"

namespace fenix::core {

struct ModelEngineConfig {
  fpgasim::SystolicConfig systolic;
  fpgasim::DeviceProfile device = fpgasim::DeviceProfile::zu19eg();

  /// Feature async-FIFO slots (bounds the bucket cap), split evenly over
  /// the lane ports: each holds max(1, depth / kCoordinationLanes).
  std::size_t input_queue_depth = 64;
  unsigned sync_cycles = 4;  ///< CDC synchronizer latency per crossing.

  /// Layer-pipelined dataflow (§5.2: "Asynchronous FIFO queues decouple
  /// dataflow between layers and enable efficient pipelining"): each layer
  /// block starts the next inference as soon as it hands off the current
  /// one, so the initiation interval is the slowest layer's cycles, not the
  /// whole network's. false = one shared array, fully serialized.
  bool layer_pipelined = true;

  /// Nonzero forces the initiation interval to this many cycles regardless
  /// of the layer schedule. Used by the Figure 10 scaling study to model the
  /// paper's claimed 75 Mpps Model Engine processing rate (Figure 6's
  /// parameters), which implies a far deeper pipeline than the cycle model
  /// derives; see EXPERIMENTS.md for the discussion.
  std::uint64_t ii_override_cycles = 0;

  // Per-module MAC lane budgets for the resource estimate (Table 4). These
  // describe the synthesized module sizes, not the shared-array timing.
  unsigned conv_lanes = 3072;
  unsigned fc_lanes = 1024;
  unsigned recurrent_lanes = 1792;
  fpgasim::CostModel cost_model;
};

struct ModelEngineStats {
  std::uint64_t inferences = 0;
  std::uint64_t input_drops = 0;  ///< Feature vectors lost to FIFO overflow.
  std::uint64_t reconfig_drops = 0;  ///< Vectors arriving mid-reconfiguration.
  std::uint64_t reconfigurations = 0;
  std::uint64_t stall_drops = 0;  ///< Vectors arriving while the card is down.
  std::uint64_t fifo_peak = 0;  ///< Most vectors one lane's FIFO held at once.

  /// Merge: counters summed, fifo_peak maxed.
  ModelEngineStats& operator+=(const ModelEngineStats& o) {
    inferences += o.inferences;
    input_drops += o.input_drops;
    reconfig_drops += o.reconfig_drops;
    reconfigurations += o.reconfigurations;
    stall_drops += o.stall_drops;
    fifo_peak = std::max(fifo_peak, o.fifo_peak);
    return *this;
  }
};

class ModelEngine {
 public:
  /// Exactly one of `cnn` / `rnn` must be non-null; the engine does not own
  /// the model (synthesis-time binding, §5.2).
  ModelEngine(const ModelEngineConfig& config, const nn::QuantizedCnn* cnn,
              const nn::QuantizedRnn* rnn);

  // The Device reset hook captures `this`; copying or moving the engine
  // would leave the hook pointing at the old object.
  ModelEngine(const ModelEngine&) = delete;
  ModelEngine& operator=(const ModelEngine&) = delete;

  /// Admits a feature vector arriving at the FPGA at `arrival` through lane
  /// port `lane`: timing and FIFO occupancy only; the caller computes the
  /// class (predicted_class is -1) and the result carries the vector's
  /// tuple and flow_id. nullopt = dropped: mid-reconfiguration, card down,
  /// or the lane's FIFO full (max(1, input_queue_depth / kCoordinationLanes)
  /// slots; an admitted vector holds its slot until its inference finishes).
  /// Each lane is driven by exactly one thread between barriers, so pipe
  /// workers submit concurrently on distinct lanes without locks.
  std::optional<net::InferenceResult> submit_timed_lane(std::size_t lane,
                                                        const net::FeatureVector& vec,
                                                        sim::SimTime arrival);

  /// Model accessors for external batched inference (the ModelPool runs
  /// predict_batch against the same bound model the engine would use).
  const nn::QuantizedCnn* cnn() const { return cnn_; }
  const nn::QuantizedRnn* rnn() const { return rnn_; }

  /// Precision tier of the bound model (kInt8 when no model is bound).
  nn::Precision precision() const {
    if (cnn_ != nullptr) return cnn_->precision();
    if (rnn_ != nullptr) return rnn_->precision();
    return nn::Precision::kInt8;
  }

  /// Pure compute latency of one inference (pipeline empty).
  sim::SimDuration inference_latency() const { return timer_.to_time(cycles_per_inference_); }
  std::uint64_t cycles_per_inference() const { return cycles_per_inference_; }

  /// Initiation interval: cycles between back-to-back inference starts.
  std::uint64_t initiation_interval_cycles() const { return ii_cycles_; }

  /// Sustained inference rate (1/s) when the pipeline is saturated.
  double inference_rate_hz() const;

  /// Per-module FPGA resource estimates (Table 4 rows).
  std::vector<fpgasim::ResourceEstimate> resource_report() const;

  /// Partial dynamic reconfiguration (§2 / §8): swaps the bound model
  /// without disturbing switch forwarding. The engine drops feature vectors
  /// for `duration` (typical partial-bitstream loads are tens of
  /// milliseconds), then resumes with the new model's timing and weights.
  /// Exactly one of `cnn` / `rnn` must be non-null.
  void begin_reconfiguration(sim::SimTime now, const nn::QuantizedCnn* cnn,
                             const nn::QuantizedRnn* rnn,
                             sim::SimDuration duration = sim::milliseconds(20));

  /// True while a reconfiguration is in progress at `now`.
  bool reconfiguring(sim::SimTime now) const { return now < reconfig_until_; }

  /// The live card this engine runs on. Fault injection drives outages
  /// through its stall()/reset() hooks; reset() empties every lane's FIFO
  /// via the registered reset hook.
  fpgasim::Device& device() { return device_; }
  const fpgasim::Device& device() const { return device_; }

  /// Shrinks (or restores) the feature async-FIFO depth mid-run — the Model
  /// Engine FIFO fault. Depth is clamped to >= 1; entries already queued
  /// drain normally, but admission immediately honours the new bound.
  void set_input_queue_depth(std::size_t depth);
  std::size_t input_queue_depth() const { return config_.input_queue_depth; }

  /// Engine-wide view: every lane port's stats merged with +=.
  ModelEngineStats stats() const;
  /// One lane port's stats (its reconfigurations count stays 0).
  const ModelEngineStats& lane_stats(std::size_t lane) const {
    return ports_[lane].stats;
  }
  const ModelEngineConfig& config() const { return config_; }
  bool is_cnn() const { return cnn_ != nullptr; }

 private:
  /// Computes (total latency cycles, slowest layer-stage cycles).
  std::pair<std::uint64_t, std::uint64_t> compute_cycles() const;
  /// Binds exactly one of `cnn` / `rnn` (else throws std::invalid_argument,
  /// changing nothing) and derives the latency and initiation interval from
  /// it, ii_override_cycles winning when set.
  void bind_model(const nn::QuantizedCnn* cnn, const nn::QuantizedRnn* rnn);

  ModelEngineConfig config_;
  const nn::QuantizedCnn* cnn_ = nullptr;
  const nn::QuantizedRnn* rnn_ = nullptr;
  fpgasim::Device device_;  ///< Runtime card state (fault hooks live here).
  fpgasim::SystolicTimer timer_;
  std::uint64_t cycles_per_inference_ = 0;
  std::uint64_t ii_cycles_ = 0;
  sim::SimDuration sync_latency_;

  sim::SimTime reconfig_until_ = 0;
  std::uint64_t reconfigurations_ = 0;

  /// One lane's slice of the front end. Each lane is driven by exactly one
  /// pipe worker between barriers, so no synchronization is needed; the
  /// shared members a lane submit reads (device window, reconfig window,
  /// config depths) change only at epoch barriers.
  struct alignas(64) EnginePort {
    /// Finish times of the admitted vectors still holding a FIFO slot.
    std::deque<sim::SimTime> pending_finishes;
    sim::SimTime array_free_at = 0;  ///< Next admissible inference start.
    ModelEngineStats stats;
  };
  std::array<EnginePort, kCoordinationLanes> ports_;
  /// Empties every lane's FIFO; no inference starts before `free_at`.
  void clear_ports(sim::SimTime free_at);
};

}  // namespace fenix::core
