// Shared declarations of the replay benchmark (see README.md in this
// directory for the workloads and the metric list).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fenix_system.hpp"
#include "net/packet.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"

namespace perfbench {

namespace core = fenix::core;
namespace net = fenix::net;
namespace nn = fenix::nn;
namespace sim = fenix::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One named measurement as it appears in the result JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Everything a workload's replays need, generated from the seed before any
/// timing starts: the trained and quantized model, the materialized trace,
/// and the system configuration it replays under.
struct Workload {
  std::string name;
  core::FenixSystemConfig config;
  std::unique_ptr<nn::QuantizedCnn> qcnn;
  net::Trace trace;
  std::size_t classes = 0;
  std::uint64_t labeled_flows = 0;  ///< Flows with a label in [0, classes).
  double gen_s = 0.0;               ///< Host seconds spent generating the trace.
};

/// The workload names make_workload accepts, in canonical order.
const std::vector<std::string>& workload_names();

/// Builds one workload (dataset synthesis, CNN training + quantization, trace
/// generation). Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Order-sensitive digest of a trace, so repeated set-ups can be checked to
/// generate the same input.
std::uint64_t trace_digest(const net::Trace& trace);

/// Median of a non-empty sample (taken by value: it is partially sorted).
inline double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  const double upper = v[v.size() / 2];
  if (v.size() % 2 == 1) return upper;
  return (upper + *std::max_element(v.begin(), v.begin() + v.size() / 2)) / 2;
}

/// Drives each layer's public entry points directly on the workload's own
/// inputs and appends the per-layer metrics (data_engine.*, nn.*, batcher.*,
/// model_engine.*, link.*, admission.on_grant_ns, runtime.*). `threads` is
/// the worker count the replays use. Returns how many of the drives' own
/// output checks failed.
std::size_t drive_layers(const Workload& workload, std::size_t threads,
                         Metrics& out);

}  // namespace perfbench
