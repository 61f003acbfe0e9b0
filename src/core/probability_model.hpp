// The Rate Limiter's probabilistic token-allocation model (§4.2, Eq. 2) and
// its control-plane lookup-table discretization.
//
// Variables follow Table 5 of the paper:
//   V  token generation rate            (tokens/s, Eq. 1: V = min(F, B/W))
//   Q  global packet rate               (packets/s)
//   N  number of active flows
//   T_i time since flow i last sent features (s)
//   C_i packets from flow i in that period
//
// The model linearly interpolates the transmission probability between the
// fair period N/V and the rate-proportional period Q/(Q_i V), giving faster
// flows proportionally more transmissions while guaranteeing every flow an
// expected period averaging N/V (Appendix A).
#pragma once

#include <cstdint>
#include <vector>

namespace fenix::core {

/// Global traffic statistics the model is parameterized on.
struct TrafficStats {
  double token_rate_v = 1e6;   ///< V, tokens per second.
  double packet_rate_q = 1e7;  ///< Q, aggregate packets per second.
  double flow_count_n = 1000;  ///< N, active flows.
};

/// Computes Eq. 1: V = min(F, B/W) with F the FPGA inference rate (1/s),
/// B the channel bandwidth (bits/s) and W the feature vector width (bits).
double token_rate_from_hardware(double fpga_rate_hz, double bandwidth_bps,
                                double vector_width_bits);

/// Exact evaluation of Eq. 2. `t_i` in seconds, `c_i` packets (>= 1).
/// Returns a probability in [0, 1].
double token_probability(const TrafficStats& stats, double t_i, double c_i);

/// Control-plane discretization of the probability model: a uniform
/// (T_i, C_i) grid holding 16-bit fixed-point probabilities, the form the
/// data plane can actually look up (§4.2 "Probability Model Deployment").
class ProbabilityLookupTable {
 public:
  /// Grid resolution `t_cells` x `c_cells` covering T_i in (0, t_max_s] and
  /// C_i in [1, c_max]. With `log_scale_c` / `log_scale_t` the respective
  /// axis is partitioned geometrically (the data plane derives the bucket
  /// from the leading-one position of the counter), which preserves
  /// resolution near the origin where the probability ramp lives — uniform
  /// partitioning collapses everything below range/cells into one cell.
  /// Log-scale T spans [1 us, t_max_s].
  ProbabilityLookupTable(std::size_t t_cells, std::size_t c_cells, double t_max_s,
                         double c_max, bool log_scale_c = false,
                         bool log_scale_t = false);

  /// Rebuilds the table for new traffic statistics (control-plane refresh at
  /// each window T_w): one Eq. 2 evaluation per cell, at cell centres
  /// computed once at construction.
  void rebuild(const TrafficStats& stats);

  /// Data-plane lookup: 16-bit fixed-point probability (0..65535) for the
  /// cell containing (t_i, c_i). Out-of-range values clamp to the edge cells.
  std::uint16_t lookup_fixed(double t_i, double c_i) const;

  /// Convenience: lookup as a double in [0, 1].
  double lookup(double t_i, double c_i) const {
    return static_cast<double>(lookup_fixed(t_i, c_i)) / 65535.0;
  }

  std::size_t t_cells() const { return t_cells_; }
  std::size_t c_cells() const { return c_cells_; }
  double t_max() const { return t_max_; }
  double c_max() const { return c_max_; }
  const TrafficStats& stats() const { return stats_; }

  /// SRAM bits the table occupies in the data plane (16 bits per cell).
  std::uint64_t sram_bits() const {
    return static_cast<std::uint64_t>(t_cells_) * c_cells_ * 16;
  }

 private:
  std::size_t index(double t_i, double c_i) const;
  std::size_t c_cell_of(double c_i) const;
  double c_cell_center(std::size_t cell) const;
  std::size_t t_cell_of(double t_i) const;
  double t_cell_center(std::size_t cell) const;

  std::size_t t_cells_, c_cells_;
  double t_max_, c_max_;
  bool log_scale_c_, log_scale_t_;
  double c_log_base_;  ///< Geometric growth factor per C cell.
  double t_log_base_;  ///< Geometric growth factor per T cell.
  static constexpr double kTMin = 1e-6;  ///< Log-scale T origin (1 us).
  /// The axes' cell centres, where rebuild() samples the model; they
  /// depend only on the grid.
  std::vector<double> t_centers_, c_centers_;
  TrafficStats stats_;
  std::vector<std::uint16_t> cells_;
};

}  // namespace fenix::core
