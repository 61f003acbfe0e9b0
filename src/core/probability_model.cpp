#include "core/probability_model.hpp"

#include <algorithm>
#include <cmath>

namespace fenix::core {

double token_rate_from_hardware(double fpga_rate_hz, double bandwidth_bps,
                                double vector_width_bits) {
  if (vector_width_bits <= 0.0) return fpga_rate_hz;
  return std::min(fpga_rate_hz, bandwidth_bps / vector_width_bits);
}

double token_probability(const TrafficStats& stats, double t_i, double c_i) {
  const double v = stats.token_rate_v;
  const double q = stats.packet_rate_q;
  const double n = stats.flow_count_n;
  if (t_i <= 0.0 || c_i <= 0.0 || v <= 0.0 || q <= 0.0 || n <= 0.0) return 0.0;

  const double fair_period = n / v;      // N/V
  const double qt = q * t_i;             // Q T_i
  const double nc = n * c_i;             // N C_i

  double p;
  constexpr double kEps = 1e-12;
  if (std::fabs(qt - nc) < kEps * std::max(qt, nc)) {
    // Degenerate case: flow runs exactly at the average rate — step function
    // at the fair period.
    p = t_i >= fair_period ? 1.0 : 0.0;
  } else if (qt > nc) {
    // Flow slower than average: ramp up from 0 at T_i = N/V.
    p = t_i <= fair_period ? 0.0 : c_i * (v * t_i - n) / (qt - nc);
  } else {
    // Flow faster than average: ramp from 0, reaching 1 at T_i = N/V.
    p = t_i >= fair_period ? 1.0 : t_i * (v * c_i - q) / (nc - qt);
  }
  return std::clamp(p, 0.0, 1.0);
}

ProbabilityLookupTable::ProbabilityLookupTable(std::size_t t_cells,
                                               std::size_t c_cells, double t_max_s,
                                               double c_max, bool log_scale_c,
                                               bool log_scale_t)
    : t_cells_(t_cells == 0 ? 1 : t_cells), c_cells_(c_cells == 0 ? 1 : c_cells),
      t_max_(t_max_s < 2 * kTMin ? 2 * kTMin : t_max_s),
      c_max_(c_max < 2.0 ? 2.0 : c_max), log_scale_c_(log_scale_c),
      log_scale_t_(log_scale_t),
      c_log_base_(std::pow(c_max_, 1.0 / static_cast<double>(c_cells_))),
      t_log_base_(std::pow(t_max_ / kTMin, 1.0 / static_cast<double>(t_cells_))),
      cells_(t_cells_ * c_cells_, 0) {
  for (std::size_t ti = 0; ti < t_cells_; ++ti) {
    t_centers_.push_back(t_cell_center(ti));
  }
  for (std::size_t ci = 0; ci < c_cells_; ++ci) {
    c_centers_.push_back(c_cell_center(ci));
  }
}

std::size_t ProbabilityLookupTable::c_cell_of(double c_i) const {
  if (c_i <= 1.0) return 0;
  if (log_scale_c_) {
    const auto cell =
        static_cast<std::size_t>(std::log(c_i) / std::log(c_log_base_));
    return std::min(cell, c_cells_ - 1);
  }
  const auto cell = static_cast<std::size_t>((c_i - 1.0) / (c_max_ - 1.0) *
                                             static_cast<double>(c_cells_));
  return std::min(cell, c_cells_ - 1);
}

double ProbabilityLookupTable::c_cell_center(std::size_t cell) const {
  if (log_scale_c_) {
    // Geometric mean of the cell boundaries.
    return std::pow(c_log_base_, static_cast<double>(cell) + 0.5);
  }
  return 1.0 + (static_cast<double>(cell) + 0.5) * (c_max_ - 1.0) /
                   static_cast<double>(c_cells_);
}

std::size_t ProbabilityLookupTable::t_cell_of(double t_i) const {
  if (t_i <= 0.0) return 0;
  if (log_scale_t_) {
    if (t_i <= kTMin) return 0;
    const auto cell = static_cast<std::size_t>(std::log(t_i / kTMin) /
                                               std::log(t_log_base_));
    return std::min(cell, t_cells_ - 1);
  }
  const auto cell = static_cast<std::size_t>(t_i / t_max_ *
                                             static_cast<double>(t_cells_));
  return std::min(cell, t_cells_ - 1);
}

double ProbabilityLookupTable::t_cell_center(std::size_t cell) const {
  if (log_scale_t_) {
    return kTMin * std::pow(t_log_base_, static_cast<double>(cell) + 0.5);
  }
  return (static_cast<double>(cell) + 0.5) * t_max_ /
         static_cast<double>(t_cells_);
}

void ProbabilityLookupTable::rebuild(const TrafficStats& stats) {
  stats_ = stats;
  for (std::size_t ti = 0; ti < t_cells_; ++ti) {
    // Cell centers, matching how the control plane samples the model.
    const double t = t_centers_[ti];
    for (std::size_t ci = 0; ci < c_cells_; ++ci) {
      const double c = c_centers_[ci];
      const double p = token_probability(stats, t, c);
      cells_[ti * c_cells_ + ci] =
          static_cast<std::uint16_t>(std::lround(p * 65535.0));
    }
  }
}

std::size_t ProbabilityLookupTable::index(double t_i, double c_i) const {
  return t_cell_of(t_i) * c_cells_ + c_cell_of(c_i);
}

std::uint16_t ProbabilityLookupTable::lookup_fixed(double t_i, double c_i) const {
  return cells_[index(t_i, c_i)];
}

}  // namespace fenix::core
