#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/serialize.hpp"  // pack_ternary / pack_int4 bit-packing helpers

namespace fenix::nn {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
    case Precision::kInt4: return "int4";
    case Precision::kTernary: return "ternary";
  }
  return "unknown";
}

bool parse_precision(const std::string& s, Precision& out) {
  if (s == "fp32") { out = Precision::kFp32; return true; }
  if (s == "int8") { out = Precision::kInt8; return true; }
  if (s == "int4") { out = Precision::kInt4; return true; }
  if (s == "ternary") { out = Precision::kTernary; return true; }
  return false;
}

int weight_bits(Precision p) {
  switch (p) {
    case Precision::kFp32: return 32;
    case Precision::kInt8: return 8;
    case Precision::kInt4: return 4;
    case Precision::kTernary: return 2;
  }
  return 0;
}

int choose_exponent(const float* values, std::size_t n) {
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < n; ++i) max_abs = std::max(max_abs, std::fabs(values[i]));
  if (max_abs == 0.0f) return -7;
  int e = -24;
  while (127.0 * std::ldexp(1.0, e) < max_abs) ++e;
  return e;
}

void quantize_to_i8(const float* src, std::size_t n, int e, std::int8_t* dst) {
  const double inv_scale = std::ldexp(1.0, -e);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = saturate_i8(static_cast<std::int64_t>(
        std::llround(static_cast<double>(src[i]) * inv_scale)));
  }
}

QMatrix QMatrix::from(const Matrix& m) {
  QMatrix q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.exponent = choose_exponent(m.data(), m.size());
  q.data.resize(m.size());
  quantize_to_i8(m.data(), m.size(), q.exponent, q.data.data());
  return q;
}

// ------------------------------------------------- Sub-INT8 packed weights

namespace {

std::size_t packed_row_bytes(Precision p, std::size_t cols) {
  return p == Precision::kTernary ? packed_size_ternary(cols)
                                  : packed_size_int4(cols);
}

int sub8_weight_bias(Precision p) {
  return p == Precision::kTernary ? 1 : 8;
}

/// Per-row bias/shift at the row's accumulator exponent row_e[r] + in_e.
void sub8_bias_shift(const QPackedMatrix& w, const std::vector<float>& fbias,
                     int in_e, int out_e, std::vector<std::int32_t>& bias,
                     std::vector<std::int32_t>& shift) {
  bias.resize(w.rows);
  shift.resize(w.rows);
  for (std::size_t r = 0; r < w.rows; ++r) {
    const int acc_e = w.row_exponent[r] + in_e;
    bias[r] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(fbias[r]) * std::ldexp(1.0, -acc_e)));
    shift[r] = out_e - acc_e;
  }
}

}  // namespace

QPackedMatrix QPackedMatrix::from(const Matrix& m, Precision p) {
  if (p != Precision::kInt4 && p != Precision::kTernary) {
    throw QuantizeError(std::string("QPackedMatrix::from: precision ") +
                        precision_name(p) + " is not a packed sub-INT8 format");
  }
  QPackedMatrix q;
  q.precision = p;
  q.rows = m.rows();
  q.cols = m.cols();
  q.row_bytes = packed_row_bytes(p, q.cols);
  q.packed.resize(q.rows * q.row_bytes);
  q.row_exponent.resize(q.rows);
  std::vector<std::int8_t> qrow(q.cols);
  for (std::size_t r = 0; r < q.rows; ++r) {
    const float* wr = m.data() + r * q.cols;
    int e = -7;  // All-zero rows stay at the finest exponent, weights 0.
    std::fill(qrow.begin(), qrow.end(), 0);
    if (p == Precision::kTernary) {
      // BitNet-b1.58 absmean: scale by the row's mean magnitude, round, clip.
      double s = 0.0;
      for (std::size_t c = 0; c < q.cols; ++c) s += std::fabs(wr[c]);
      s /= static_cast<double>(q.cols);
      if (s > 0.0) {
        e = static_cast<int>(std::llround(std::log2(s)));
        const double inv = std::ldexp(1.0, -e);
        for (std::size_t c = 0; c < q.cols; ++c) {
          const auto v = std::llround(static_cast<double>(wr[c]) * inv);
          qrow[c] = static_cast<std::int8_t>(std::clamp<long long>(v, -1, 1));
        }
      }
    } else {
      // Absmax: the finest exponent whose 7-step grid covers the row.
      float max_abs = 0.0f;
      for (std::size_t c = 0; c < q.cols; ++c) {
        max_abs = std::max(max_abs, std::fabs(wr[c]));
      }
      if (max_abs > 0.0f) {
        e = -24;
        while (7.0 * std::ldexp(1.0, e) < max_abs) ++e;
        const double inv = std::ldexp(1.0, -e);
        for (std::size_t c = 0; c < q.cols; ++c) {
          const auto v = std::llround(static_cast<double>(wr[c]) * inv);
          qrow[c] = static_cast<std::int8_t>(std::clamp<long long>(v, -7, 7));
        }
      }
    }
    q.row_exponent[r] = e;
    const auto bytes = p == Precision::kTernary
                           ? pack_ternary(qrow.data(), q.cols)
                           : pack_int4(qrow.data(), q.cols);
    std::memcpy(q.packed.data() + r * q.row_bytes, bytes.data(), q.row_bytes);
  }
  q.validate();
  return q;
}

void QPackedMatrix::validate() const {
  if (precision != Precision::kInt4 && precision != Precision::kTernary) {
    throw QuantizeError(std::string("QPackedMatrix: precision ") +
                        precision_name(precision) +
                        " is not a packed sub-INT8 format");
  }
  const std::size_t want = packed_row_bytes(precision, cols);
  if (row_bytes != want) {
    throw QuantizeError("QPackedMatrix: row_bytes " + std::to_string(row_bytes) +
                        " does not match the " + precision_name(precision) +
                        " packed size " + std::to_string(want) + " of " +
                        std::to_string(cols) + " columns");
  }
  if (packed.size() != rows * row_bytes) {
    throw QuantizeError("QPackedMatrix: packed slab holds " +
                        std::to_string(packed.size()) + " bytes, layout needs " +
                        std::to_string(rows * row_bytes) + " (" +
                        std::to_string(rows) + " rows x " +
                        std::to_string(row_bytes) + " bytes)");
  }
  if (row_exponent.size() != rows) {
    throw QuantizeError("QPackedMatrix: " + std::to_string(row_exponent.size()) +
                        " row exponents for " + std::to_string(rows) + " rows");
  }
  if (precision == Precision::kTernary && cols > 65535) {
    throw QuantizeError("QPackedMatrix: " + std::to_string(cols) +
                        " columns exceeds the uint16 ternary index range");
  }
}

std::vector<std::int8_t> QPackedMatrix::unpack() const {
  validate();
  std::vector<std::int8_t> plane(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* src = packed.data() + r * row_bytes;
    std::int8_t* dst = plane.data() + r * cols;
    if (precision == Precision::kTernary) {
      unpack_ternary(src, cols, dst);
    } else {
      unpack_int4(src, cols, dst);
    }
  }
  return plane;
}

PackedOperands PackedOperands::prepare(const QPackedMatrix& m) {
  PackedOperands ops;
  ops.plane = m.unpack();
  const int B = sub8_weight_bias(m.precision);
  ops.biased.resize(ops.plane.size());
  for (std::size_t i = 0; i < ops.plane.size(); ++i) {
    ops.biased[i] = static_cast<std::uint8_t>(static_cast<int>(ops.plane[i]) + B);
  }
  if (m.precision == Precision::kTernary) {
    ops.seg.reserve(2 * m.rows + 1);
    ops.seg.push_back(0);
    for (std::size_t r = 0; r < m.rows; ++r) {
      const std::int8_t* row = ops.plane.data() + r * m.cols;
      for (std::size_t c = 0; c < m.cols; ++c) {
        if (row[c] == 1) ops.idx.push_back(static_cast<std::uint16_t>(c));
      }
      ops.seg.push_back(static_cast<std::uint32_t>(ops.idx.size()));
      for (std::size_t c = 0; c < m.cols; ++c) {
        if (row[c] == -1) ops.idx.push_back(static_cast<std::uint16_t>(c));
      }
      ops.seg.push_back(static_cast<std::uint32_t>(ops.idx.size()));
    }
  }
  return ops;
}

// -------------------------------------------------------------- QPackedDense

QPackedDense QPackedDense::from(const Dense& d, Precision p, int in_exponent,
                                int out_exponent) {
  QPackedDense q;
  q.w = QPackedMatrix::from(d.weights(), p);
  q.ops = PackedOperands::prepare(q.w);
  q.in_exponent = in_exponent;
  q.out_exponent = out_exponent;
  sub8_bias_shift(q.w, d.bias(), in_exponent, out_exponent, q.bias, q.shift);
  return q;
}

void QPackedDense::forward(const std::int8_t* x, std::int8_t* y,
                           bool relu) const {
  if (w.precision == Precision::kTernary) {
    kernels::gemv_ternary(ops.idx.data(), ops.seg.data(), w.rows, x,
                          bias.data(), shift.data(), relu, y);
  } else {
    kernels::gemv_i4(ops.plane.data(), w.rows, w.cols, w.cols, x, bias.data(),
                     shift.data(), relu, y);
  }
}

void QPackedDense::forward_simd(const std::int8_t* x, std::int8_t* y,
                                bool relu) const {
  kernels::gemv_sub8_simd(ops.biased.data(), w.rows, w.cols, w.cols,
                          sub8_weight_bias(w.precision), x, bias.data(),
                          shift.data(), relu, y);
}

void QPackedDense::forward_reference(const std::int8_t* x, std::int8_t* y,
                                     bool relu) const {
  if (w.precision == Precision::kTernary) {
    kernels::gemv_ternary_packed_ref(w.packed.data(), w.rows, w.row_bytes,
                                     w.cols, x, bias.data(), shift.data(), relu,
                                     y);
  } else {
    kernels::gemv_i4_packed_ref(w.packed.data(), w.rows, w.row_bytes, w.cols, x,
                                bias.data(), shift.data(), relu, y);
  }
}

// ------------------------------------------------------------- QPackedConv1D

QPackedConv1D QPackedConv1D::from(const Conv1D& c, Precision p, int in_exponent,
                                  int out_exponent) {
  QPackedConv1D q;
  q.in_ch = c.in_channels();
  q.out_ch = c.out_channels();
  q.kernel = c.kernel();
  q.w = QPackedMatrix::from(c.weights(), p);
  q.ops = PackedOperands::prepare(q.w);
  q.in_exponent = in_exponent;
  q.out_exponent = out_exponent;
  sub8_bias_shift(q.w, c.bias(), in_exponent, out_exponent, q.bias, q.shift);
  return q;
}

void QPackedConv1D::forward(const std::int8_t* x, std::size_t T, std::int8_t* y,
                            bool relu) const {
  if (w.precision == Precision::kTernary) {
    kernels::conv1d_ternary(ops.idx.data(), ops.seg.data(), out_ch, in_ch,
                            kernel, x, T, bias.data(), shift.data(), relu, y);
  } else {
    kernels::conv1d_i4(ops.plane.data(), out_ch, in_ch, kernel, x, T,
                       bias.data(), shift.data(), relu, y);
  }
}

void QPackedConv1D::forward_simd(const std::int8_t* x, std::size_t T,
                                 std::int8_t* y, bool relu) const {
  kernels::conv1d_sub8_simd(ops.biased.data(), out_ch, in_ch, kernel,
                            sub8_weight_bias(w.precision), x, T, bias.data(),
                            shift.data(), relu, y);
}

void QPackedConv1D::forward_reference(const std::int8_t* x, std::size_t T,
                                      std::int8_t* y, bool relu) const {
  // Per-tap bounds-checked loop reading the packed bytes directly, mirroring
  // QConv1D::forward_reference.
  const auto pad = static_cast<std::ptrdiff_t>(kernel / 2);
  const bool ternary = w.precision == Precision::kTernary;
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t o = 0; o < out_ch; ++o) {
      std::int64_t acc = bias[o];
      const std::uint8_t* row = w.packed.data() + o * w.row_bytes;
      for (std::size_t k = 0; k < kernel; ++k) {
        const std::ptrdiff_t src =
            static_cast<std::ptrdiff_t>(t) + static_cast<std::ptrdiff_t>(k) - pad;
        if (src < 0 || src >= static_cast<std::ptrdiff_t>(T)) continue;
        const std::int8_t* xs = x + static_cast<std::size_t>(src) * in_ch;
        for (std::size_t c = 0; c < in_ch; ++c) {
          const std::size_t j = k * in_ch + c;
          int wv;
          if (ternary) {
            const unsigned code = (row[j / 4] >> (2 * (j % 4))) & 0x3u;
            wv = code == 2 ? -1 : static_cast<int>(code);
          } else {
            const unsigned nib = (row[j / 2] >> (4 * (j % 2))) & 0xFu;
            wv = nib >= 8 ? static_cast<int>(nib) - 16 : static_cast<int>(nib);
          }
          acc += wv * static_cast<std::int32_t>(xs[c]);
        }
      }
      std::int64_t v = rounding_shift_right(acc, shift[o]);
      if (relu && v < 0) v = 0;
      y[t * out_ch + o] = saturate_i8(v);
    }
  }
}

// ------------------------------------------------------------------- QDense

QDense QDense::from(const Dense& d, int in_exponent, int out_exponent) {
  QDense q;
  q.w = QMatrix::from(d.weights());
  q.in_exponent = in_exponent;
  q.out_exponent = out_exponent;
  const int acc_e = q.w.exponent + in_exponent;
  const double inv_scale = std::ldexp(1.0, -acc_e);
  q.bias.resize(d.bias().size());
  for (std::size_t i = 0; i < q.bias.size(); ++i) {
    q.bias[i] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(d.bias()[i]) * inv_scale));
  }
  return q;
}

void QDense::forward(const std::int8_t* x, std::int8_t* y, bool relu) const {
  const int shift = out_exponent - (w.exponent + in_exponent);
  kernels::gemv_i8(w.data.data(), w.rows, w.cols, w.cols, x, bias.data(), shift,
                   relu, y);
}

void QDense::forward_simd(const std::int8_t* x, std::int8_t* y, bool relu) const {
  const int shift = out_exponent - (w.exponent + in_exponent);
  kernels::gemv_i8_simd(w.data.data(), w.rows, w.cols, w.cols, x, bias.data(),
                        shift, relu, y);
}

void QDense::forward_reference(const std::int8_t* x, std::int8_t* y, bool relu) const {
  const int shift = out_exponent - (w.exponent + in_exponent);
  for (std::size_t r = 0; r < w.rows; ++r) {
    std::int64_t acc = bias[r];
    const std::int8_t* wr = w.data.data() + r * w.cols;
    for (std::size_t c = 0; c < w.cols; ++c) {
      acc += static_cast<std::int32_t>(wr[c]) * static_cast<std::int32_t>(x[c]);
    }
    std::int64_t v = rounding_shift_right(acc, shift);
    if (relu && v < 0) v = 0;
    y[r] = saturate_i8(v);
  }
}

// ------------------------------------------------------------------ QConv1D

QConv1D QConv1D::from(const Conv1D& c, int in_exponent, int out_exponent) {
  QConv1D q;
  q.in_ch = c.in_channels();
  q.out_ch = c.out_channels();
  q.kernel = c.kernel();
  q.w = QMatrix::from(c.weights());
  q.in_exponent = in_exponent;
  q.out_exponent = out_exponent;
  const int acc_e = q.w.exponent + in_exponent;
  const double inv_scale = std::ldexp(1.0, -acc_e);
  q.bias.resize(c.bias().size());
  for (std::size_t i = 0; i < q.bias.size(); ++i) {
    q.bias[i] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(c.bias()[i]) * inv_scale));
  }
  return q;
}

void QConv1D::forward(const std::int8_t* x, std::size_t T, std::int8_t* y,
                      bool relu) const {
  const int shift = out_exponent - (w.exponent + in_exponent);
  kernels::conv1d_i8(w.data.data(), out_ch, in_ch, kernel, x, T, bias.data(),
                     shift, relu, y);
}

void QConv1D::forward_simd(const std::int8_t* x, std::size_t T, std::int8_t* y,
                           bool relu) const {
  const int shift = out_exponent - (w.exponent + in_exponent);
  kernels::conv1d_i8_simd(w.data.data(), out_ch, in_ch, kernel, x, T,
                          bias.data(), shift, relu, y);
}

void QConv1D::forward_reference(const std::int8_t* x, std::size_t T, std::int8_t* y,
                                bool relu) const {
  const int shift = out_exponent - (w.exponent + in_exponent);
  const auto pad = static_cast<std::ptrdiff_t>(kernel / 2);
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t o = 0; o < out_ch; ++o) {
      std::int64_t acc = bias[o];
      const std::int8_t* wo = w.data.data() + o * w.cols;
      for (std::size_t k = 0; k < kernel; ++k) {
        const std::ptrdiff_t src =
            static_cast<std::ptrdiff_t>(t) + static_cast<std::ptrdiff_t>(k) - pad;
        if (src < 0 || src >= static_cast<std::ptrdiff_t>(T)) continue;
        const std::int8_t* xs = x + static_cast<std::size_t>(src) * in_ch;
        const std::int8_t* wk = wo + k * in_ch;
        for (std::size_t c = 0; c < in_ch; ++c) {
          acc += static_cast<std::int32_t>(wk[c]) * static_cast<std::int32_t>(xs[c]);
        }
      }
      std::int64_t v = rounding_shift_right(acc, shift);
      if (relu && v < 0) v = 0;
      y[t * out_ch + o] = saturate_i8(v);
    }
  }
}

// ----------------------------------------------------------- QLutActivation

QLutActivation::QLutActivation(std::function<double(double)> fn, int acc_exponent,
                               int out_exponent, double input_range)
    : acc_exponent_(acc_exponent), out_exponent_(out_exponent) {
  constexpr std::size_t kTableSize = 2048;
  // Choose the index shift so [-input_range, input_range] maps onto the table.
  const double acc_range = input_range * std::ldexp(1.0, -acc_exponent);
  index_shift_ = 0;
  while (std::ldexp(static_cast<double>(kTableSize) / 2.0,
                    index_shift_) < acc_range) {
    ++index_shift_;
  }
  table_.resize(kTableSize);
  const double out_inv_scale = std::ldexp(1.0, -out_exponent);
  for (std::size_t i = 0; i < kTableSize; ++i) {
    const auto k = static_cast<std::int64_t>(i) -
                   static_cast<std::int64_t>(kTableSize / 2);
    const double input = std::ldexp(static_cast<double>(k),
                                    index_shift_ + acc_exponent_);
    table_[i] = saturate_i8(static_cast<std::int64_t>(
        std::llround(fn(input) * out_inv_scale)));
  }
}

std::int8_t QLutActivation::apply(std::int64_t acc) const {
  const std::int64_t idx = rounding_shift_right(acc, index_shift_) +
                           static_cast<std::int64_t>(table_.size() / 2);
  const std::int64_t clamped =
      std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(table_.size()) - 1);
  return table_[static_cast<std::size_t>(clamped)];
}

// --------------------------------------------------------------- QEmbedding

QEmbedding QEmbedding::from(const Embedding& e) {
  QEmbedding q;
  q.table = QMatrix::from(e.table());
  return q;
}

// --------------------------------------------------------------- Calibrator

void Calibrator::observe(const float* x, std::size_t n, std::size_t point) {
  if (point >= max_abs_.size()) max_abs_.resize(point + 1, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    max_abs_[point] = std::max(max_abs_[point], std::fabs(x[i]));
  }
}

int Calibrator::exponent(std::size_t point) const {
  const float m = point < max_abs_.size() ? max_abs_[point] : 0.0f;
  if (m == 0.0f) return -7;
  int e = -24;
  while (127.0 * std::ldexp(1.0, e) < m) ++e;
  return e;
}

// ------------------------------------------------- lane-resident batch path

namespace {

std::size_t pairs_of(std::size_t channels) { return (channels + 1) / 2; }

template <class Layer>
int requant_shift(const Layer& l) {
  return l.out_exponent - (l.w.exponent + l.in_exponent);
}

// Writes one token's [len | ipd] embedding as lane-resident pair words, pair
// kp at dst[kp * lanes] (an odd width pads a zero channel).
void embed_pairs(const QEmbedding& len, const QEmbedding& ipd, const Token& tk,
                 std::size_t lanes, std::int32_t* dst) {
  const std::int8_t* lr = len.row(tk[0]);
  const std::int8_t* ir = ipd.row(tk[1]);
  const std::size_t L = len.table.cols;
  const std::size_t E = L + ipd.table.cols;
  auto at = [&](std::size_t k) -> std::int8_t {
    return k < L ? lr[k] : k < E ? ir[k - L] : 0;
  };
  for (std::size_t k = 0; k < E; k += 2) {
    dst[(k / 2) * lanes] = kernels::pack_pair(at(k), at(k + 1));
  }
}

// An embedding table's rows as the quad words of a width-E [len | ipd]
// embedding, the table's channels at `offset` and zero bytes elsewhere, so a
// token's quads are the OR of its len and ipd rows.
std::vector<std::int32_t> embed_quad_rows(const QEmbedding& e, std::size_t offset,
                                          std::size_t E) {
  const std::size_t cq = kernels::quads_of(E);
  std::vector<std::int32_t> rows(e.table.rows * cq, 0);
  for (std::size_t r = 0; r < e.table.rows; ++r) {
    for (std::size_t c = 0; c < e.table.cols; ++c) {
      const std::size_t ch = offset + c;
      rows[r * cq + ch / 4] |= static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::uint8_t>(e.row(r)[c]))
          << (8 * (ch % 4)));
    }
  }
  return rows;
}

// Classes of the first n lanes from the head's raw rows x lanes
// accumulators, requantized as QDense::forward does (no ReLU). The strict >
// keeps the first maximum, as std::max_element does in predict().
void argmax_lanes(const QDense& head, const std::int32_t* acc,
                  std::size_t lanes, std::size_t n, std::int16_t* out) {
  const int shift = requant_shift(head);
  for (std::size_t b = 0; b < n; ++b) {
    auto logit = [&](std::size_t r) {
      return saturate_i8(rounding_shift_right(
          static_cast<std::int64_t>(acc[r * lanes + b]) + head.bias[r], shift));
    };
    std::int16_t best = 0;
    std::int8_t best_logit = logit(0);
    for (std::size_t r = 1; r < head.w.rows; ++r) {
      const std::int8_t v = logit(r);
      if (v > best_logit) {
        best = static_cast<std::int16_t>(r);
        best_logit = v;
      }
    }
    out[b] = best;
  }
}

}  // namespace

// ------------------------------------------------------------- QuantizedCnn

QuantizedCnn::QuantizedCnn(const CnnClassifier& model,
                           const std::vector<SeqSample>& calibration)
    : QuantizedCnn(model, calibration, Precision::kInt8) {}

QuantizedCnn::QuantizedCnn(const CnnClassifier& model,
                           const std::vector<SeqSample>& calibration,
                           Precision precision)
    : precision_(precision), config_(model.config()) {
  if (precision_ == Precision::kFp32) {
    // Serve the float parent directly; nothing to quantize. The caller keeps
    // `model` alive (see header).
    float_model_ = &model;
    return;
  }
  const std::size_t T = config_.seq_len;
  const auto& convs = model.conv_layers();
  const auto& fcs = model.fc_layers();

  // Calibration: replay the float forward pass, recording max|activation| at
  // each quantization point: 0 = embeddings, 1..C = conv outputs,
  // C+1 = pooled, C+2.. = fc outputs.
  Calibrator cal;
  const std::size_t max_cal = std::min<std::size_t>(calibration.size(), 512);
  for (std::size_t s = 0; s < max_cal; ++s) {
    const SeqSample& sample = calibration[s];
    Matrix cur(T, config_.embed_dim());
    for (std::size_t t = 0; t < T; ++t) {
      std::memcpy(cur.row(t), model.len_embedding().forward(sample.tokens[t][0]),
                  config_.len_embed_dim * sizeof(float));
      std::memcpy(cur.row(t) + config_.len_embed_dim,
                  model.ipd_embedding().forward(sample.tokens[t][1]),
                  config_.ipd_embed_dim * sizeof(float));
    }
    cal.observe(cur.data(), cur.size(), 0);
    for (std::size_t i = 0; i < convs.size(); ++i) {
      Matrix next(T, convs[i]->out_channels());
      convs[i]->forward(cur, next);
      relu_forward(next.data(), next.size());
      cal.observe(next.data(), next.size(), 1 + i);
      cur = std::move(next);
    }
    std::vector<float> pooled(cur.cols(), 0.0f);
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t c = 0; c < cur.cols(); ++c) pooled[c] += cur(t, c);
    }
    for (float& v : pooled) v /= static_cast<float>(T);
    cal.observe(pooled.data(), pooled.size(), 1 + convs.size());
    std::vector<float> x = std::move(pooled);
    for (std::size_t i = 0; i < fcs.size(); ++i) {
      std::vector<float> y(fcs[i]->out_dim());
      fcs[i]->forward(x.data(), y.data());
      if (i + 1 < fcs.size()) relu_forward(y.data(), y.size());
      cal.observe(y.data(), y.size(), 2 + convs.size() + i);
      x = std::move(y);
    }
  }

  // Embeddings: the table values are the activations; a shared exponent keeps
  // the concatenated vector on one scale.
  len_embed_ = QEmbedding::from(model.len_embedding());
  ipd_embed_ = QEmbedding::from(model.ipd_embedding());
  embed_exponent_ = std::max(len_embed_.table.exponent, ipd_embed_.table.exponent);
  // Requantize both tables at the shared exponent.
  auto requant = [this](QEmbedding& qe, const Embedding& fe) {
    qe.table.exponent = embed_exponent_;
    quantize_to_i8(fe.table().data(), fe.table().size(), embed_exponent_,
                   qe.table.data.data());
  };
  requant(len_embed_, model.len_embedding());
  requant(ipd_embed_, model.ipd_embedding());

  // The activation exponent chain comes from the float calibration pass, so
  // it is identical across precisions; only the weight format differs.
  const bool sub8 =
      precision_ == Precision::kInt4 || precision_ == Precision::kTernary;
  int in_e = embed_exponent_;
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const int out_e = cal.exponent(1 + i);
    if (sub8) {
      pconvs_.push_back(QPackedConv1D::from(*convs[i], precision_, in_e, out_e));
    } else {
      convs_.push_back(QConv1D::from(*convs[i], in_e, out_e));
    }
    in_e = out_e;
  }
  pool_in_exponent_ = in_e;
  pool_out_exponent_ = cal.exponent(1 + convs.size());
  pool_multiplier_ = static_cast<std::int32_t>(
      std::llround(32768.0 / static_cast<double>(T)));
  in_e = pool_out_exponent_;
  for (std::size_t i = 0; i < fcs.size(); ++i) {
    const int out_e = cal.exponent(2 + convs.size() + i);
    if (sub8) {
      pfcs_.push_back(QPackedDense::from(*fcs[i], precision_, in_e, out_e));
    } else {
      fcs_.push_back(QDense::from(*fcs[i], in_e, out_e));
    }
    in_e = out_e;
  }
  if (sub8) return;  // The batch-lane GEMM path below is INT8-only.

  // Pre-widen every layer for the lane-resident batch path. Conv rows pack
  // tap by tap, so an odd in_ch pads every tap to whole pairs, exactly like
  // the activation planes. The batch kernels also need every requantization
  // shift > 0, the pool's included (always true for calibrated layers — the
  // flag guards pathological hand-built models).
  batch_ok_ = !convs_.empty() && !fcs_.empty() &&
              15 + (pool_out_exponent_ - pool_in_exponent_) > 0;
  for (const QConv1D& c : convs_) {
    conv_wpairs_.push_back(kernels::pack_weight_pairs(
        c.w.data.data(), c.out_ch * c.kernel, c.in_ch, c.in_ch));
    if (requant_shift(c) <= 0) batch_ok_ = false;
  }
  for (const QDense& f : fcs_) {
    fc_wpairs_.push_back(kernels::pack_weight_pairs(f.w.data.data(), f.w.rows,
                                                    f.w.cols, f.w.cols));
    if (requant_shift(f) <= 0) batch_ok_ = false;
  }
  if (!batch_ok_ || kernels::host_isa() != kernels::Isa::kAmx) return;
  len_quads_ = embed_quad_rows(len_embed_, 0, config_.embed_dim());
  ipd_quads_ = embed_quad_rows(ipd_embed_, config_.len_embed_dim,
                               config_.embed_dim());
  for (const QConv1D& c : convs_) {
    conv_tiles_.push_back(kernels::pack_tile_weights(c.w.data.data(), c.out_ch,
                                                     c.kernel, c.in_ch));
  }
  for (const QDense& f : fcs_) {
    fc_tiles_.push_back(
        kernels::pack_tile_weights(f.w.data.data(), f.w.rows, 1, f.w.cols));
  }
}

const std::vector<std::int32_t>& QuantizedCnn::logits_q(
    const std::vector<Token>& tokens, Scratch& s) const {
  return logits_q_impl(tokens.data(), s, /*simd=*/false);
}

const std::vector<std::int32_t>& QuantizedCnn::logits_q_impl(
    const Token* tokens, Scratch& s, bool simd) const {
  if (precision_ == Precision::kFp32) return logits_q_fp32(tokens, s);
  if (precision_ != Precision::kInt8) return logits_q_sub8(tokens, s, simd);
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();

  // One sizing pass: the two activation planes ping-pong through every layer,
  // so each is sized to the widest plane the pipeline ever holds.
  std::size_t max_elems = T * E;
  for (const QConv1D& conv : convs_) max_elems = std::max(max_elems, T * conv.out_ch);
  for (const QDense& fc : fcs_) max_elems = std::max(max_elems, fc.w.rows);
  s.act_a.resize(max_elems);
  s.act_b.resize(max_elems);

  std::int8_t* cur = s.act_a.data();
  std::int8_t* next = s.act_b.data();
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(cur + t * E, len_embed_.row(tokens[t][0]), config_.len_embed_dim);
    std::memcpy(cur + t * E + config_.len_embed_dim, ipd_embed_.row(tokens[t][1]),
                config_.ipd_embed_dim);
  }
  for (const QConv1D& conv : convs_) {
    if (simd) {
      conv.forward_simd(cur, T, next, /*relu=*/true);
    } else {
      conv.forward(cur, T, next, /*relu=*/true);
    }
    std::swap(cur, next);
  }
  // Average pool: integer sum, fixed-point multiply by 1/T, requantize.
  const std::size_t C = convs_.empty() ? E : convs_.back().out_ch;
  const int shift = 15 + (pool_out_exponent_ - pool_in_exponent_);
  for (std::size_t c = 0; c < C; ++c) {
    std::int64_t sum = 0;
    for (std::size_t t = 0; t < T; ++t) sum += cur[t * C + c];
    const std::int64_t scaled = sum * pool_multiplier_;
    next[c] = saturate_i8(rounding_shift_right(scaled, shift));
  }
  std::swap(cur, next);
  for (std::size_t i = 0; i < fcs_.size(); ++i) {
    if (simd) {
      fcs_[i].forward_simd(cur, next, /*relu=*/i + 1 < fcs_.size());
    } else {
      fcs_[i].forward(cur, next, /*relu=*/i + 1 < fcs_.size());
    }
    std::swap(cur, next);
  }
  const std::size_t out_dim = fcs_.empty() ? C : fcs_.back().w.rows;
  s.logits.resize(fcs_.empty() ? 0 : out_dim);
  for (std::size_t i = 0; i < s.logits.size(); ++i) s.logits[i] = cur[i];
  return s.logits;
}

const std::vector<std::int32_t>& QuantizedCnn::logits_q_sub8(
    const Token* tokens, Scratch& s, bool simd) const {
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();

  std::size_t max_elems = T * E;
  for (const QPackedConv1D& conv : pconvs_) {
    max_elems = std::max(max_elems, T * conv.out_ch);
  }
  for (const QPackedDense& fc : pfcs_) max_elems = std::max(max_elems, fc.w.rows);
  s.act_a.resize(max_elems);
  s.act_b.resize(max_elems);

  std::int8_t* cur = s.act_a.data();
  std::int8_t* next = s.act_b.data();
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(cur + t * E, len_embed_.row(tokens[t][0]), config_.len_embed_dim);
    std::memcpy(cur + t * E + config_.len_embed_dim, ipd_embed_.row(tokens[t][1]),
                config_.ipd_embed_dim);
  }
  for (const QPackedConv1D& conv : pconvs_) {
    if (simd) {
      conv.forward_simd(cur, T, next, /*relu=*/true);
    } else {
      conv.forward(cur, T, next, /*relu=*/true);
    }
    std::swap(cur, next);
  }
  const std::size_t C = pconvs_.empty() ? E : pconvs_.back().out_ch;
  const int shift = 15 + (pool_out_exponent_ - pool_in_exponent_);
  for (std::size_t c = 0; c < C; ++c) {
    std::int64_t sum = 0;
    for (std::size_t t = 0; t < T; ++t) sum += cur[t * C + c];
    const std::int64_t scaled = sum * pool_multiplier_;
    next[c] = saturate_i8(rounding_shift_right(scaled, shift));
  }
  std::swap(cur, next);
  for (std::size_t i = 0; i < pfcs_.size(); ++i) {
    if (simd) {
      pfcs_[i].forward_simd(cur, next, /*relu=*/i + 1 < pfcs_.size());
    } else {
      pfcs_[i].forward(cur, next, /*relu=*/i + 1 < pfcs_.size());
    }
    std::swap(cur, next);
  }
  const std::size_t out_dim = pfcs_.empty() ? C : pfcs_.back().w.rows;
  s.logits.resize(pfcs_.empty() ? 0 : out_dim);
  for (std::size_t i = 0; i < s.logits.size(); ++i) s.logits[i] = cur[i];
  return s.logits;
}

const std::vector<std::int32_t>& QuantizedCnn::logits_q_fp32(
    const Token* tokens, Scratch& s) const {
  // Float logits scaled to a fixed exponent of -16: argmax order is
  // preserved and the values are deterministic (same float code path every
  // call), so serial/pipelined bit-identity holds trivially.
  const std::vector<Token> seq(tokens, tokens + config_.seq_len);
  const std::vector<float> logits = float_model_->logits(seq);
  s.logits.resize(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    s.logits[i] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(logits[i]) * 65536.0));
  }
  return s.logits;
}

std::int16_t QuantizedCnn::predict(const std::vector<Token>& tokens,
                                   Scratch& scratch) const {
  const auto& q = logits_q(tokens, scratch);
  return static_cast<std::int16_t>(std::max_element(q.begin(), q.end()) - q.begin());
}

void QuantizedCnn::predict_batch(const Token* tokens, std::size_t count,
                                 Scratch& s, std::int16_t* out) const {
  const std::size_t T = config_.seq_len;
  if (!batch_ok_) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto& q = logits_q_impl(tokens + i * T, s, /*simd=*/true);
      out[i] = static_cast<std::int16_t>(std::max_element(q.begin(), q.end()) -
                                         q.begin());
    }
    return;
  }
  if (!conv_tiles_.empty() && kernels::active_isa() == kernels::Isa::kAmx) {
    predict_batch_tiles(tokens, count, s, out);
    return;
  }

  // Lane-resident pipeline: lane b of every kernel carries inference base+b,
  // and every activation plane stays in the GEMM's operand layout,
  // [padded timestep][channel pair][lane] pair words (kernels.hpp), from the
  // embedding to the head. `pad` zero border rows above and below the T
  // timesteps let each conv timestep read one contiguous kernel-row window:
  // a zero row adds zero to the integer accumulators, so the result is
  // bit-identical to the edge-trimmed serial convolution.
  const std::size_t lanes = kernels::gemm_batch_lanes();
  const std::size_t E = config_.embed_dim();
  std::size_t pad = 0, max_pairs = pairs_of(E);
  for (const QConv1D& c : convs_) {
    pad = std::max(pad, c.kernel / 2);
    max_pairs = std::max(max_pairs, pairs_of(c.out_ch));
  }
  for (const QDense& f : fcs_) max_pairs = std::max(max_pairs, pairs_of(f.w.rows));
  s.batch_a.resize((T + 2 * pad) * max_pairs * lanes);
  s.batch_b.resize(s.batch_a.size());
  s.batch_acc_a.resize(fcs_.back().w.rows * lanes);
  const int pool_shift = 15 + (pool_out_exponent_ - pool_in_exponent_);

  for (std::size_t base = 0; base < count; base += lanes) {
    const std::size_t n = std::min(lanes, count - base);
    std::int32_t* cur = s.batch_a.data();
    std::int32_t* nxt = s.batch_b.data();
    std::size_t cp = pairs_of(E);  // pair words per timestep and lane
    for (std::size_t b = 0; b < n; ++b) {
      const Token* tk = tokens + (base + b) * T;
      for (std::size_t t = 0; t < T; ++t) {
        embed_pairs(len_embed_, ipd_embed_, tk[t], lanes,
                    cur + (pad + t) * cp * lanes + b);
      }
    }
    for (std::size_t l = 0; l < convs_.size(); ++l) {
      const QConv1D& c = convs_[l];
      const std::size_t row = cp * lanes;
      const std::size_t out_row = pairs_of(c.out_ch) * lanes;
      const std::size_t k2 = c.kernel / 2;
      // Only the border rows this layer's windows reach need zeroing.
      std::fill(cur + (pad - k2) * row, cur + pad * row, 0);
      std::fill(cur + (pad + T) * row, cur + (pad + T + k2) * row, 0);
      for (std::size_t t = 0; t < T; ++t) {
        kernels::gemm_i8_batch(conv_wpairs_[l].data(), c.out_ch, c.kernel * cp,
                               cur + (pad + t - k2) * row, c.bias.data(),
                               requant_shift(c), /*relu=*/true,
                               nxt + (pad + t) * out_row);
      }
      std::swap(cur, nxt);
      cp = pairs_of(c.out_ch);
    }
    kernels::avgpool_i8_batch(cur + pad * cp * lanes, T, cp, pool_multiplier_,
                              pool_shift, nxt);
    std::swap(cur, nxt);
    for (std::size_t l = 0; l + 1 < fcs_.size(); ++l) {
      const QDense& f = fcs_[l];
      kernels::gemm_i8_batch(fc_wpairs_[l].data(), f.w.rows, cp, cur,
                             f.bias.data(), requant_shift(f), /*relu=*/true,
                             nxt);
      std::swap(cur, nxt);
      cp = pairs_of(f.w.rows);
    }
    kernels::gemm_acc_i8_batch(fc_wpairs_.back().data(), fcs_.back().w.rows, cp,
                               cur, s.batch_acc_a.data());
    argmax_lanes(fcs_.back(), s.batch_acc_a.data(), lanes, n, out + base);
  }
}

void QuantizedCnn::predict_batch_tiles(const Token* tokens, std::size_t count,
                                       Scratch& s, std::int16_t* out) const {
  // predict_batch's pipeline at 16 lanes with every plane in quads,
  // [padded timestep][channel/4][lane] words (kernels.hpp, "AMX tile GEMM"):
  // a conv timestep's kernel rows are one run of B-tile rows, so each is one
  // gemm_i8_quads call, and the FC layers chain on one-row quad planes.
  constexpr std::size_t kLanes = 16;
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();
  std::size_t pad = 0, max_quads = kernels::quads_of(E);
  for (const QConv1D& c : convs_) {
    pad = std::max(pad, c.kernel / 2);
    max_quads = std::max(max_quads, kernels::quads_of(c.out_ch));
  }
  for (const QDense& f : fcs_) {
    max_quads = std::max(max_quads, kernels::quads_of(f.w.rows));
  }
  s.batch_a.resize((T + 2 * pad) * max_quads * kLanes);
  s.batch_b.resize(s.batch_a.size());
  s.batch_acc_a.resize((fcs_.back().w.rows + 15) / 16 * 16 * kLanes);
  const int pool_shift = 15 + (pool_out_exponent_ - pool_in_exponent_);
  kernels::TileUnit tiles;

  for (std::size_t base = 0; base < count; base += kLanes) {
    const std::size_t n = std::min(kLanes, count - base);
    std::int32_t* cur = s.batch_a.data();
    std::int32_t* nxt = s.batch_b.data();
    std::size_t cq = kernels::quads_of(E);  // quad words per timestep and lane
    for (std::size_t b = 0; b < n; ++b) {
      const Token* tk = tokens + (base + b) * T;
      for (std::size_t t = 0; t < T; ++t) {
        const std::int32_t* lq = len_quads_.data() + tk[t][0] * cq;
        const std::int32_t* iq = ipd_quads_.data() + tk[t][1] * cq;
        std::int32_t* dst = cur + (pad + t) * cq * kLanes + b;
        for (std::size_t kq = 0; kq < cq; ++kq) dst[kq * kLanes] = lq[kq] | iq[kq];
      }
    }
    for (std::size_t l = 0; l < convs_.size(); ++l) {
      const QConv1D& c = convs_[l];
      const std::size_t row = cq * kLanes;
      const std::size_t out_row = kernels::quads_of(c.out_ch) * kLanes;
      const std::size_t k2 = c.kernel / 2;
      std::fill(cur + (pad - k2) * row, cur + pad * row, 0);
      std::fill(cur + (pad + T) * row, cur + (pad + T + k2) * row, 0);
      for (std::size_t t = 0; t < T; ++t) {
        kernels::gemm_i8_quads(tiles, conv_tiles_[l], cur + (pad + t - k2) * row,
                               c.bias.data(), requant_shift(c), /*relu=*/true,
                               nxt + (pad + t) * out_row);
      }
      std::swap(cur, nxt);
      cq = kernels::quads_of(c.out_ch);
    }
    kernels::avgpool_i8_quads(cur + pad * cq * kLanes, T, cq, pool_multiplier_,
                              pool_shift, nxt);
    std::swap(cur, nxt);
    for (std::size_t l = 0; l + 1 < fcs_.size(); ++l) {
      const QDense& f = fcs_[l];
      kernels::gemm_i8_quads(tiles, fc_tiles_[l], cur, f.bias.data(),
                             requant_shift(f), /*relu=*/true, nxt);
      std::swap(cur, nxt);
    }
    kernels::gemm_acc_i8_quads(tiles, fc_tiles_.back(), cur,
                               s.batch_acc_a.data());
    argmax_lanes(fcs_.back(), s.batch_acc_a.data(), kLanes, n, out + base);
  }
}

std::vector<std::int32_t> QuantizedCnn::logits_q(
    const std::vector<Token>& tokens) const {
  Scratch scratch;
  return logits_q(tokens, scratch);
}

std::int16_t QuantizedCnn::predict(const std::vector<Token>& tokens) const {
  Scratch scratch;
  return predict(tokens, scratch);
}

std::vector<std::int32_t> QuantizedCnn::logits_q_reference(
    const std::vector<Token>& tokens) const {
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();
  if (precision_ == Precision::kFp32) {
    Scratch scratch;
    return logits_q_fp32(tokens.data(), scratch);
  }
  if (precision_ != Precision::kInt8) {
    // Packed-reading reference pipeline for the sub-INT8 tier.
    std::vector<std::int8_t> cur(T * E);
    for (std::size_t t = 0; t < T; ++t) {
      std::memcpy(cur.data() + t * E, len_embed_.row(tokens[t][0]),
                  config_.len_embed_dim);
      std::memcpy(cur.data() + t * E + config_.len_embed_dim,
                  ipd_embed_.row(tokens[t][1]), config_.ipd_embed_dim);
    }
    for (const QPackedConv1D& conv : pconvs_) {
      std::vector<std::int8_t> next(T * conv.out_ch);
      conv.forward_reference(cur.data(), T, next.data(), /*relu=*/true);
      cur = std::move(next);
    }
    const std::size_t C = pconvs_.empty() ? E : pconvs_.back().out_ch;
    std::vector<std::int8_t> pooled(C);
    const int shift = 15 + (pool_out_exponent_ - pool_in_exponent_);
    for (std::size_t c = 0; c < C; ++c) {
      std::int64_t sum = 0;
      for (std::size_t t = 0; t < T; ++t) sum += cur[t * C + c];
      pooled[c] = saturate_i8(rounding_shift_right(sum * pool_multiplier_, shift));
    }
    std::vector<std::int8_t> x = std::move(pooled);
    std::vector<std::int32_t> out;
    for (std::size_t i = 0; i < pfcs_.size(); ++i) {
      std::vector<std::int8_t> y(pfcs_[i].w.rows);
      pfcs_[i].forward_reference(x.data(), y.data(),
                                 /*relu=*/i + 1 < pfcs_.size());
      if (i + 1 == pfcs_.size()) out.assign(y.begin(), y.end());
      x = std::move(y);
    }
    return out;
  }
  std::vector<std::int8_t> cur(T * E);
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(cur.data() + t * E, len_embed_.row(tokens[t][0]),
                config_.len_embed_dim);
    std::memcpy(cur.data() + t * E + config_.len_embed_dim,
                ipd_embed_.row(tokens[t][1]), config_.ipd_embed_dim);
  }
  for (const QConv1D& conv : convs_) {
    std::vector<std::int8_t> next(T * conv.out_ch);
    conv.forward_reference(cur.data(), T, next.data(), /*relu=*/true);
    cur = std::move(next);
  }
  const std::size_t C = convs_.empty() ? E : convs_.back().out_ch;
  std::vector<std::int8_t> pooled(C);
  const int shift = 15 + (pool_out_exponent_ - pool_in_exponent_);
  for (std::size_t c = 0; c < C; ++c) {
    std::int64_t sum = 0;
    for (std::size_t t = 0; t < T; ++t) sum += cur[t * C + c];
    const std::int64_t scaled = sum * pool_multiplier_;
    pooled[c] = saturate_i8(rounding_shift_right(scaled, shift));
  }
  std::vector<std::int8_t> x = std::move(pooled);
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < fcs_.size(); ++i) {
    std::vector<std::int8_t> y(fcs_[i].w.rows);
    fcs_[i].forward_reference(x.data(), y.data(), /*relu=*/i + 1 < fcs_.size());
    if (i + 1 == fcs_.size()) {
      out.assign(y.begin(), y.end());
    }
    x = std::move(y);
  }
  return out;
}

std::uint64_t QuantizedCnn::macs_per_inference() const {
  const std::size_t T = config_.seq_len;
  std::uint64_t macs = 0;
  for (const QConv1D& c : convs_) {
    macs += static_cast<std::uint64_t>(T) * c.out_ch * c.in_ch * c.kernel;
  }
  for (const QPackedConv1D& c : pconvs_) {
    macs += static_cast<std::uint64_t>(T) * c.out_ch * c.in_ch * c.kernel;
  }
  for (const QDense& f : fcs_) {
    macs += static_cast<std::uint64_t>(f.w.rows) * f.w.cols;
  }
  for (const QPackedDense& f : pfcs_) {
    macs += static_cast<std::uint64_t>(f.w.rows) * f.w.cols;
  }
  if (float_model_ != nullptr) {
    for (const auto& c : float_model_->conv_layers()) {
      macs += static_cast<std::uint64_t>(T) * c->out_channels() *
              c->in_channels() * c->kernel();
    }
    for (const auto& f : float_model_->fc_layers()) {
      macs += static_cast<std::uint64_t>(f->out_dim()) * f->in_dim();
    }
  }
  return macs;
}

// ------------------------------------------------------------- QuantizedRnn

QuantizedRnn::QuantizedRnn(const RnnClassifier& model,
                           const std::vector<SeqSample>& calibration)
    : QuantizedRnn(model, calibration, Precision::kInt8) {}

QuantizedRnn::QuantizedRnn(const RnnClassifier& model,
                           const std::vector<SeqSample>& calibration,
                           Precision precision)
    : precision_(precision), config_(model.config()) {
  if (precision_ == Precision::kFp32) {
    float_model_ = &model;
    return;
  }
  const std::size_t T = config_.seq_len;
  const auto& fcs = model.fc_layers();

  Calibrator cal;
  const std::size_t max_cal = std::min<std::size_t>(calibration.size(), 512);
  for (std::size_t s = 0; s < max_cal; ++s) {
    const SeqSample& sample = calibration[s];
    Matrix xs(T, config_.embed_dim());
    for (std::size_t t = 0; t < T; ++t) {
      std::memcpy(xs.row(t), model.len_embedding().forward(sample.tokens[t][0]),
                  config_.len_embed_dim * sizeof(float));
      std::memcpy(xs.row(t) + config_.len_embed_dim,
                  model.ipd_embedding().forward(sample.tokens[t][1]),
                  config_.ipd_embed_dim * sizeof(float));
    }
    cal.observe(xs.data(), xs.size(), 0);
    Matrix hs(T + 1, config_.units);
    model.cell().forward(xs, hs);
    std::vector<float> x(hs.row(T), hs.row(T) + config_.units);
    for (std::size_t i = 0; i < fcs.size(); ++i) {
      std::vector<float> y(fcs[i]->out_dim());
      fcs[i]->forward(x.data(), y.data());
      if (i + 1 < fcs.size()) relu_forward(y.data(), y.size());
      cal.observe(y.data(), y.size(), 1 + i);
      x = std::move(y);
    }
  }

  len_embed_ = QEmbedding::from(model.len_embedding());
  ipd_embed_ = QEmbedding::from(model.ipd_embedding());
  embed_exponent_ = std::max(len_embed_.table.exponent, ipd_embed_.table.exponent);
  auto requant = [this](QEmbedding& qe, const Embedding& fe) {
    qe.table.exponent = embed_exponent_;
    quantize_to_i8(fe.table().data(), fe.table().size(), embed_exponent_,
                   qe.table.data.data());
  };
  requant(len_embed_, model.len_embedding());
  requant(ipd_embed_, model.ipd_embedding());

  hidden_exponent_ = -7;  // tanh output in (-1, 1)
  const bool sub8 =
      precision_ == Precision::kInt4 || precision_ == Precision::kTernary;
  int acc_e;
  if (sub8) {
    wx_p_ = QPackedMatrix::from(model.cell().wx(), precision_);
    wh_p_ = QPackedMatrix::from(model.cell().wh(), precision_);
    wx_ops_ = PackedOperands::prepare(wx_p_);
    wh_ops_ = PackedOperands::prepare(wh_p_);
    // Per-output-row weight exponents: both recurrent accumulators are
    // re-expressed at a common exponent acc_e (the coarsest Wx row's) before
    // the shared tanh LUT. sub8_wx_shift_ is >= 0 by construction of acc_e;
    // sub8_wh_shift_ may be negative (left shift, exact in int64).
    const std::size_t U = config_.units;
    acc_e = wx_p_.row_exponent[0] + embed_exponent_;
    for (std::size_t u = 1; u < U; ++u) {
      acc_e = std::max(acc_e, wx_p_.row_exponent[u] + embed_exponent_);
    }
    sub8_wx_shift_.resize(U);
    sub8_wh_shift_.resize(U);
    for (std::size_t u = 0; u < U; ++u) {
      sub8_wx_shift_[u] = acc_e - (wx_p_.row_exponent[u] + embed_exponent_);
      sub8_wh_shift_[u] = acc_e - (wh_p_.row_exponent[u] + hidden_exponent_);
    }
  } else {
    wx_ = QMatrix::from(model.cell().wx());
    wh_ = QMatrix::from(model.cell().wh());
    acc_e = wx_.exponent + embed_exponent_;
    // Align Wh*h accumulator (exponent wh.e + hidden_e) to acc_e.
    wh_acc_shift_ = acc_e - (wh_.exponent + hidden_exponent_);
  }
  const double inv_scale = std::ldexp(1.0, -acc_e);
  cell_bias_.resize(model.cell().bias().size());
  for (std::size_t i = 0; i < cell_bias_.size(); ++i) {
    cell_bias_[i] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(model.cell().bias()[i]) * inv_scale));
  }
  tanh_lut_ = QLutActivation([](double x) { return std::tanh(x); }, acc_e,
                             hidden_exponent_, 8.0);

  int in_e = hidden_exponent_;
  for (std::size_t i = 0; i < fcs.size(); ++i) {
    const int out_e = cal.exponent(1 + i);
    if (sub8) {
      pfcs_.push_back(QPackedDense::from(*fcs[i], precision_, in_e, out_e));
    } else {
      fcs_.push_back(QDense::from(*fcs[i], in_e, out_e));
    }
    in_e = out_e;
  }
  if (sub8) return;  // The batch-lane GEMM path below is INT8-only.

  // Batch-lane GEMM operands (see QuantizedCnn): recurrent weight rows use
  // their logical widths (E for Wx, U for Wh) so padding never pairs a
  // weight with a neighbour from the next row.
  batch_ok_ = !fcs_.empty();
  wx_pairs_ = kernels::pack_weight_pairs(wx_.data.data(), wx_.rows, wx_.cols,
                                         config_.embed_dim());
  wh_pairs_ = kernels::pack_weight_pairs(wh_.data.data(), wh_.rows, wh_.cols,
                                         config_.units);
  for (const QDense& f : fcs_) {
    fc_wpairs_.push_back(kernels::pack_weight_pairs(f.w.data.data(), f.w.rows,
                                                    f.w.cols, f.w.cols));
    if (requant_shift(f) <= 0) batch_ok_ = false;
  }
}

std::int16_t QuantizedRnn::predict(const std::vector<Token>& tokens,
                                   Scratch& s) const {
  return predict_impl(tokens.data(), s, /*simd=*/false);
}

void QuantizedRnn::predict_batch(const Token* tokens, std::size_t count,
                                 Scratch& s, std::int16_t* out) const {
  const std::size_t T = config_.seq_len;
  if (!batch_ok_) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = predict_impl(tokens + i * T, s, /*simd=*/true);
    }
    return;
  }

  // Lane-resident like QuantizedCnn::predict_batch: x, h and every FC
  // activation are [channel pair][lane] pair-word planes.
  const std::size_t lanes = kernels::gemm_batch_lanes();
  const std::size_t E = config_.embed_dim();
  const std::size_t U = config_.units;
  std::size_t max_pairs = std::max(pairs_of(E), pairs_of(U));
  for (const QDense& f : fcs_) max_pairs = std::max(max_pairs, pairs_of(f.w.rows));
  s.batch_a.resize(max_pairs * lanes);  // x, then the FC ping plane
  s.batch_b.resize(max_pairs * lanes);  // h, then the FC pong plane
  s.batch_c.resize(max_pairs * lanes);  // h_next
  s.batch_acc_a.resize(std::max(U, fcs_.back().w.rows) * lanes);  // Wx x, head
  s.batch_acc_b.resize(U * lanes);                                // Wh h
  const std::int32_t* aa = s.batch_acc_a.data();
  const std::int32_t* ab = s.batch_acc_b.data();
  auto cell = [&](std::size_t u, std::size_t b) {
    std::int64_t acc = static_cast<std::int64_t>(cell_bias_[u]) + aa[u * lanes + b];
    acc += rounding_shift_right(ab[u * lanes + b], wh_acc_shift_);
    return tanh_lut_.apply(acc);
  };

  for (std::size_t base = 0; base < count; base += lanes) {
    const std::size_t n = std::min(lanes, count - base);
    std::int32_t* x = s.batch_a.data();
    std::int32_t* h = s.batch_b.data();
    std::int32_t* h_next = s.batch_c.data();
    std::fill(h, h + pairs_of(U) * lanes, 0);
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t b = 0; b < n; ++b) {
        embed_pairs(len_embed_, ipd_embed_, tokens[(base + b) * T + t], lanes,
                    x + b);
      }
      kernels::gemm_acc_i8_batch(wx_pairs_.data(), U, pairs_of(E), x,
                                 s.batch_acc_a.data());
      kernels::gemm_acc_i8_batch(wh_pairs_.data(), U, pairs_of(U), h,
                                 s.batch_acc_b.data());
      for (std::size_t u = 0; u < U; u += 2) {
        for (std::size_t b = 0; b < n; ++b) {
          h_next[(u / 2) * lanes + b] =
              kernels::pack_pair(cell(u, b), u + 1 < U ? cell(u + 1, b) : 0);
        }
      }
      std::swap(h, h_next);
    }
    std::int32_t* cur = h;
    std::int32_t* nxt = x;
    std::size_t cp = pairs_of(U);
    for (std::size_t l = 0; l + 1 < fcs_.size(); ++l) {
      const QDense& f = fcs_[l];
      kernels::gemm_i8_batch(fc_wpairs_[l].data(), f.w.rows, cp, cur,
                             f.bias.data(), requant_shift(f), /*relu=*/true,
                             nxt);
      std::swap(cur, nxt);
      cp = pairs_of(f.w.rows);
    }
    kernels::gemm_acc_i8_batch(fc_wpairs_.back().data(), fcs_.back().w.rows, cp,
                               cur, s.batch_acc_a.data());
    argmax_lanes(fcs_.back(), s.batch_acc_a.data(), lanes, n, out + base);
  }
}

std::int16_t QuantizedRnn::predict_impl(const Token* tokens, Scratch& s,
                                        bool simd) const {
  if (precision_ == Precision::kFp32) {
    const std::vector<Token> seq(tokens, tokens + config_.seq_len);
    return float_model_->predict(seq);
  }
  if (precision_ != Precision::kInt8) return predict_sub8(tokens, s, simd);
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();
  const std::size_t U = config_.units;
  std::size_t max_elems = std::max(E, U);
  for (const QDense& fc : fcs_) max_elems = std::max(max_elems, fc.w.rows);
  s.act_a.resize(max_elems);            // x, then the FC ping plane
  s.act_b.resize(max_elems);            // h, then the FC pong plane
  s.act_c.resize(U);                    // h_next
  s.acc_a.resize(U);                    // Wx x accumulators
  s.acc_b.resize(U);                    // Wh h accumulators

  std::int8_t* x = s.act_a.data();
  std::int8_t* h = s.act_b.data();
  std::int8_t* h_next = s.act_c.data();
  std::memset(h, 0, U);
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(x, len_embed_.row(tokens[t][0]), config_.len_embed_dim);
    std::memcpy(x + config_.len_embed_dim, ipd_embed_.row(tokens[t][1]),
                config_.ipd_embed_dim);
    if (simd) {
      kernels::gemv_acc_i8_simd(wx_.data.data(), U, wx_.cols, E, x, s.acc_a.data());
      kernels::gemv_acc_i8_simd(wh_.data.data(), U, wh_.cols, U, h, s.acc_b.data());
    } else {
      kernels::gemv_acc_i8(wx_.data.data(), U, wx_.cols, E, x, s.acc_a.data());
      kernels::gemv_acc_i8(wh_.data.data(), U, wh_.cols, U, h, s.acc_b.data());
    }
    for (std::size_t u = 0; u < U; ++u) {
      std::int64_t acc = static_cast<std::int64_t>(cell_bias_[u]) + s.acc_a[u];
      acc += rounding_shift_right(s.acc_b[u], wh_acc_shift_);
      h_next[u] = tanh_lut_.apply(acc);
    }
    std::swap(h, h_next);
  }
  // FC head ping-pongs between the two full-width planes; the final h may
  // live in the U-wide act_c, so park it in act_b first (U-byte copy).
  if (h != s.act_b.data()) std::memcpy(s.act_b.data(), h, U);
  std::int8_t* cur = s.act_b.data();
  std::int8_t* next = s.act_a.data();
  std::size_t dim = U;
  for (std::size_t i = 0; i < fcs_.size(); ++i) {
    if (simd) {
      fcs_[i].forward_simd(cur, next, /*relu=*/i + 1 < fcs_.size());
    } else {
      fcs_[i].forward(cur, next, /*relu=*/i + 1 < fcs_.size());
    }
    dim = fcs_[i].w.rows;
    std::swap(cur, next);
  }
  std::int16_t best = 0;
  for (std::size_t i = 1; i < dim; ++i) {
    if (cur[i] > cur[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int16_t>(i);
    }
  }
  return best;
}

std::int16_t QuantizedRnn::predict_sub8(const Token* tokens, Scratch& s,
                                        bool simd) const {
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();
  const std::size_t U = config_.units;
  std::size_t max_elems = std::max(E, U);
  for (const QPackedDense& fc : pfcs_) max_elems = std::max(max_elems, fc.w.rows);
  s.act_a.resize(max_elems);
  s.act_b.resize(max_elems);
  s.act_c.resize(U);
  s.acc_a.resize(U);
  s.acc_b.resize(U);

  const bool ternary = precision_ == Precision::kTernary;
  const int B = ternary ? 1 : 8;
  std::int8_t* x = s.act_a.data();
  std::int8_t* h = s.act_b.data();
  std::int8_t* h_next = s.act_c.data();
  std::memset(h, 0, U);
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(x, len_embed_.row(tokens[t][0]), config_.len_embed_dim);
    std::memcpy(x + config_.len_embed_dim, ipd_embed_.row(tokens[t][1]),
                config_.ipd_embed_dim);
    if (simd) {
      kernels::gemv_acc_sub8_simd(wx_ops_.biased.data(), U, E, E, B, x,
                                  s.acc_a.data());
      kernels::gemv_acc_sub8_simd(wh_ops_.biased.data(), U, U, U, B, h,
                                  s.acc_b.data());
    } else if (ternary) {
      kernels::gemv_acc_ternary(wx_ops_.idx.data(), wx_ops_.seg.data(), U, x,
                                s.acc_a.data());
      kernels::gemv_acc_ternary(wh_ops_.idx.data(), wh_ops_.seg.data(), U, h,
                                s.acc_b.data());
    } else {
      kernels::gemv_acc_i4(wx_ops_.plane.data(), U, E, E, x, s.acc_a.data());
      kernels::gemv_acc_i4(wh_ops_.plane.data(), U, U, U, h, s.acc_b.data());
    }
    for (std::size_t u = 0; u < U; ++u) {
      std::int64_t acc = static_cast<std::int64_t>(cell_bias_[u]) +
                         rounding_shift_right(s.acc_a[u], sub8_wx_shift_[u]);
      acc += rounding_shift_right(s.acc_b[u], sub8_wh_shift_[u]);
      h_next[u] = tanh_lut_.apply(acc);
    }
    std::swap(h, h_next);
  }
  if (h != s.act_b.data()) std::memcpy(s.act_b.data(), h, U);
  std::int8_t* cur = s.act_b.data();
  std::int8_t* next = s.act_a.data();
  std::size_t dim = U;
  for (std::size_t i = 0; i < pfcs_.size(); ++i) {
    if (simd) {
      pfcs_[i].forward_simd(cur, next, /*relu=*/i + 1 < pfcs_.size());
    } else {
      pfcs_[i].forward(cur, next, /*relu=*/i + 1 < pfcs_.size());
    }
    dim = pfcs_[i].w.rows;
    std::swap(cur, next);
  }
  std::int16_t best = 0;
  for (std::size_t i = 1; i < dim; ++i) {
    if (cur[i] > cur[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int16_t>(i);
    }
  }
  return best;
}

std::int16_t QuantizedRnn::predict(const std::vector<Token>& tokens) const {
  Scratch scratch;
  return predict(tokens, scratch);
}

std::int16_t QuantizedRnn::predict_reference(const std::vector<Token>& tokens) const {
  const std::size_t T = config_.seq_len;
  const std::size_t E = config_.embed_dim();
  const std::size_t U = config_.units;
  if (precision_ == Precision::kFp32) return float_model_->predict(tokens);
  if (precision_ != Precision::kInt8) {
    // Packed-reading reference recurrence for the sub-INT8 tier.
    const bool ternary = precision_ == Precision::kTernary;
    std::vector<std::int8_t> h(U, 0);
    std::vector<std::int8_t> x(E);
    for (std::size_t t = 0; t < T; ++t) {
      std::memcpy(x.data(), len_embed_.row(tokens[t][0]), config_.len_embed_dim);
      std::memcpy(x.data() + config_.len_embed_dim,
                  ipd_embed_.row(tokens[t][1]), config_.ipd_embed_dim);
      std::vector<std::int8_t> h_next(U);
      for (std::size_t u = 0; u < U; ++u) {
        const std::uint8_t* wxr = wx_p_.packed.data() + u * wx_p_.row_bytes;
        const std::uint8_t* whr = wh_p_.packed.data() + u * wh_p_.row_bytes;
        const std::int32_t acc_x =
            ternary ? kernels::dot_ternary_packed(wxr, x.data(), E)
                    : kernels::dot_i4_packed(wxr, x.data(), E);
        const std::int32_t acc_h =
            ternary ? kernels::dot_ternary_packed(whr, h.data(), U)
                    : kernels::dot_i4_packed(whr, h.data(), U);
        std::int64_t acc = static_cast<std::int64_t>(cell_bias_[u]) +
                           rounding_shift_right(acc_x, sub8_wx_shift_[u]);
        acc += rounding_shift_right(acc_h, sub8_wh_shift_[u]);
        h_next[u] = tanh_lut_.apply(acc);
      }
      h = std::move(h_next);
    }
    std::vector<std::int8_t> v = std::move(h);
    for (std::size_t i = 0; i < pfcs_.size(); ++i) {
      std::vector<std::int8_t> y(pfcs_[i].w.rows);
      pfcs_[i].forward_reference(v.data(), y.data(),
                                 /*relu=*/i + 1 < pfcs_.size());
      v = std::move(y);
    }
    std::int16_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i] > v[static_cast<std::size_t>(best)]) {
        best = static_cast<std::int16_t>(i);
      }
    }
    return best;
  }
  std::vector<std::int8_t> h(U, 0);
  std::vector<std::int8_t> x(E);
  for (std::size_t t = 0; t < T; ++t) {
    std::memcpy(x.data(), len_embed_.row(tokens[t][0]), config_.len_embed_dim);
    std::memcpy(x.data() + config_.len_embed_dim, ipd_embed_.row(tokens[t][1]),
                config_.ipd_embed_dim);
    std::vector<std::int8_t> h_next(U);
    for (std::size_t u = 0; u < U; ++u) {
      std::int64_t acc = cell_bias_[u];
      const std::int8_t* wxr = wx_.data.data() + u * wx_.cols;
      for (std::size_t c = 0; c < E; ++c) {
        acc += static_cast<std::int32_t>(wxr[c]) * static_cast<std::int32_t>(x[c]);
      }
      std::int64_t acc_h = 0;
      const std::int8_t* whr = wh_.data.data() + u * wh_.cols;
      for (std::size_t c = 0; c < U; ++c) {
        acc_h += static_cast<std::int32_t>(whr[c]) * static_cast<std::int32_t>(h[c]);
      }
      acc += rounding_shift_right(acc_h, wh_acc_shift_);
      h_next[u] = tanh_lut_.apply(acc);
    }
    h = std::move(h_next);
  }
  std::vector<std::int8_t> v = std::move(h);
  for (std::size_t i = 0; i < fcs_.size(); ++i) {
    std::vector<std::int8_t> y(fcs_[i].w.rows);
    fcs_[i].forward_reference(v.data(), y.data(), /*relu=*/i + 1 < fcs_.size());
    v = std::move(y);
  }
  std::int16_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<std::size_t>(best)]) best = static_cast<std::int16_t>(i);
  }
  return best;
}

std::uint64_t QuantizedRnn::macs_per_inference() const {
  const std::size_t T = config_.seq_len;
  std::uint64_t macs = static_cast<std::uint64_t>(T) * config_.units *
                       (config_.embed_dim() + config_.units);
  for (const QDense& f : fcs_) {
    macs += static_cast<std::uint64_t>(f.w.rows) * f.w.cols;
  }
  return macs;
}

}  // namespace fenix::nn
