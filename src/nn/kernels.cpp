#include "nn/kernels.hpp"

#include <algorithm>

namespace fenix::nn::kernels {
namespace {

inline std::int8_t requantize(std::int64_t acc, int shift, bool relu) {
  std::int64_t v = rounding_shift_right(acc, shift);
  if (relu && v < 0) v = 0;
  return saturate_i8(v);
}

// Decodes one 2-bit ternary code (0 -> 0, 1 -> +1, 2 -> -1).
inline std::int32_t ternary_value(unsigned code) {
  return code == 1 ? 1 : code == 2 ? -1 : 0;
}

// Sign-extends one two's-complement nibble to INT32.
inline std::int32_t nibble_value(unsigned nib) {
  return static_cast<std::int32_t>(nib) - ((nib & 0x8u) ? 16 : 0);
}

// Multiply-free INT4 product: sign-select on w, then shift/adds of x for the
// set magnitude bits (w in [-7, 7] needs at most bits 0..2). This is the
// per-PE datapath of the LUT-only array, executed in integer arithmetic.
inline std::int32_t shift_add_mul_i4(std::int32_t w, std::int32_t xv) {
  const std::int32_t mag = w < 0 ? -w : w;
  std::int32_t p = 0;
  if (mag & 1) p += xv;
  if (mag & 2) p += xv << 1;
  if (mag & 4) p += xv << 2;
  return w < 0 ? -p : p;
}

// Sums x over a ternary index run with 4-way-unrolled partials.
inline std::int32_t sum_indexed(const std::uint16_t* idx, std::size_t n,
                                const std::int8_t* x) {
  std::int32_t p0 = 0, p1 = 0, p2 = 0, p3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    p0 += x[idx[i]];
    p1 += x[idx[i + 1]];
    p2 += x[idx[i + 2]];
    p3 += x[idx[i + 3]];
  }
  for (; i < n; ++i) p0 += x[idx[i]];
  return p0 + p1 + p2 + p3;
}

// Sums x[idx - base] over the subrange of a run whose indices fall in
// [lo, hi) — the conv1d edge case. The run is ascending, so the subrange is
// found by binary search.
inline std::int32_t sum_indexed_window(const std::uint16_t* run, std::size_t n,
                                       std::uint16_t lo, std::uint16_t hi,
                                       const std::int8_t* x, std::size_t base) {
  const std::uint16_t* first = std::lower_bound(run, run + n, lo);
  const std::uint16_t* last = std::lower_bound(first, run + n, hi);
  std::int32_t sum = 0;
  for (const std::uint16_t* p = first; p != last; ++p) sum += x[*p - base];
  return sum;
}

}  // namespace

std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::int32_t p0 = 0, p1 = 0, p2 = 0, p3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    p0 += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
    p1 += static_cast<std::int32_t>(a[i + 1]) * static_cast<std::int32_t>(b[i + 1]);
    p2 += static_cast<std::int32_t>(a[i + 2]) * static_cast<std::int32_t>(b[i + 2]);
    p3 += static_cast<std::int32_t>(a[i + 3]) * static_cast<std::int32_t>(b[i + 3]);
  }
  for (; i < n; ++i) {
    p0 += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return p0 + p1 + p2 + p3;
}

// ---- Sub-INT8 reference kernels (read the packed bytes directly) ----

std::int32_t dot_ternary_packed(const std::uint8_t* row, const std::int8_t* x,
                                std::size_t cols) {
  std::int32_t acc = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    const unsigned code = (row[c >> 2] >> ((c & 3) * 2)) & 0x3u;
    acc += ternary_value(code) * static_cast<std::int32_t>(x[c]);
  }
  return acc;
}

std::int32_t dot_i4_packed(const std::uint8_t* row, const std::int8_t* x,
                           std::size_t cols) {
  std::int32_t acc = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    const unsigned nib = (row[c >> 1] >> ((c & 1) * 4)) & 0xFu;
    acc += nibble_value(nib) * static_cast<std::int32_t>(x[c]);
  }
  return acc;
}

void gemv_ternary_packed_ref(const std::uint8_t* packed, std::size_t rows,
                             std::size_t row_bytes, std::size_t cols,
                             const std::int8_t* x, const std::int32_t* bias,
                             const std::int32_t* shift, bool relu,
                             std::int8_t* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t a = dot_ternary_packed(packed + r * row_bytes, x, cols);
    y[r] = requantize(static_cast<std::int64_t>(bias[r]) + a, shift[r], relu);
  }
}

void gemv_i4_packed_ref(const std::uint8_t* packed, std::size_t rows,
                        std::size_t row_bytes, std::size_t cols,
                        const std::int8_t* x, const std::int32_t* bias,
                        const std::int32_t* shift, bool relu, std::int8_t* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t a = dot_i4_packed(packed + r * row_bytes, x, cols);
    y[r] = requantize(static_cast<std::int64_t>(bias[r]) + a, shift[r], relu);
  }
}

// ---- Ternary sparse kernels ----

void gemv_acc_ternary(const std::uint16_t* idx, const std::uint32_t* seg,
                      std::size_t rows, const std::int8_t* x,
                      std::int32_t* acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t p0 = seg[2 * r], p1 = seg[2 * r + 1], p2 = seg[2 * r + 2];
    acc[r] = sum_indexed(idx + p0, p1 - p0, x) - sum_indexed(idx + p1, p2 - p1, x);
  }
}

void gemv_ternary(const std::uint16_t* idx, const std::uint32_t* seg,
                  std::size_t rows, const std::int8_t* x,
                  const std::int32_t* bias, const std::int32_t* shift,
                  bool relu, std::int8_t* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t p0 = seg[2 * r], p1 = seg[2 * r + 1], p2 = seg[2 * r + 2];
    const std::int32_t a =
        sum_indexed(idx + p0, p1 - p0, x) - sum_indexed(idx + p1, p2 - p1, x);
    y[r] = requantize(static_cast<std::int64_t>(bias[r]) + a, shift[r], relu);
  }
}

void conv1d_ternary(const std::uint16_t* idx, const std::uint32_t* seg,
                    std::size_t out_ch, std::size_t in_ch, std::size_t kernel,
                    const std::int8_t* x, std::size_t T,
                    const std::int32_t* bias, const std::int32_t* shift,
                    bool relu, std::int8_t* y) {
  const auto pad = static_cast<std::ptrdiff_t>(kernel / 2);
  for (std::size_t t = 0; t < T; ++t) {
    const auto ti = static_cast<std::ptrdiff_t>(t);
    std::ptrdiff_t k_lo = pad - ti;
    if (k_lo < 0) k_lo = 0;
    std::ptrdiff_t k_hi = static_cast<std::ptrdiff_t>(T) - 1 + pad - ti;
    if (k_hi > static_cast<std::ptrdiff_t>(kernel) - 1) {
      k_hi = static_cast<std::ptrdiff_t>(kernel) - 1;
    }
    std::int8_t* yt = y + t * out_ch;
    if (k_lo == 0 && k_hi == static_cast<std::ptrdiff_t>(kernel) - 1) {
      // Interior timestep: the full row is valid, offset into x directly.
      const std::int8_t* xs = x + static_cast<std::size_t>(ti - pad) * in_ch;
      gemv_ternary(idx, seg, out_ch, xs, bias, shift, relu, yt);
      continue;
    }
    // Edge timestep: only columns in [k_lo*in_ch, (k_hi+1)*in_ch) survive;
    // select them from each ascending run by binary search. Index i of the
    // row maps to x[(ti - pad)*in_ch + i], so base re-centers the window.
    const auto lo = static_cast<std::uint16_t>(k_lo * static_cast<std::ptrdiff_t>(in_ch));
    const auto hi = static_cast<std::uint16_t>((k_hi + 1) * static_cast<std::ptrdiff_t>(in_ch));
    const std::int8_t* xw = x + (ti - pad + k_lo) * static_cast<std::ptrdiff_t>(in_ch);
    const std::size_t base = static_cast<std::size_t>(lo);
    for (std::size_t r = 0; r < out_ch; ++r) {
      const std::uint32_t p0 = seg[2 * r], p1 = seg[2 * r + 1], p2 = seg[2 * r + 2];
      const std::int32_t a =
          sum_indexed_window(idx + p0, p1 - p0, lo, hi, xw, base) -
          sum_indexed_window(idx + p1, p2 - p1, lo, hi, xw, base);
      yt[r] = requantize(static_cast<std::int64_t>(bias[r]) + a, shift[r], relu);
    }
  }
}

// ---- INT4 shift/add kernels ----

void gemv_acc_i4(const std::int8_t* plane, std::size_t rows,
                 std::size_t row_stride, std::size_t cols, const std::int8_t* x,
                 std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int8_t* w0 = plane + (r + 0) * row_stride;
    const std::int8_t* w1 = plane + (r + 1) * row_stride;
    const std::int8_t* w2 = plane + (r + 2) * row_stride;
    const std::int8_t* w3 = plane + (r + 3) * row_stride;
    std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const auto xv = static_cast<std::int32_t>(x[c]);
      a0 += shift_add_mul_i4(w0[c], xv);
      a1 += shift_add_mul_i4(w1[c], xv);
      a2 += shift_add_mul_i4(w2[c], xv);
      a3 += shift_add_mul_i4(w3[c], xv);
    }
    acc[r + 0] = a0;
    acc[r + 1] = a1;
    acc[r + 2] = a2;
    acc[r + 3] = a3;
  }
  for (; r < rows; ++r) {
    const std::int8_t* wr = plane + r * row_stride;
    std::int32_t a = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      a += shift_add_mul_i4(wr[c], static_cast<std::int32_t>(x[c]));
    }
    acc[r] = a;
  }
}

}  // namespace fenix::nn::kernels
