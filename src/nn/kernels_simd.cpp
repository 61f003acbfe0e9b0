// Explicit AVX2 / AVX-512 lowering of the INT8 kernels.
//
// The scalar kernels in kernels.cpp stay the semantic reference; everything
// here must agree with them bit-for-bit. The vector strategy is the standard
// INT8 pmaddwd ladder: sign-extend 8-bit operands to 16 bits, vpmaddwd
// multiplies lane pairs and adds each pair into an INT32 lane (products are
// <= 128*127 so a pair sum is <= 32512 — no saturation possible), and the
// INT32 lanes accumulate across the row before one horizontal reduction per
// output. Integer addition is associative and these layers are far too small
// to overflow INT32, so the lane partitioning is exact, not approximate.
//
// Four weight rows are processed per pass so each widened x chunk is reused
// four times, mirroring the blocking of the scalar kernels. Tails shorter
// than a vector chunk fall back to scalar multiplies feeding the same INT32
// accumulator. ISA selection happens once via __builtin_cpu_supports and is
// cached; compilation uses per-function target attributes so no global
// -mavx* flags leak into the rest of the build (the baseline stays plain
// x86-64 and non-AVX hosts still run everything through the scalar path).
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define FENIX_SIMD_X86 1
#include <immintrin.h>
#else
#define FENIX_SIMD_X86 0
#endif

namespace fenix::nn::kernels {
namespace {

// Requantization identical to the scalar gemv_i8 epilogue.
inline std::int8_t requantize(std::int32_t acc, std::int32_t bias, int shift,
                              bool relu) {
  std::int64_t v = rounding_shift_right(static_cast<std::int64_t>(acc) + bias,
                                        shift);
  if (relu && v < 0) v = 0;
  return saturate_i8(v);
}

// The two INT16 halves of a lane-resident pair word.
inline std::int32_t lo16(std::int32_t w) {
  return static_cast<std::int16_t>(static_cast<std::uint32_t>(w) & 0xffffu);
}
inline std::int32_t hi16(std::int32_t w) {
  return static_cast<std::int16_t>(static_cast<std::uint32_t>(w) >> 16);
}

// Test-only dispatch ceiling (ScopedIsaCap); kAvx512 means "uncapped".
std::atomic<Isa> g_isa_cap{Isa::kAvx512};

Isa isa() {
  static const Isa host = host_isa();
  return std::min(host, g_isa_cap.load(std::memory_order_relaxed));
}

#if FENIX_SIMD_X86

// AVX-512VNNI gates the dpbusd sub-INT8 path; detection is separate from the
// Isa ladder because VNNI only changes speed, never results. A cap below
// AVX-512 turns it off with the rest of the AVX-512 code.
bool has_vnni() {
  static const bool cached = __builtin_cpu_supports("avx512vnni") &&
                             __builtin_cpu_supports("avx512bw");
  return cached && isa() == Isa::kAvx512;
}

// ---- AVX2: 16 columns per step (128-bit INT8 loads widened to 256-bit
// INT16, vpmaddwd into 8 INT32 lanes). The bench models' layer widths are
// all multiples of 16, so the scalar tail is usually empty.

__attribute__((target("avx2"))) inline __m256i widen16_avx2(
    const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) inline std::int32_t hsum_avx2(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Dot products of four weight rows against x, sharing the widened x chunks.
__attribute__((target("avx2"))) void dot4_avx2(
    const std::int8_t* w0, const std::int8_t* w1, const std::int8_t* w2,
    const std::int8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    const __m256i xv = widen16_avx2(x + c);
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(widen16_avx2(w0 + c), xv));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(widen16_avx2(w1 + c), xv));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(widen16_avx2(w2 + c), xv));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(widen16_avx2(w3 + c), xv));
  }
  out[0] = hsum_avx2(acc0);
  out[1] = hsum_avx2(acc1);
  out[2] = hsum_avx2(acc2);
  out[3] = hsum_avx2(acc3);
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx2"))) void dot1_avx2(const std::int8_t* w,
                                               const std::int8_t* x,
                                               std::size_t cols,
                                               std::int32_t* out) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(widen16_avx2(w + c), widen16_avx2(x + c)));
  }
  std::int32_t sum = hsum_avx2(acc);
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

__attribute__((target("avx2"))) void gemv_acc_avx2(
    const std::int8_t* w, std::size_t rows, std::size_t row_stride,
    std::size_t cols, const std::int8_t* x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int8_t* base = w + r * row_stride;
    dot4_avx2(base, base + row_stride, base + 2 * row_stride,
              base + 3 * row_stride, x, cols, acc + r);
  }
  for (; r < rows; ++r) {
    dot1_avx2(w + r * row_stride, x, cols, acc + r);
  }
}

// ---- AVX-512BW: 32 columns per step (256-bit INT8 loads widened to 512-bit
// INT16, vpmaddwd into 16 INT32 lanes), with a 16-column AVX2 step for the
// remainder before the scalar tail. target("avx512bw") implies AVX2, so the
// mixed-width body compiles in one function.

__attribute__((target("avx512bw"))) inline __m512i widen16_avx512(
    const std::int8_t* p) {
  return _mm512_cvtepi8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx512bw"))) void dot4_avx512(
    const std::int8_t* w0, const std::int8_t* w1, const std::int8_t* w2,
    const std::int8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    const __m512i xv = widen16_avx512(x + c);
    acc0 =
        _mm512_add_epi32(acc0, _mm512_madd_epi16(widen16_avx512(w0 + c), xv));
    acc1 =
        _mm512_add_epi32(acc1, _mm512_madd_epi16(widen16_avx512(w1 + c), xv));
    acc2 =
        _mm512_add_epi32(acc2, _mm512_madd_epi16(widen16_avx512(w2 + c), xv));
    acc3 =
        _mm512_add_epi32(acc3, _mm512_madd_epi16(widen16_avx512(w3 + c), xv));
  }
  out[0] = _mm512_reduce_add_epi32(acc0);
  out[1] = _mm512_reduce_add_epi32(acc1);
  out[2] = _mm512_reduce_add_epi32(acc2);
  out[3] = _mm512_reduce_add_epi32(acc3);
  if (c + 16 <= cols) {
    const __m256i xv = widen16_avx2(x + c);
    out[0] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w0 + c), xv));
    out[1] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w1 + c), xv));
    out[2] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w2 + c), xv));
    out[3] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w3 + c), xv));
    c += 16;
  }
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx512bw"))) void dot1_avx512(const std::int8_t* w,
                                                     const std::int8_t* x,
                                                     std::size_t cols,
                                                     std::int32_t* out) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    acc = _mm512_add_epi32(
        acc, _mm512_madd_epi16(widen16_avx512(w + c), widen16_avx512(x + c)));
  }
  std::int32_t sum = _mm512_reduce_add_epi32(acc);
  if (c + 16 <= cols) {
    sum += hsum_avx2(
        _mm256_madd_epi16(widen16_avx2(w + c), widen16_avx2(x + c)));
    c += 16;
  }
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

__attribute__((target("avx512bw"))) void gemv_acc_avx512(
    const std::int8_t* w, std::size_t rows, std::size_t row_stride,
    std::size_t cols, const std::int8_t* x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int8_t* base = w + r * row_stride;
    dot4_avx512(base, base + row_stride, base + 2 * row_stride,
                base + 3 * row_stride, x, cols, acc + r);
  }
  for (; r < rows; ++r) {
    dot1_avx512(w + r * row_stride, x, cols, acc + r);
  }
}

// ---- batch-lane GEMM ----

// AVX-512: 16 batch lanes per INT32 vector. R weight rows run against one
// packed operand so each packed-x load feeds R vpmaddwd; weight pairs
// broadcast straight from the precomputed wpairs array (one load-op per row
// per pair).

template <int R>
__attribute__((target("avx512bw"))) inline void rows_avx512(
    const std::int32_t* w, std::size_t kpairs, const std::int32_t* x,
    __m512i* acc) {
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) acc[i] = _mm512_setzero_si512();
  for (std::size_t kp = 0; kp < kpairs; ++kp) {
    const __m512i xv = _mm512_loadu_si512(x + kp * 16);
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      acc[i] = _mm512_add_epi32(
          acc[i],
          _mm512_madd_epi16(_mm512_set1_epi32(w[i * kpairs + kp]), xv));
    }
  }
}

__attribute__((target("avx512bw"))) inline __m512i requant_avx512(
    __m512i v, int shift, bool relu) {
  // shift > 0 (checked by the caller): round-half-away-from-zero matches
  // rounding_shift_right exactly — |v| + 2^(shift-1) cannot overflow INT32
  // at these accumulator magnitudes, and the logical shift is safe on the
  // non-negative magnitude.
  const __m512i zero = _mm512_setzero_si512();
  const __m512i off = _mm512_set1_epi32(1 << (shift - 1));
  const __mmask16 neg = _mm512_cmplt_epi32_mask(v, zero);
  __m512i mag = _mm512_srli_epi32(_mm512_add_epi32(_mm512_abs_epi32(v), off),
                                  static_cast<unsigned>(shift));
  v = _mm512_mask_sub_epi32(mag, neg, zero, mag);
  if (relu) v = _mm512_max_epi32(v, zero);
  return _mm512_min_epi32(_mm512_max_epi32(v, _mm512_set1_epi32(-128)),
                          _mm512_set1_epi32(127));
}

// Two saturated INT32 rows -> one pair word per lane (lo in bits 0-15).
__attribute__((target("avx512bw"))) inline __m512i pair_avx512(__m512i lo,
                                                               __m512i hi) {
  return _mm512_mask_blend_epi16(0xAAAAAAAAu, lo, _mm512_slli_epi32(hi, 16));
}

// One output row: requantize(acc + bias), saturated.
__attribute__((target("avx512bw"))) inline __m512i row_avx512(
    __m512i acc, std::int32_t bias, int shift, bool relu) {
  return requant_avx512(_mm512_add_epi32(acc, _mm512_set1_epi32(bias)), shift,
                        relu);
}

__attribute__((target("avx512bw"))) void gemm_i8_batch_avx512(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, const std::int32_t* bias, int shift,
    bool relu, std::int32_t* out) {
  __m512i acc[4];
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    rows_avx512<4>(wpairs + r * kpairs, kpairs, packed_x, acc);
    for (std::size_t i = 0; i < 4; i += 2) {
      _mm512_storeu_si512(
          out + (r + i) / 2 * 16,
          pair_avx512(row_avx512(acc[i], bias[r + i], shift, relu),
                      row_avx512(acc[i + 1], bias[r + i + 1], shift, relu)));
    }
  }
  if (r + 2 <= rows) {
    rows_avx512<2>(wpairs + r * kpairs, kpairs, packed_x, acc);
    _mm512_storeu_si512(out + r / 2 * 16,
                        pair_avx512(row_avx512(acc[0], bias[r], shift, relu),
                                    row_avx512(acc[1], bias[r + 1], shift, relu)));
    r += 2;
  }
  if (r < rows) {
    rows_avx512<1>(wpairs + r * kpairs, kpairs, packed_x, acc);
    _mm512_storeu_si512(out + r / 2 * 16,
                        pair_avx512(row_avx512(acc[0], bias[r], shift, relu),
                                    _mm512_setzero_si512()));
  }
}

__attribute__((target("avx512bw"))) void gemm_acc_batch_avx512(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, std::int32_t* acc) {
  __m512i a[4];
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    rows_avx512<4>(wpairs + r * kpairs, kpairs, packed_x, a);
    for (int i = 0; i < 4; ++i) _mm512_storeu_si512(acc + (r + i) * 16, a[i]);
  }
  for (; r < rows; ++r) {
    rows_avx512<1>(wpairs + r * kpairs, kpairs, packed_x, a);
    _mm512_storeu_si512(acc + r * 16, a[0]);
  }
}

// Per-channel sums over T timesteps: each pair word splits into its two
// sign-extended halves, which accumulate apart.
__attribute__((target("avx512bw"))) void avgpool_batch_avx512(
    const std::int32_t* x, std::size_t T, std::size_t cpairs,
    std::int32_t multiplier, int shift, std::int32_t* out) {
  const __m512i m = _mm512_set1_epi32(multiplier);
  for (std::size_t kp = 0; kp < cpairs; ++kp) {
    __m512i lo = _mm512_setzero_si512();
    __m512i hi = _mm512_setzero_si512();
    for (std::size_t t = 0; t < T; ++t) {
      const __m512i v = _mm512_loadu_si512(x + (t * cpairs + kp) * 16);
      lo = _mm512_add_epi32(lo, _mm512_srai_epi32(_mm512_slli_epi32(v, 16), 16));
      hi = _mm512_add_epi32(hi, _mm512_srai_epi32(v, 16));
    }
    _mm512_storeu_si512(
        out + kp * 16,
        pair_avx512(requant_avx512(_mm512_mullo_epi32(lo, m), shift, false),
                    requant_avx512(_mm512_mullo_epi32(hi, m), shift, false)));
  }
}

// AVX2: 8 batch lanes per INT32 vector, same structure.

template <int R>
__attribute__((target("avx2"))) inline void rows_avx2(const std::int32_t* w,
                                                      std::size_t kpairs,
                                                      const std::int32_t* x,
                                                      __m256i* acc) {
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) acc[i] = _mm256_setzero_si256();
  for (std::size_t kp = 0; kp < kpairs; ++kp) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + kp * 8));
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      acc[i] = _mm256_add_epi32(
          acc[i],
          _mm256_madd_epi16(_mm256_set1_epi32(w[i * kpairs + kp]), xv));
    }
  }
}

__attribute__((target("avx2"))) inline __m256i requant_avx2(__m256i v,
                                                            int shift,
                                                            bool relu) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i off = _mm256_set1_epi32(1 << (shift - 1));
  __m256i mag = _mm256_srli_epi32(_mm256_add_epi32(_mm256_abs_epi32(v), off),
                                  shift);
  // sign_epi32(mag, v): mag for v > 0, -mag for v < 0, 0 for v == 0 (mag is
  // 0 there anyway) — exactly the round-half-away-from-zero sign restore.
  v = _mm256_sign_epi32(mag, v);
  if (relu) v = _mm256_max_epi32(v, zero);
  return _mm256_min_epi32(_mm256_max_epi32(v, _mm256_set1_epi32(-128)),
                          _mm256_set1_epi32(127));
}

__attribute__((target("avx2"))) inline __m256i pair_avx2(__m256i lo,
                                                         __m256i hi) {
  return _mm256_blend_epi16(lo, _mm256_slli_epi32(hi, 16), 0xAA);
}

__attribute__((target("avx2"))) inline void store_avx2(std::int32_t* p,
                                                       __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) inline __m256i row_avx2(__m256i acc,
                                                        std::int32_t bias,
                                                        int shift, bool relu) {
  return requant_avx2(_mm256_add_epi32(acc, _mm256_set1_epi32(bias)), shift,
                      relu);
}

__attribute__((target("avx2"))) void gemm_i8_batch_avx2(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, const std::int32_t* bias, int shift,
    bool relu, std::int32_t* out) {
  __m256i acc[4];
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    rows_avx2<4>(wpairs + r * kpairs, kpairs, packed_x, acc);
    for (std::size_t i = 0; i < 4; i += 2) {
      store_avx2(out + (r + i) / 2 * 8,
                 pair_avx2(row_avx2(acc[i], bias[r + i], shift, relu),
                           row_avx2(acc[i + 1], bias[r + i + 1], shift, relu)));
    }
  }
  if (r + 2 <= rows) {
    rows_avx2<2>(wpairs + r * kpairs, kpairs, packed_x, acc);
    store_avx2(out + r / 2 * 8,
               pair_avx2(row_avx2(acc[0], bias[r], shift, relu),
                         row_avx2(acc[1], bias[r + 1], shift, relu)));
    r += 2;
  }
  if (r < rows) {
    rows_avx2<1>(wpairs + r * kpairs, kpairs, packed_x, acc);
    store_avx2(out + r / 2 * 8, pair_avx2(row_avx2(acc[0], bias[r], shift, relu),
                                          _mm256_setzero_si256()));
  }
}

__attribute__((target("avx2"))) void gemm_acc_batch_avx2(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, std::int32_t* acc) {
  __m256i a[4];
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    rows_avx2<4>(wpairs + r * kpairs, kpairs, packed_x, a);
    for (int i = 0; i < 4; ++i) store_avx2(acc + (r + i) * 8, a[i]);
  }
  for (; r < rows; ++r) {
    rows_avx2<1>(wpairs + r * kpairs, kpairs, packed_x, a);
    store_avx2(acc + r * 8, a[0]);
  }
}

__attribute__((target("avx2"))) void avgpool_batch_avx2(
    const std::int32_t* x, std::size_t T, std::size_t cpairs,
    std::int32_t multiplier, int shift, std::int32_t* out) {
  const __m256i m = _mm256_set1_epi32(multiplier);
  for (std::size_t kp = 0; kp < cpairs; ++kp) {
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (std::size_t t = 0; t < T; ++t) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + (t * cpairs + kp) * 8));
      lo = _mm256_add_epi32(lo, _mm256_srai_epi32(_mm256_slli_epi32(v, 16), 16));
      hi = _mm256_add_epi32(hi, _mm256_srai_epi32(v, 16));
    }
    store_avx2(out + kp * 8,
               pair_avx2(requant_avx2(_mm256_mullo_epi32(lo, m), shift, false),
                         requant_avx2(_mm256_mullo_epi32(hi, m), shift, false)));
  }
}

// ---- Sub-INT8 (biased unsigned plane) dot products ----
//
// The biased plane stores w + B as unsigned bytes (B = 1 ternary, 8 INT4).
// Accumulating sum((w+B)*x) and subtracting B*sum(x) yields sum(w*x) as an
// exact integer identity — no tolerance involved. All ISA levels accumulate
// in the biased domain so one correction per row finishes the job.

// AVX-512VNNI: one dpbusd per row per 64 columns (u8 weights x s8
// activations, 4-wide dot into each INT32 lane). This is the kernel that
// makes ternary GEMV beat the INT8 madd ladder outright.

__attribute__((target("avx512vnni,avx512bw"))) void dot4_sub8_vnni(
    const std::uint8_t* w0, const std::uint8_t* w1, const std::uint8_t* w2,
    const std::uint8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 64 <= cols; c += 64) {
    const __m512i xv = _mm512_loadu_si512(x + c);
    acc0 = _mm512_dpbusd_epi32(acc0, _mm512_loadu_si512(w0 + c), xv);
    acc1 = _mm512_dpbusd_epi32(acc1, _mm512_loadu_si512(w1 + c), xv);
    acc2 = _mm512_dpbusd_epi32(acc2, _mm512_loadu_si512(w2 + c), xv);
    acc3 = _mm512_dpbusd_epi32(acc3, _mm512_loadu_si512(w3 + c), xv);
  }
  if (c < cols) {
    // Masked tail: lanes beyond cols load as zero and contribute nothing.
    const __mmask64 m = (~0ULL) >> (64 - (cols - c));
    const __m512i xv = _mm512_maskz_loadu_epi8(m, x + c);
    acc0 = _mm512_dpbusd_epi32(acc0, _mm512_maskz_loadu_epi8(m, w0 + c), xv);
    acc1 = _mm512_dpbusd_epi32(acc1, _mm512_maskz_loadu_epi8(m, w1 + c), xv);
    acc2 = _mm512_dpbusd_epi32(acc2, _mm512_maskz_loadu_epi8(m, w2 + c), xv);
    acc3 = _mm512_dpbusd_epi32(acc3, _mm512_maskz_loadu_epi8(m, w3 + c), xv);
  }
  out[0] = _mm512_reduce_add_epi32(acc0);
  out[1] = _mm512_reduce_add_epi32(acc1);
  out[2] = _mm512_reduce_add_epi32(acc2);
  out[3] = _mm512_reduce_add_epi32(acc3);
}

__attribute__((target("avx512vnni,avx512bw"))) void dot1_sub8_vnni(
    const std::uint8_t* w, const std::int8_t* x, std::size_t cols,
    std::int32_t* out) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 64 <= cols; c += 64) {
    acc = _mm512_dpbusd_epi32(acc, _mm512_loadu_si512(w + c),
                              _mm512_loadu_si512(x + c));
  }
  if (c < cols) {
    const __mmask64 m = (~0ULL) >> (64 - (cols - c));
    acc = _mm512_dpbusd_epi32(acc, _mm512_maskz_loadu_epi8(m, w + c),
                              _mm512_maskz_loadu_epi8(m, x + c));
  }
  *out = _mm512_reduce_add_epi32(acc);
}

// AVX-512BW without VNNI: zero-extend the biased bytes and run the same madd
// ladder as the INT8 kernels (pairs of (w+B)*x fit INT16 products easily).

__attribute__((target("avx512bw"))) inline __m512i widenu16_avx512(
    const std::uint8_t* p) {
  return _mm512_cvtepu8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx2"))) inline __m256i widenu16_avx2(
    const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx512bw"))) void dot4_sub8_avx512(
    const std::uint8_t* w0, const std::uint8_t* w1, const std::uint8_t* w2,
    const std::uint8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    const __m512i xv = widen16_avx512(x + c);
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(widenu16_avx512(w0 + c), xv));
    acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(widenu16_avx512(w1 + c), xv));
    acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(widenu16_avx512(w2 + c), xv));
    acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(widenu16_avx512(w3 + c), xv));
  }
  out[0] = _mm512_reduce_add_epi32(acc0);
  out[1] = _mm512_reduce_add_epi32(acc1);
  out[2] = _mm512_reduce_add_epi32(acc2);
  out[3] = _mm512_reduce_add_epi32(acc3);
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx512bw"))) void dot1_sub8_avx512(
    const std::uint8_t* w, const std::int8_t* x, std::size_t cols,
    std::int32_t* out) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    acc = _mm512_add_epi32(
        acc, _mm512_madd_epi16(widenu16_avx512(w + c), widen16_avx512(x + c)));
  }
  std::int32_t sum = _mm512_reduce_add_epi32(acc);
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

__attribute__((target("avx2"))) void dot4_sub8_avx2(
    const std::uint8_t* w0, const std::uint8_t* w1, const std::uint8_t* w2,
    const std::uint8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    const __m256i xv = widen16_avx2(x + c);
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(widenu16_avx2(w0 + c), xv));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(widenu16_avx2(w1 + c), xv));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(widenu16_avx2(w2 + c), xv));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(widenu16_avx2(w3 + c), xv));
  }
  out[0] = hsum_avx2(acc0);
  out[1] = hsum_avx2(acc1);
  out[2] = hsum_avx2(acc2);
  out[3] = hsum_avx2(acc3);
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx2"))) void dot1_sub8_avx2(const std::uint8_t* w,
                                                    const std::int8_t* x,
                                                    std::size_t cols,
                                                    std::int32_t* out) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(widenu16_avx2(w + c), widen16_avx2(x + c)));
  }
  std::int32_t sum = hsum_avx2(acc);
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

// Dispatches one 4-row / 1-row biased-domain dot to the best ISA.
void dot4_sub8(const std::uint8_t* w0, const std::uint8_t* w1,
               const std::uint8_t* w2, const std::uint8_t* w3,
               const std::int8_t* x, std::size_t cols, std::int32_t out[4]) {
  if (has_vnni()) {
    dot4_sub8_vnni(w0, w1, w2, w3, x, cols, out);
  } else if (isa() == Isa::kAvx512) {
    dot4_sub8_avx512(w0, w1, w2, w3, x, cols, out);
  } else {
    dot4_sub8_avx2(w0, w1, w2, w3, x, cols, out);
  }
}

void dot1_sub8(const std::uint8_t* w, const std::int8_t* x, std::size_t cols,
               std::int32_t* out) {
  if (has_vnni()) {
    dot1_sub8_vnni(w, x, cols, out);
  } else if (isa() == Isa::kAvx512) {
    dot1_sub8_avx512(w, x, cols, out);
  } else {
    dot1_sub8_avx2(w, x, cols, out);
  }
}

#endif  // FENIX_SIMD_X86

// Shared by every sub-INT8 path: sum of x (the B*sum(x) correction is one
// subtract per row). Plain loop — the compiler vectorizes it, and any
// summation order is exact.
std::int32_t sum_x_i32(const std::int8_t* x, std::size_t cols) {
  std::int32_t s = 0;
  for (std::size_t c = 0; c < cols; ++c) s += x[c];
  return s;
}

// Scalar sub-INT8 fallback: multiply out the biased plane directly. Same
// integer sums, so non-AVX hosts stay bit-identical.
void gemv_acc_sub8_scalar(const std::uint8_t* biased, std::size_t rows,
                          std::size_t row_stride, std::size_t cols,
                          int weight_bias, const std::int8_t* x,
                          std::int32_t* acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* wr = biased + r * row_stride;
    std::int32_t a = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      a += (static_cast<std::int32_t>(wr[c]) - weight_bias) *
           static_cast<std::int32_t>(x[c]);
    }
    acc[r] = a;
  }
}

// Scalar batch fallback (1 lane): the same pair-decomposed arithmetic in
// plain integers, so non-AVX hosts stay bit-identical to the vector paths.

void gemm_acc_batch_scalar(const std::int32_t* wpairs, std::size_t rows,
                           std::size_t kpairs, const std::int32_t* packed_x,
                           std::int32_t* acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* wr = wpairs + r * kpairs;
    std::int32_t a = 0;
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      a += lo16(wr[kp]) * lo16(packed_x[kp]) + hi16(wr[kp]) * hi16(packed_x[kp]);
    }
    acc[r] = a;
  }
}

}  // namespace

Isa host_isa() {
#if FENIX_SIMD_X86
  static const Isa detected = [] {
    if (__builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512f")) {
      return Isa::kAvx512;
    }
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kScalar;
  }();
  return detected;
#else
  return Isa::kScalar;
#endif
}

ScopedIsaCap::ScopedIsaCap(Isa cap)
    : previous_(g_isa_cap.exchange(cap, std::memory_order_relaxed)) {}

ScopedIsaCap::~ScopedIsaCap() {
  g_isa_cap.store(previous_, std::memory_order_relaxed);
}


void gemv_acc_i8_simd(const std::int8_t* w, std::size_t rows,
                      std::size_t row_stride, std::size_t cols,
                      const std::int8_t* x, std::int32_t* acc) {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAvx512:
      gemv_acc_avx512(w, rows, row_stride, cols, x, acc);
      return;
    case Isa::kAvx2:
      gemv_acc_avx2(w, rows, row_stride, cols, x, acc);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  gemv_acc_i8(w, rows, row_stride, cols, x, acc);
}

void gemv_i8_simd(const std::int8_t* w, std::size_t rows,
                  std::size_t row_stride, std::size_t cols,
                  const std::int8_t* x, const std::int32_t* bias, int shift,
                  bool relu, std::int8_t* y) {
#if FENIX_SIMD_X86
  if (isa() != Isa::kScalar) {
    std::size_t r = 0;
    std::int32_t acc[4];
    for (; r + 4 <= rows; r += 4) {
      const std::int8_t* base = w + r * row_stride;
      if (isa() == Isa::kAvx512) {
        dot4_avx512(base, base + row_stride, base + 2 * row_stride,
                    base + 3 * row_stride, x, cols, acc);
      } else {
        dot4_avx2(base, base + row_stride, base + 2 * row_stride,
                  base + 3 * row_stride, x, cols, acc);
      }
      for (int i = 0; i < 4; ++i) {
        y[r + i] = requantize(acc[i], bias[r + i], shift, relu);
      }
    }
    for (; r < rows; ++r) {
      if (isa() == Isa::kAvx512) {
        dot1_avx512(w + r * row_stride, x, cols, acc);
      } else {
        dot1_avx2(w + r * row_stride, x, cols, acc);
      }
      y[r] = requantize(acc[0], bias[r], shift, relu);
    }
    return;
  }
#endif
  gemv_i8(w, rows, row_stride, cols, x, bias, shift, relu, y);
}

void gemv_acc_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                        std::size_t row_stride, std::size_t cols,
                        int weight_bias, const std::int8_t* x,
                        std::int32_t* acc) {
#if FENIX_SIMD_X86
  if (isa() != Isa::kScalar) {
    const std::int32_t corr = weight_bias * sum_x_i32(x, cols);
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const std::uint8_t* base = biased + r * row_stride;
      std::int32_t raw[4];
      dot4_sub8(base, base + row_stride, base + 2 * row_stride,
                base + 3 * row_stride, x, cols, raw);
      acc[r + 0] = raw[0] - corr;
      acc[r + 1] = raw[1] - corr;
      acc[r + 2] = raw[2] - corr;
      acc[r + 3] = raw[3] - corr;
    }
    for (; r < rows; ++r) {
      std::int32_t raw;
      dot1_sub8(biased + r * row_stride, x, cols, &raw);
      acc[r] = raw - corr;
    }
    return;
  }
#endif
  gemv_acc_sub8_scalar(biased, rows, row_stride, cols, weight_bias, x, acc);
}

void gemv_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                    std::size_t row_stride, std::size_t cols, int weight_bias,
                    const std::int8_t* x, const std::int32_t* bias,
                    const std::int32_t* shift, bool relu, std::int8_t* y) {
#if FENIX_SIMD_X86
  if (isa() != Isa::kScalar) {
    const std::int32_t corr = weight_bias * sum_x_i32(x, cols);
    std::size_t r = 0;
    std::int32_t raw[4];
    for (; r + 4 <= rows; r += 4) {
      const std::uint8_t* base = biased + r * row_stride;
      dot4_sub8(base, base + row_stride, base + 2 * row_stride,
                base + 3 * row_stride, x, cols, raw);
      for (int i = 0; i < 4; ++i) {
        y[r + i] =
            requantize(raw[i] - corr, bias[r + i], shift[r + i], relu);
      }
    }
    for (; r < rows; ++r) {
      dot1_sub8(biased + r * row_stride, x, cols, raw);
      y[r] = requantize(raw[0] - corr, bias[r], shift[r], relu);
    }
    return;
  }
#endif
  std::int32_t a;
  for (std::size_t r = 0; r < rows; ++r) {
    gemv_acc_sub8_scalar(biased + r * row_stride, 1, row_stride, cols,
                         weight_bias, x, &a);
    y[r] = requantize(a, bias[r], shift[r], relu);
  }
}

void conv1d_sub8_simd(const std::uint8_t* biased, std::size_t out_ch,
                      std::size_t in_ch, std::size_t kernel, int weight_bias,
                      const std::int8_t* x, std::size_t T,
                      const std::int32_t* bias, const std::int32_t* shift,
                      bool relu, std::int8_t* y) {
  const std::size_t pad = kernel / 2;
  const std::size_t row_stride = in_ch * kernel;
  for (std::size_t ti = 0; ti < T; ++ti) {
    // Valid tap window, as in conv1d_i8_simd: survivors form one contiguous
    // span of both x and each (biased) weight row.
    const std::size_t k_lo = pad > ti ? pad - ti : 0;
    const std::size_t k_hi = ti + (kernel - pad) <= T ? kernel : T + pad - ti;
    const std::size_t span = (k_hi - k_lo) * in_ch;
    const std::int8_t* xs = x + (ti + k_lo - pad) * in_ch;
    const std::uint8_t* ws = biased + k_lo * in_ch;
    gemv_sub8_simd(ws, out_ch, row_stride, span, weight_bias, xs, bias, shift,
                   relu, y + ti * out_ch);
  }
}

std::size_t gemm_batch_lanes() {
  switch (isa()) {
    case Isa::kAvx512:
      return 16;
    case Isa::kAvx2:
      return 8;
    case Isa::kScalar:
      break;
  }
  return 1;
}

std::vector<std::int32_t> pack_weight_pairs(const std::int8_t* w,
                                            std::size_t rows,
                                            std::size_t row_stride,
                                            std::size_t cols) {
  const std::size_t kpairs = (cols + 1) / 2;
  std::vector<std::int32_t> packed(rows * kpairs);
  for (std::size_t r = 0; r < rows; ++r) {
    pack_pairs(w + r * row_stride, cols, 1, packed.data() + r * kpairs);
  }
  return packed;
}

void pack_pairs(const std::int8_t* x, std::size_t K, std::size_t lanes,
                std::int32_t* dst) {
  for (std::size_t kp = 0; 2 * kp < K; ++kp) {
    dst[kp * lanes] = pack_pair(x[2 * kp], 2 * kp + 1 < K ? x[2 * kp + 1] : 0);
  }
}

void gemm_acc_i8_batch(const std::int32_t* wpairs, std::size_t rows,
                       std::size_t kpairs, const std::int32_t* packed_x,
                       std::int32_t* acc) {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAvx512:
      gemm_acc_batch_avx512(wpairs, rows, kpairs, packed_x, acc);
      return;
    case Isa::kAvx2:
      gemm_acc_batch_avx2(wpairs, rows, kpairs, packed_x, acc);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  gemm_acc_batch_scalar(wpairs, rows, kpairs, packed_x, acc);
}

void gemm_i8_batch(const std::int32_t* wpairs, std::size_t rows,
                   std::size_t kpairs, const std::int32_t* packed_x,
                   const std::int32_t* bias, int shift, bool relu,
                   std::int32_t* out) {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAvx512:
      gemm_i8_batch_avx512(wpairs, rows, kpairs, packed_x, bias, shift, relu,
                           out);
      return;
    case Isa::kAvx2:
      gemm_i8_batch_avx2(wpairs, rows, kpairs, packed_x, bias, shift, relu,
                         out);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  std::int32_t a[2];
  for (std::size_t r = 0; r < rows; r += 2) {
    const std::size_t n = std::min<std::size_t>(2, rows - r);
    gemm_acc_batch_scalar(wpairs + r * kpairs, n, kpairs, packed_x, a);
    out[r / 2] = pack_pair(requantize(a[0], bias[r], shift, relu),
                           n == 2 ? requantize(a[1], bias[r + 1], shift, relu)
                                  : 0);
  }
}

void avgpool_i8_batch(const std::int32_t* x, std::size_t T, std::size_t cpairs,
                      std::int32_t multiplier, int shift, std::int32_t* out) {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAvx512:
      avgpool_batch_avx512(x, T, cpairs, multiplier, shift, out);
      return;
    case Isa::kAvx2:
      avgpool_batch_avx2(x, T, cpairs, multiplier, shift, out);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  for (std::size_t kp = 0; kp < cpairs; ++kp) {
    std::int64_t lo = 0, hi = 0;
    for (std::size_t t = 0; t < T; ++t) {
      lo += lo16(x[t * cpairs + kp]);
      hi += hi16(x[t * cpairs + kp]);
    }
    out[kp] = pack_pair(saturate_i8(rounding_shift_right(lo * multiplier, shift)),
                        saturate_i8(rounding_shift_right(hi * multiplier, shift)));
  }
}

void conv1d_i8_simd(const std::int8_t* w, std::size_t out_ch,
                    std::size_t in_ch, std::size_t kernel, const std::int8_t* x,
                    std::size_t T, const std::int32_t* bias, int shift,
                    bool relu, std::int8_t* y) {
#if FENIX_SIMD_X86
  if (isa() != Isa::kScalar) {
    const std::size_t pad = kernel / 2;
    for (std::size_t ti = 0; ti < T; ++ti) {
      // Valid tap window [k_lo, k_hi): taps that stay inside [0, T). Matches
      // the scalar conv1d_i8 edge handling exactly.
      const std::size_t k_lo = pad > ti ? pad - ti : 0;
      const std::size_t k_hi =
          ti + (kernel - pad) <= T ? kernel : T + pad - ti;
      const std::size_t span = (k_hi - k_lo) * in_ch;
      const std::int8_t* xs = x + (ti + k_lo - pad) * in_ch;
      const std::int8_t* ws = w + k_lo * in_ch;
      gemv_i8_simd(ws, out_ch, in_ch * kernel, span, xs, bias, shift, relu,
                   y + ti * out_ch);
    }
    return;
  }
#endif
  conv1d_i8(w, out_ch, in_ch, kernel, x, T, bias, shift, relu, y);
}

}  // namespace fenix::nn::kernels
