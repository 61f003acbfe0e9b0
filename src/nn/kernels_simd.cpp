// The ISA rungs and the kernels that dispatch on them: the per-window GEMV
// and conv1d entry points (INT8, the INT4 plane and the biased sub-INT8
// plane), the batch-lane GEMMs and the AMX tile GEMMs.
//
// The reference loops (quantize.cpp, kernels.cpp) stay the semantic anchor;
// every rung here must agree with them bit-for-bit. The vector strategy is
// the standard INT8 pmaddwd ladder: widen 8-bit operands to 16 bits,
// vpmaddwd multiplies lane pairs and adds each pair into an INT32 lane
// (products are <= 128*127 so a pair sum is <= 32512 — no saturation
// possible), and the INT32 lanes accumulate across the row before one
// horizontal reduction per output. Integer addition is associative and these
// layers are far too small to overflow INT32, so the lane partitioning is
// exact, not approximate.
//
// Four weight rows are processed per pass so each widened x chunk is reused
// four times, mirroring the blocking of the scalar kernel. Tails shorter
// than a vector chunk fall back to scalar multiplies feeding the same INT32
// accumulator. ISA selection happens once via __builtin_cpu_supports and is
// cached; compilation uses per-function target attributes so no global
// -mavx* flags leak into the rest of the build (the baseline stays plain
// x86-64 and non-AVX hosts still run everything through the scalar rung).
// The AMX rung (Isa::kAmx) adds tile GEMMs for the batched CNN; everything
// else runs its AVX-512 code there.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define FENIX_SIMD_X86 1
// GCC 12's avx512fintrin.h leaves `__Y` uninitialized inside several of its
// own intrinsics, and every inlined use warns (about 90 `may be used
// uninitialized` per -O3 compile of this file). Silence only that header, so
// a real uninitialized read in the kernels below still warns. Clang lacks
// -Wmaybe-uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif
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

// Test-only dispatch ceiling (ScopedIsaCap); the top rung means "uncapped".
std::atomic<Isa> g_isa_cap{Isa::kAmx};

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
  return cached && isa() >= Isa::kAvx512;
}

// ---- AVX2: 16 columns per step (128-bit INT8 loads widened to 256-bit
// INT16, vpmaddwd into 8 INT32 lanes). The bench models' layer widths are
// all multiples of 16, so the scalar tail is usually empty.
//
// The dot bodies are templates over the weight byte type W: signed INT8
// weights sign-extend, the biased sub-INT8 plane's unsigned bytes
// zero-extend (widen16_* overloads); products and sums are the same.

__attribute__((target("avx2"))) inline __m256i widen16_avx2(
    const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) inline __m256i widen16_avx2(
    const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
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
template <class W>
__attribute__((target("avx2"))) void dot4_avx2(const W* w0, const W* w1,
                                               const W* w2, const W* w3,
                                               const std::int8_t* x,
                                               std::size_t cols,
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

template <class W>
__attribute__((target("avx2"))) void dot1_avx2(const W* w,
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

// ---- AVX-512BW: 32 columns per step (256-bit INT8 loads widened to 512-bit
// INT16, vpmaddwd into 16 INT32 lanes), with a 16-column AVX2 step for the
// remainder before the scalar tail. target("avx512bw") implies AVX2, so the
// mixed-width body compiles in one function.

__attribute__((target("avx512bw"))) inline __m512i widen16_avx512(
    const std::int8_t* p) {
  return _mm512_cvtepi8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx512bw"))) inline __m512i widen16_avx512(
    const std::uint8_t* p) {
  return _mm512_cvtepu8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

template <class W>
__attribute__((target("avx512bw"))) void dot4_avx512(const W* w0, const W* w1,
                                                     const W* w2, const W* w3,
                                                     const std::int8_t* x,
                                                     std::size_t cols,
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

template <class W>
__attribute__((target("avx512bw"))) void dot1_avx512(const W* w,
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
// exact integer identity — no tolerance involved. Every rung above kScalar
// accumulates in the biased domain, so one correction per row finishes the
// job. Without VNNI the plane runs the madd ladder above as W = uint8_t.

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

// ---- AMX-INT8 tile GEMM ----
//
// The tile instructions are inline asm with a "memory" clobber on loads and
// stores: the compiler's AMX intrinsics declare no memory operands, so plain
// stores feeding a tile load (or loads reading a tile store) could be moved
// across them. Tile numbers are template arguments printed by the %c operand
// modifier; the assembler needs no target flag.

template <int T>
inline void tile_load(const void* base, std::size_t stride) {
  __asm__ volatile("tileloadd (%0,%1,1), %%tmm%c2" ::"r"(base),
                   "r"(static_cast<long>(stride)), "i"(T)
                   : "memory");
}
template <int T>
inline void tile_store(std::int32_t* base) {  // 16 rows of 64 bytes
  __asm__ volatile("tilestored %%tmm%c1, (%0,%2,1)" ::"r"(base), "i"(T),
                   "r"(64L)
                   : "memory");
}
template <int T>
inline void tile_zero() {
  __asm__ volatile("tilezero %%tmm%c0" ::"i"(T));
}
// C += A . B; AT&T operand order is B, A, C.
template <int C, int A, int B>
inline void tile_dp() {
  __asm__ volatile("tdpbssd %%tmm%c2, %%tmm%c1, %%tmm%c0" ::"i"(C), "i"(A),
                   "i"(B));
}

// ldtilecfg's 64-byte operand (palette 1).
struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64, "ldtilecfg reads 64 bytes");

// Linux grants the tile data state only on request, for the whole process
// (it enlarges every signal frame by about 8 KB).
bool amx_granted() {
#if defined(__linux__)
  constexpr long kArchReqXcompPerm = 0x1023;
  constexpr long kXfeatureXtiledata = 18;
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
  return false;
#endif
}

// One K step: B tile TB from the B rows at x, then for each block i < NB
// A tile TA from that block's 16 rows at a (`kbytes` apart), C tile i += A . B.
template <int NB, int TA, int TB>
void k_step(const std::int8_t* a, std::size_t kbytes, const std::int32_t* x) {
  tile_load<TB>(x, 64);
  tile_load<TA>(a, kbytes);
  tile_dp<0, TA, TB>();
  if constexpr (NB > 1) {
    tile_load<TA>(a + 16 * kbytes, kbytes);
    tile_dp<1, TA, TB>();
  }
  if constexpr (NB > 2) {
    tile_load<TA>(a + 32 * kbytes, kbytes);
    tile_dp<2, TA, TB>();
  }
  if constexpr (NB > 3) {
    tile_load<TA>(a + 48 * kbytes, kbytes);
    tile_dp<3, TA, TB>();
  }
}

// C tiles 0..NB-1 = blocks 0..NB-1 of the A rows at `a` (16 rows of K bytes
// each) times the K / 4 B rows at x, stored as 16 x 16 INT32 rows at c + 256
// * block. K runs in 64-byte steps through A/B tiles 4/5, then the K mod 64
// tail through tiles 6/7. B row k / 4 is word 16 * (k / 4) of x.
template <int NB>
void tile_blocks(const std::int8_t* a, std::size_t kbytes,
                 const std::int32_t* x, std::int32_t* c) {
  tile_zero<0>();
  if constexpr (NB > 1) tile_zero<1>();
  if constexpr (NB > 2) tile_zero<2>();
  if constexpr (NB > 3) tile_zero<3>();
  std::size_t k = 0;
  for (; k + 64 <= kbytes; k += 64) k_step<NB, 4, 5>(a + k, kbytes, x + 4 * k);
  if (k < kbytes) k_step<NB, 6, 7>(a + k, kbytes, x + 4 * k);
  tile_store<0>(c);
  if constexpr (NB > 1) tile_store<1>(c + 256);
  if constexpr (NB > 2) tile_store<2>(c + 512);
  if constexpr (NB > 3) tile_store<3>(c + 768);
}

// Accumulators of output rows [r0, r0 + 64) (fewer at the end) at c.
void tile_group(const TileWeights& w, std::size_t r0, const std::int32_t* x,
                std::int32_t* c) {
  const std::int8_t* a = w.a.data() + r0 * w.kbytes;
  switch ((w.rows - r0 + 15) / 16) {
    case 1:
      tile_blocks<1>(a, w.kbytes, x, c);
      return;
    case 2:
      tile_blocks<2>(a, w.kbytes, x, c);
      return;
    case 3:
      tile_blocks<3>(a, w.kbytes, x, c);
      return;
    default:
      tile_blocks<4>(a, w.kbytes, x, c);
      return;
  }
}

// Four saturated INT32 rows -> one quad word per lane (c0 in bits 0-7).
__attribute__((target("avx512bw"))) inline __m512i quad_avx512(
    __m512i c0, __m512i c1, __m512i c2, __m512i c3) {
  __m512i q = _mm512_mask_blend_epi8(0xEEEEEEEEEEEEEEEEull, c0,
                                     _mm512_slli_epi32(c1, 8));
  q = _mm512_mask_blend_epi8(0xCCCCCCCCCCCCCCCCull, q, _mm512_slli_epi32(c2, 16));
  return _mm512_mask_blend_epi8(0x8888888888888888ull, q,
                                _mm512_slli_epi32(c3, 24));
}

// Requantizes the accumulator rows [r0, r0 + 64) at c into quads
// [r0 / 4, q_end) of out; rows at or past `rows` are zero. With shift > 0,
// rounding_shift_right(v, s) == (v + 2^(s-1) - [v < 0]) >> s (arithmetic),
// and under ReLU the [v < 0] term cannot change a clamped result, so a ReLU
// row costs one add, one shift and the clamp.
__attribute__((target("avx512bw"))) void quads_from_tiles(
    const std::int32_t* c, std::size_t r0, std::size_t q_end, std::size_t rows,
    const std::int32_t* bias, int shift, bool relu, std::int32_t* out) {
  const std::int32_t off = 1 << (shift - 1);
  const __m512i lo = _mm512_set1_epi32(relu ? 0 : -128);
  const __m512i hi = _mm512_set1_epi32(127);
  for (std::size_t q = r0 / 4; q < q_end; ++q) {
    __m512i v[4];
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t r = 4 * q + i;
      if (r >= rows) {
        v[i] = _mm512_setzero_si512();
        continue;
      }
      const __m512i acc = _mm512_load_si512(c + (r - r0) * 16);
      __m512i t = _mm512_add_epi32(acc, _mm512_set1_epi32(bias[r] + off));
      if (!relu) {
        t = _mm512_add_epi32(
            t, _mm512_srai_epi32(_mm512_add_epi32(acc, _mm512_set1_epi32(bias[r])),
                                 31));
      }
      v[i] = _mm512_min_epi32(
          _mm512_max_epi32(_mm512_srai_epi32(t, static_cast<unsigned>(shift)), lo),
          hi);
    }
    _mm512_storeu_si512(out + q * 16, quad_avx512(v[0], v[1], v[2], v[3]));
  }
}

// Per-channel sums over T timesteps: each quad word splits into its four
// sign-extended bytes, which accumulate apart.
__attribute__((target("avx512bw"))) void avgpool_quads_avx512(
    const std::int32_t* x, std::size_t T, std::size_t cquads,
    std::int32_t multiplier, int shift, std::int32_t* out) {
  const __m512i m = _mm512_set1_epi32(multiplier);
  for (std::size_t kq = 0; kq < cquads; ++kq) {
    __m512i s[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                    _mm512_setzero_si512(), _mm512_setzero_si512()};
    for (std::size_t t = 0; t < T; ++t) {
      const __m512i v = _mm512_loadu_si512(x + (t * cquads + kq) * 16);
      s[0] = _mm512_add_epi32(s[0], _mm512_srai_epi32(_mm512_slli_epi32(v, 24), 24));
      s[1] = _mm512_add_epi32(s[1], _mm512_srai_epi32(_mm512_slli_epi32(v, 16), 24));
      s[2] = _mm512_add_epi32(s[2], _mm512_srai_epi32(_mm512_slli_epi32(v, 8), 24));
      s[3] = _mm512_add_epi32(s[3], _mm512_srai_epi32(v, 24));
    }
    for (__m512i& v : s) v = requant_avx512(_mm512_mullo_epi32(v, m), shift, false);
    _mm512_storeu_si512(out + kq * 16, quad_avx512(s[0], s[1], s[2], s[3]));
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

// ---- Per-window GEMV rungs ----
//
// A rung's accumulate function writes acc[r] = w_r . x for rows [0, rows),
// four weight rows per pass over x; gemv_rows and conv1d_rows below turn any
// of them into the requantizing GEMV and the 'same'-padded conv1d.

template <class W>
using RowsFn = void (*)(const W* w, std::size_t rows, std::size_t row_stride,
                        std::size_t cols, const std::int8_t* x,
                        std::int32_t* acc);

// kScalar INT8: 4-row blocks, so one pass over x feeds four accumulators
// while the weight rows stream through (-O3 vectorizes the column loop at
// the baseline ISA); leftover rows take dot_i8.
void blocked_rows(const std::int8_t* w, std::size_t rows,
                  std::size_t row_stride, std::size_t cols,
                  const std::int8_t* x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int8_t* w0 = w + (r + 0) * row_stride;
    const std::int8_t* w1 = w + (r + 1) * row_stride;
    const std::int8_t* w2 = w + (r + 2) * row_stride;
    const std::int8_t* w3 = w + (r + 3) * row_stride;
    std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      const auto xv = static_cast<std::int32_t>(x[c]);
      a0 += static_cast<std::int32_t>(w0[c]) * xv;
      a1 += static_cast<std::int32_t>(w1[c]) * xv;
      a2 += static_cast<std::int32_t>(w2[c]) * xv;
      a3 += static_cast<std::int32_t>(w3[c]) * xv;
    }
    acc[r + 0] = a0;
    acc[r + 1] = a1;
    acc[r + 2] = a2;
    acc[r + 3] = a3;
  }
  for (; r < rows; ++r) acc[r] = dot_i8(w + r * row_stride, x, cols);
}

#if FENIX_SIMD_X86
// The rungs above kScalar: `dot4` takes four rows per pass and `dot1` the
// leftover rows.
template <class W, auto dot4, auto dot1>
void ladder_rows(const W* w, std::size_t rows, std::size_t row_stride,
                 std::size_t cols, const std::int8_t* x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const W* base = w + r * row_stride;
    dot4(base, base + row_stride, base + 2 * row_stride, base + 3 * row_stride,
         x, cols, acc + r);
  }
  for (; r < rows; ++r) dot1(w + r * row_stride, x, cols, acc + r);
}
#endif

// The INT8 accumulate of the active rung; kAmx runs the AVX-512 ladder.
RowsFn<std::int8_t> int8_rows() {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAmx:
    case Isa::kAvx512:
      return ladder_rows<std::int8_t, dot4_avx512<std::int8_t>,
                         dot1_avx512<std::int8_t>>;
    case Isa::kAvx2:
      return ladder_rows<std::int8_t, dot4_avx2<std::int8_t>,
                         dot1_avx2<std::int8_t>>;
    case Isa::kScalar:
      break;
  }
#endif
  return blocked_rows;
}

// The biased plane's accumulate, for rungs above kScalar only (below them
// the packed layers run the multiply-free kernels): VNNI dpbusd when the host
// has it, else the madd ladder over zero-extended bytes.
RowsFn<std::uint8_t> biased_rows() {
#if FENIX_SIMD_X86
  if (has_vnni()) {
    return ladder_rows<std::uint8_t, dot4_sub8_vnni, dot1_sub8_vnni>;
  }
  if (isa() >= Isa::kAvx512) {
    return ladder_rows<std::uint8_t, dot4_avx512<std::uint8_t>,
                       dot1_avx512<std::uint8_t>>;
  }
  return ladder_rows<std::uint8_t, dot4_avx2<std::uint8_t>,
                     dot1_avx2<std::uint8_t>>;
#else
  return nullptr;  // Off x86-64 no rung is above kScalar.
#endif
}

// The requantizing GEMV of every rung and weight form: y[r] =
// requantize(bias[r] + w_r . x - B * sum(x)), with row r's shift at
// shift[r * shift_step] (step 0: one layer shift; 1: per-row shifts; a
// template argument, so a layer shift stays loop-invariant). B is the biased
// plane's weight bias, 0 for signed weights. Rows go through acc_rows 64 at
// a time, so its indirect call is paid per chunk, not per 4-row block.
template <std::size_t shift_step, class W>
void gemv_rows(RowsFn<W> acc_rows, const W* w, std::size_t rows,
               std::size_t row_stride, std::size_t cols, int weight_bias,
               const std::int8_t* x, const std::int32_t* bias,
               const std::int32_t* shift, bool relu, std::int8_t* y) {
  constexpr std::size_t kChunk = 64;
  const std::int32_t corr =
      weight_bias == 0 ? 0 : weight_bias * sum_x_i32(x, cols);
  std::int32_t acc[kChunk] = {};
  for (std::size_t r = 0; r < rows; r += kChunk) {
    const std::size_t n = std::min(kChunk, rows - r);
    acc_rows(w + r * row_stride, n, row_stride, cols, x, acc);
    for (std::size_t i = 0; i < n; ++i) {
      y[r + i] = requantize(acc[i] - corr, bias[r + i],
                            shift[(r + i) * shift_step], relu);
    }
  }
}

// 1-D convolution, 'same' padding, stride 1: one gemv_rows per output
// timestep over its valid taps. Taps outside [0, T) contribute nothing, and
// the survivors address one contiguous span of both x and each weight row
// (row stride in_ch * kernel), so edges cost no branches in the inner loops.
template <std::size_t shift_step, class W>
void conv1d_rows(RowsFn<W> acc_rows, const W* w, std::size_t out_ch,
                 std::size_t in_ch, std::size_t kernel, int weight_bias,
                 const std::int8_t* x, std::size_t T, const std::int32_t* bias,
                 const std::int32_t* shift, bool relu, std::int8_t* y) {
  const std::size_t pad = kernel / 2;
  for (std::size_t t = 0; t < T; ++t) {
    const std::size_t k_lo = pad > t ? pad - t : 0;
    const std::size_t k_hi = t + (kernel - pad) <= T ? kernel : T + pad - t;
    gemv_rows<shift_step>(acc_rows, w + k_lo * in_ch, out_ch, in_ch * kernel,
                          (k_hi - k_lo) * in_ch, weight_bias,
                          x + (t + k_lo - pad) * in_ch, bias, shift, relu,
                          y + t * out_ch);
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
      return __builtin_cpu_supports("amx-tile") &&
                     __builtin_cpu_supports("amx-int8") && amx_granted()
                 ? Isa::kAmx
                 : Isa::kAvx512;
    }
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kScalar;
  }();
  return detected;
#else
  return Isa::kScalar;
#endif
}

Isa active_isa() { return isa(); }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAmx:
      return "amx";
  }
  return "?";
}

ScopedIsaCap::ScopedIsaCap(Isa cap)
    : previous_(g_isa_cap.exchange(cap, std::memory_order_relaxed)) {}

ScopedIsaCap::~ScopedIsaCap() {
  g_isa_cap.store(previous_, std::memory_order_relaxed);
}

void gemv_acc_i8(const std::int8_t* w, std::size_t rows, std::size_t row_stride,
                 std::size_t cols, const std::int8_t* x, std::int32_t* acc) {
  int8_rows()(w, rows, row_stride, cols, x, acc);
}

void gemv_i8(const std::int8_t* w, std::size_t rows, std::size_t row_stride,
             std::size_t cols, const std::int8_t* x, const std::int32_t* bias,
             int shift, bool relu, std::int8_t* y) {
  const std::int32_t layer_shift = shift;
  gemv_rows<0>(int8_rows(), w, rows, row_stride, cols, 0, x, bias,
               &layer_shift, relu, y);
}

void conv1d_i8(const std::int8_t* w, std::size_t out_ch, std::size_t in_ch,
               std::size_t kernel, const std::int8_t* x, std::size_t T,
               const std::int32_t* bias, int shift, bool relu, std::int8_t* y) {
  const std::int32_t layer_shift = shift;
  conv1d_rows<0>(int8_rows(), w, out_ch, in_ch, kernel, 0, x, T, bias,
                 &layer_shift, relu, y);
}

void gemv_i4(const std::int8_t* plane, std::size_t rows, std::size_t row_stride,
             std::size_t cols, const std::int8_t* x, const std::int32_t* bias,
             const std::int32_t* shift, bool relu, std::int8_t* y) {
  gemv_rows<1>(gemv_acc_i4, plane, rows, row_stride, cols, 0, x, bias, shift,
               relu, y);
}

void conv1d_i4(const std::int8_t* plane, std::size_t out_ch, std::size_t in_ch,
               std::size_t kernel, const std::int8_t* x, std::size_t T,
               const std::int32_t* bias, const std::int32_t* shift, bool relu,
               std::int8_t* y) {
  conv1d_rows<1>(gemv_acc_i4, plane, out_ch, in_ch, kernel, 0, x, T, bias,
                 shift, relu, y);
}

void gemv_acc_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                        std::size_t row_stride, std::size_t cols,
                        int weight_bias, const std::int8_t* x,
                        std::int32_t* acc) {
  biased_rows()(biased, rows, row_stride, cols, x, acc);
  const std::int32_t corr = weight_bias * sum_x_i32(x, cols);
  for (std::size_t r = 0; r < rows; ++r) acc[r] -= corr;
}

void gemv_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                    std::size_t row_stride, std::size_t cols, int weight_bias,
                    const std::int8_t* x, const std::int32_t* bias,
                    const std::int32_t* shift, bool relu, std::int8_t* y) {
  gemv_rows<1>(biased_rows(), biased, rows, row_stride, cols, weight_bias, x,
               bias, shift, relu, y);
}

void conv1d_sub8_simd(const std::uint8_t* biased, std::size_t out_ch,
                      std::size_t in_ch, std::size_t kernel, int weight_bias,
                      const std::int8_t* x, std::size_t T,
                      const std::int32_t* bias, const std::int32_t* shift,
                      bool relu, std::int8_t* y) {
  conv1d_rows<1>(biased_rows(), biased, out_ch, in_ch, kernel, weight_bias, x,
                 T, bias, shift, relu, y);
}

std::size_t gemm_batch_lanes() {
  switch (isa()) {
    case Isa::kAmx:
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
    case Isa::kAmx:
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
    case Isa::kAmx:
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
    case Isa::kAmx:
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

TileWeights pack_tile_weights(const std::int8_t* w, std::size_t rows,
                              std::size_t groups, std::size_t cols) {
  TileWeights t;
  t.rows = rows;
  t.kbytes = groups * 4 * quads_of(cols);
  t.a.assign((rows + 15) / 16 * 16 * t.kbytes, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t g = 0; g < groups; ++g) {
      std::copy_n(w + (r * groups + g) * cols, cols,
                  t.a.begin() + static_cast<std::ptrdiff_t>(
                                    r * t.kbytes + g * 4 * quads_of(cols)));
    }
  }
  return t;
}

TileUnit::~TileUnit() {
#if FENIX_SIMD_X86
  if (tail_ >= 0) __asm__ volatile("tilerelease" ::: "memory");
#endif
}

void TileUnit::configure(std::size_t kbytes) {
  const int tail = static_cast<int>(kbytes % 64);
  if (tail == tail_) return;
#if FENIX_SIMD_X86
  TileConfig cfg;
  for (int t = 0; t < 6; ++t) {
    cfg.rows[t] = 16;
    cfg.colsb[t] = 64;
  }
  if (tail != 0) {
    cfg.rows[6] = 16;
    cfg.colsb[6] = static_cast<std::uint16_t>(tail);
    cfg.rows[7] = static_cast<std::uint8_t>(tail / 4);
    cfg.colsb[7] = 64;
  }
  __asm__ volatile("ldtilecfg %0" ::"m"(cfg) : "memory");
#endif
  tail_ = tail;
}

void gemm_i8_quads(TileUnit& tiles, const TileWeights& w,
                   const std::int32_t* x, const std::int32_t* bias, int shift,
                   bool relu, std::int32_t* out) {
#if FENIX_SIMD_X86
  tiles.configure(w.kbytes);
  alignas(64) std::int32_t c[4 * 256];
  const std::size_t quads = quads_of(w.rows);
  for (std::size_t r0 = 0; r0 < w.rows; r0 += 64) {
    tile_group(w, r0, x, c);
    quads_from_tiles(c, r0, std::min(quads, (r0 + 64) / 4), w.rows, bias,
                     shift, relu, out);
  }
#else
  (void)tiles, (void)w, (void)x, (void)bias, (void)shift, (void)relu, (void)out;
#endif
}

void gemm_acc_i8_quads(TileUnit& tiles, const TileWeights& w,
                       const std::int32_t* x, std::int32_t* acc) {
#if FENIX_SIMD_X86
  tiles.configure(w.kbytes);
  for (std::size_t r0 = 0; r0 < w.rows; r0 += 64) {
    tile_group(w, r0, x, acc + r0 * 16);
  }
#else
  (void)tiles, (void)w, (void)x, (void)acc;
#endif
}

void avgpool_i8_quads(const std::int32_t* x, std::size_t T, std::size_t cquads,
                      std::int32_t multiplier, int shift, std::int32_t* out) {
#if FENIX_SIMD_X86
  avgpool_quads_avx512(x, T, cquads, multiplier, shift, out);
#else
  (void)x, (void)T, (void)cquads, (void)multiplier, (void)shift, (void)out;
#endif
}

}  // namespace fenix::nn::kernels
