// INT8 and sub-INT8 inference kernels for the host-side hot path, one entry
// point per operation at the ISA rung the host runs (Isa, below).
//
// Every mirrored packet pays one quantized forward pass, so these kernels
// gate how many Figure-10-scale replays the harness can run per second. The
// kernels keep the exact fixed-point semantics of the scalar reference loops
// retained in quantize.cpp (INT8 multiplies, integer accumulation,
// rounding-right-shift requantization): integer addition is associative, so
// reordering the accumulation into 4-row blocks, 4-way-unrolled partial sums
// or vector lanes is bit-identical as long as the INT32 partials cannot
// overflow. Each partial sum covers at most ceil(cols/4) products of
// magnitude <= 128*127, so any layer with fewer than ~500k inputs — orders
// of magnitude beyond the paper's models — is safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fenix::nn {

/// Clamps to INT8 range.
constexpr std::int8_t saturate_i8(std::int64_t v) {
  if (v > 127) return 127;
  if (v < -128) return -128;
  return static_cast<std::int8_t>(v);
}

/// Rounding arithmetic right shift (round-half-away-from-zero), the
/// requantization step of fixed-point hardware.
constexpr std::int64_t rounding_shift_right(std::int64_t v, int shift) {
  if (shift <= 0) return v << (-shift);
  const std::int64_t offset = 1LL << (shift - 1);
  return v >= 0 ? (v + offset) >> shift : -((-v + offset) >> shift);
}

namespace kernels {

/// INT8 dot product with 4-way-unrolled INT32 partial accumulators.
std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n);

/// GEMV: y[r] = requantize(bias[r] + w_r . x) for r in [0, rows). Row r
/// starts at w + r * row_stride and is `cols` long (row_stride == cols for a
/// dense matrix; conv1d uses a larger stride to address a kernel-tap window).
/// ReLU is applied before saturation when `relu` is set. Runs at
/// active_isa(): at Isa::kScalar 4 weight rows per pass over x with
/// 4-way-unrolled sums, above it the widen-and-madd ladder (AVX2, or AVX-512
/// at kAvx512 and kAmx).
void gemv_i8(const std::int8_t* w, std::size_t rows, std::size_t row_stride,
             std::size_t cols, const std::int8_t* x, const std::int32_t* bias,
             int shift, bool relu, std::int8_t* y);

/// gemv_i8 without requantization: acc[r] = w_r . x as raw INT32
/// accumulators (the recurrent path merges two of these before its LUT
/// activation).
void gemv_acc_i8(const std::int8_t* w, std::size_t rows, std::size_t row_stride,
                 std::size_t cols, const std::int8_t* x, std::int32_t* acc);

/// 1-D convolution, 'same' padding, stride 1, at active_isa(). x is T x in_ch
/// row-major, w is out_ch x (in_ch * kernel), y is T x out_ch. Each output
/// timestep reduces to one gemv_i8 over the valid (contiguous) tap window,
/// so the edge handling costs no branches in the inner loops.
void conv1d_i8(const std::int8_t* w, std::size_t out_ch, std::size_t in_ch,
               std::size_t kernel, const std::int8_t* x, std::size_t T,
               const std::int32_t* bias, int shift, bool relu, std::int8_t* y);

// ---- Sub-INT8 (ternary / INT4) multiply-free kernels ----
//
// Weight formats (activations stay INT8 throughout):
//  * Ternary: weights in {-1, 0, +1}, packed 2 bits per weight, 4 per byte,
//    least-significant pair first. Code 0 = 0, 1 = +1, 2 = -1 (3 is invalid).
//    A product is a pass/negate/zero select — no multiplier, on the FPGA or
//    here.
//  * INT4: weights in [-7, 7], packed as two's-complement nibbles, low nibble
//    first. A product decomposes into at most three shift/adds of x
//    (w = +-(b0 + 2*b1 + 4*b2)).
//
// Scaling is per *output row*: each row r carries its own weight exponent, so
// requantization takes a per-row shift array instead of one layer shift, and
// the bias for row r sits at exponent row_e[r] + in_e. Every kernel below is
// exact integer arithmetic — the packed-reading reference, the multiply-free
// optimized forms, and the SIMD lowering all compute the same INT32 dot
// product, so bit-identity holds by associativity (no overflow at these
// layer sizes). QPackedDense / QPackedConv1D::forward pick the form from the
// rung: the multiply-free kernels at Isa::kScalar, the biased plane above.
//
// Operand forms (all derived deterministically from the packed bytes):
//  * packed      — the 2-bit / nibble rows themselves (reference kernels).
//  * plane       — nibble-/code-unpacked INT8 weights (the INT4 shift/add
//                  kernels).
//  * idx/seg     — ternary sparse form: per row, the +1 column indices then
//                  the -1 column indices, each ascending. seg has 2*rows+1
//                  entries: row r's plus run is idx[seg[2r]..seg[2r+1]) and
//                  its minus run idx[seg[2r+1]..seg[2r+2]). The dot product
//                  is sum(x[plus]) - sum(x[minus]) — two loads and an add
//                  per nonzero weight, nothing else.
//  * biased      — plane + B as unsigned bytes (B = 1 ternary, 8 INT4), the
//                  operand of every rung above kScalar (the unsigned operand
//                  of AVX-512VNNI dpbusd): sum((w+B)*x) - B*sum(x) ==
//                  sum(w*x) exactly.

/// Reference dot products reading the packed rows directly (these pin the
/// packed bytes as the source of truth for every other operand form).
std::int32_t dot_ternary_packed(const std::uint8_t* row, const std::int8_t* x,
                                std::size_t cols);
std::int32_t dot_i4_packed(const std::uint8_t* row, const std::int8_t* x,
                           std::size_t cols);

/// Sequential reference GEMV over packed rows; shift is per-row.
void gemv_ternary_packed_ref(const std::uint8_t* packed, std::size_t rows,
                             std::size_t row_bytes, std::size_t cols,
                             const std::int8_t* x, const std::int32_t* bias,
                             const std::int32_t* shift, bool relu,
                             std::int8_t* y);
void gemv_i4_packed_ref(const std::uint8_t* packed, std::size_t rows,
                        std::size_t row_bytes, std::size_t cols,
                        const std::int8_t* x, const std::int32_t* bias,
                        const std::int32_t* shift, bool relu, std::int8_t* y);

/// Multiply-free ternary GEMV over the sparse idx/seg form, 4-way unrolled
/// within each run. acc variant returns raw INT32 accumulators.
void gemv_ternary(const std::uint16_t* idx, const std::uint32_t* seg,
                  std::size_t rows, const std::int8_t* x,
                  const std::int32_t* bias, const std::int32_t* shift,
                  bool relu, std::int8_t* y);
void gemv_acc_ternary(const std::uint16_t* idx, const std::uint32_t* seg,
                      std::size_t rows, const std::int8_t* x,
                      std::int32_t* acc);

/// Ternary 1-D convolution ('same' padding, stride 1) over the sparse form.
/// Row width is in_ch*kernel; each timestep's valid tap window selects the
/// index subrange by binary search (both runs are ascending), so edges cost
/// two searches per row instead of per-tap branches.
void conv1d_ternary(const std::uint16_t* idx, const std::uint32_t* seg,
                    std::size_t out_ch, std::size_t in_ch, std::size_t kernel,
                    const std::int8_t* x, std::size_t T,
                    const std::int32_t* bias, const std::int32_t* shift,
                    bool relu, std::int8_t* y);

/// Multiply-free INT4 kernels over the nibble-unpacked plane: each product is
/// a sign-select plus up to three shift/adds, blocked 4 rows per pass like
/// gemv_i8.
void gemv_i4(const std::int8_t* plane, std::size_t rows, std::size_t row_stride,
             std::size_t cols, const std::int8_t* x, const std::int32_t* bias,
             const std::int32_t* shift, bool relu, std::int8_t* y);
void gemv_acc_i4(const std::int8_t* plane, std::size_t rows,
                 std::size_t row_stride, std::size_t cols, const std::int8_t* x,
                 std::int32_t* acc);
void conv1d_i4(const std::int8_t* plane, std::size_t out_ch, std::size_t in_ch,
               std::size_t kernel, const std::int8_t* x, std::size_t T,
               const std::int32_t* bias, const std::int32_t* shift, bool relu,
               std::int8_t* y);

/// SIMD sub-INT8 kernels (kernels_simd.cpp) over the biased unsigned plane;
/// they require active_isa() >= Isa::kAvx2. weight_bias is B (1 for
/// ternary, 8 for INT4). With AVX-512VNNI each step is one dpbusd per row per
/// 64 columns — about a quarter of the INT8 madd ladder's work — and the
/// B*sum(x) correction restores the exact signed dot product. Without VNNI
/// the biased plane runs through the same widen-and-madd ladder as the INT8
/// kernels. Results never depend on the ISA.
void gemv_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                    std::size_t row_stride, std::size_t cols, int weight_bias,
                    const std::int8_t* x, const std::int32_t* bias,
                    const std::int32_t* shift, bool relu, std::int8_t* y);
void gemv_acc_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                        std::size_t row_stride, std::size_t cols,
                        int weight_bias, const std::int8_t* x,
                        std::int32_t* acc);
void conv1d_sub8_simd(const std::uint8_t* biased, std::size_t out_ch,
                      std::size_t in_ch, std::size_t kernel, int weight_bias,
                      const std::int8_t* x, std::size_t T,
                      const std::int32_t* bias, const std::int32_t* shift,
                      bool relu, std::int8_t* y);

// ---- ISA rungs (kernels_simd.cpp) ----
//
// The INT8 kernels above, the packed layers' choice of operand form and the
// batch kernels below all run at one rung. Above kScalar the per-window
// kernels widen INT8 (or biased unsigned) operands to INT16,
// multiply-accumulate pairs into INT32 lanes (vpmaddwd: each product is at
// most 128*127, so a pair sum fits INT32 with enormous margin), and reduce
// the lanes to the same exact INT32 dot product the scalar loops compute —
// integer addition is associative and overflow-free at these layer sizes, so
// any lane partitioning is bit-identical. Requantization reuses
// rounding_shift_right/saturate_i8 verbatim, so results never depend on the
// rung, only speed does.

/// Vector ISA levels the kernels dispatch on, lowest first. kAmx is AVX-512
/// plus the AMX-INT8 tile unit: every AVX-512 kernel runs unchanged at kAmx,
/// and QuantizedCnn::predict_batch adds the tile GEMMs below.
enum class Isa { kScalar, kAvx2, kAvx512, kAmx };

/// The best level the running CPU supports (detected once, never capped).
/// kAmx also needs the kernel's leave to use the tile data state: on Linux
/// x86-64 the first call asks for it with arch_prctl(ARCH_REQ_XCOMP_PERM),
/// and a refusal leaves the host at kAvx512.
Isa host_isa();

/// The level every dispatch runs at now: host_isa() under the innermost
/// ScopedIsaCap.
Isa active_isa();

/// "scalar", "avx2", "avx512" or "amx".
const char* isa_name(Isa isa);

/// Test seam: while alive, every dispatch on the rung (the kernels in this
/// file, gemm_batch_lanes(), the VNNI sub-INT8 path, the packed layers'
/// operand form, the AMX rung) runs at most `cap`, so one host can exercise
/// the lower tiers. Caps nest; the destructor restores the previous one. Not
/// for production code: a cap changes speed only, never results. Create and
/// destroy one only while no other thread runs these kernels — a batch sized
/// for one lane width must not run at another.
class ScopedIsaCap {
 public:
  explicit ScopedIsaCap(Isa cap);
  ~ScopedIsaCap();
  ScopedIsaCap(const ScopedIsaCap&) = delete;
  ScopedIsaCap& operator=(const ScopedIsaCap&) = delete;

 private:
  Isa previous_;
};

// ---- Batch-lane GEMM (kernels_simd.cpp) ----
//
// The row-wise SIMD kernels above still pay one horizontal reduction per
// output for FENIX's small layers. The batched kernels instead map the
// *batch* dimension onto vector lanes: lane b of every INT32 accumulator
// belongs to inference b, so accumulation is purely vertical and the kernel
// streams each weight row exactly once per batch. This is the software
// mirror of the FPGA's async input FIFO feeding the systolic array
// back-to-back frames (§6): per-frame overhead is amortized across the
// batch, arithmetic is unchanged.
//
// Operand layouts (lanes = gemm_batch_lanes()):
//  * Weights are pre-widened once per layer into INT16 pairs packed in an
//    INT32 word: wpairs[r * kpairs + k/2] = (int16)w[r][k] | (int16)w[r][k+1]
//    << 16, kpairs = ceil(K/2), zero-padded when K is odd (pack_weight_pairs).
//  * Activations are lane-resident pairs: word x[kp * lanes + b] holds
//    channels 2kp and 2kp+1 of item b as the same INT16 pair (an odd channel
//    count pads a zero channel). vpmaddwd then computes w[k]*x_b[k] +
//    w[k+1]*x_b[k+1] per lane — two MACs per lane per instruction with no
//    widening in the inner loop. gemm_i8_batch and avgpool_i8_batch write
//    their outputs in this same layout, so a batch stays in it from the
//    embedding to the last layer.
//
// Lanes the caller did not fill compute garbage that never crosses into
// another lane; the caller ignores them. Like every kernel here, results are
// bit-identical to the scalar reference (INT32 accumulation cannot overflow
// at these layer sizes; requantization is the same rounding_shift_right /
// relu / saturate_i8 sequence). gemm_i8_batch and avgpool_i8_batch require
// shift > 0 (always true for real quantized layers; callers fall back to the
// per-item path otherwise so the int64 left-shift semantics of the scalar
// reference are preserved).

/// Batch width the GEMM kernels process per call: 16 with AVX-512, 8 with
/// AVX2, 1 without either (the scalar fallback loops over one lane).
std::size_t gemm_batch_lanes();

/// Pre-widens a weight matrix into broadcast-ready INT16 pairs. `cols` is
/// the logical row width (may be smaller than row_stride, e.g. the recurrent
/// Wx rows); odd cols pads the final pair with zero.
std::vector<std::int32_t> pack_weight_pairs(const std::int8_t* w,
                                            std::size_t rows,
                                            std::size_t row_stride,
                                            std::size_t cols);

/// One pair word: `lo` in bits 0-15, `hi` in bits 16-31.
constexpr std::int32_t pack_pair(std::int16_t lo, std::int16_t hi) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint16_t>(lo)) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi)) << 16));
}

/// Writes one item's K INT8 activations as ceil(K/2) lane-resident pair
/// words, pair kp at dst[kp * lanes]; pass dst = plane + b for lane b.
void pack_pairs(const std::int8_t* x, std::size_t K, std::size_t lanes,
                std::int32_t* dst);

/// Requantized GEMM into pairs: rows r and r+1 of lane b become the low and
/// high INT16 halves of out[(r/2) * lanes + b] (an odd final row pairs with
/// zero), each requantize(bias[r] + w_r . x_b), ReLU'd when `relu`, and
/// saturated to INT8 range. Requires shift > 0.
void gemm_i8_batch(const std::int32_t* wpairs, std::size_t rows,
                   std::size_t kpairs, const std::int32_t* packed_x,
                   const std::int32_t* bias, int shift, bool relu,
                   std::int32_t* out);

/// acc[r * lanes + b] = w_r . x_b as raw INT32 accumulators.
void gemm_acc_i8_batch(const std::int32_t* wpairs, std::size_t rows,
                       std::size_t kpairs, const std::int32_t* packed_x,
                       std::int32_t* acc);

/// Average pool over T timestep rows of cpairs pair words each (x[(t *
/// cpairs + kp) * lanes + b]): every channel's integer sum over T, times
/// `multiplier`, requantized by `shift` and saturated, lands as a pair in
/// out[kp * lanes + b]. Requires shift > 0.
void avgpool_i8_batch(const std::int32_t* x, std::size_t T, std::size_t cpairs,
                      std::int32_t multiplier, int shift, std::int32_t* out);

// ---- AMX tile GEMM (kernels_simd.cpp, Isa::kAmx only) ----
//
// tdpbssd adds the product of a 16 x K INT8 A tile and a K x 16 INT8 B tile
// into a 16 x 16 INT32 C tile, K up to 64 per instruction. B is stored as K/4
// rows of 16 INT32 words, word n of row k holding B[4k..4k+3][n]. So the
// batch keeps its 16 lanes as the N dimension and its activations as
// lane-resident INT8 quads:
//  * word x[kq * 16 + b] holds channels 4kq..4kq+3 of item b, channel 4kq in
//    the low byte (pack_quad); pad channels are zero. A timestep of cq quads
//    is cq consecutive B rows, so a conv timestep's kernel rows are one run
//    of kernel * cq B rows and need no im2col.
//  * Weights (pack_tile_weights) are INT8 A rows, tap-major for a conv:
//    each of a row's `groups` groups of `cols` weights is padded to whole
//    quads, and the rows are padded with zero rows to a multiple of 16.
// A 16-row block of outputs is one C tile; its rows go through the same
// requantization as gemm_i8_batch and are packed four at a time into the
// next layer's quads. Bit-identity is the pair path's argument: INT8 x INT8
// products summed in INT32 cannot overflow at these layer sizes, and zero
// pads add nothing. Lanes the caller did not fill compute garbage that never
// crosses into another lane.

/// One quad word: `c0` in bits 0-7 ... `c3` in bits 24-31.
constexpr std::int32_t pack_quad(std::int8_t c0, std::int8_t c1, std::int8_t c2,
                                 std::int8_t c3) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(c0)) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c1)) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c2)) << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c3)) << 24));
}

/// Quad words holding `channels` INT8 channels.
constexpr std::size_t quads_of(std::size_t channels) { return (channels + 3) / 4; }

/// A layer's weights as AMX A tiles: `rows` output rows (padded to a multiple
/// of 16 in `a`), each `kbytes` INT8 weights long.
struct TileWeights {
  std::vector<std::int8_t> a;
  std::size_t rows = 0;
  std::size_t kbytes = 0;
};

/// Packs w (rows x groups * cols, row-major; a conv's rows are [tap][in_ch])
/// into A rows of groups * 4 * quads_of(cols) bytes.
TileWeights pack_tile_weights(const std::int8_t* w, std::size_t rows,
                              std::size_t groups, std::size_t cols);

/// The calling thread's tile unit. The tile GEMMs load the configuration for
/// their K into it (ldtilecfg, skipped while K mod 64 is unchanged); the
/// destructor releases the tile state (tilerelease), so a thread holds it
/// only inside one scope. Requires active_isa() == Isa::kAmx.
class TileUnit {
 public:
  TileUnit() = default;
  ~TileUnit();
  TileUnit(const TileUnit&) = delete;
  TileUnit& operator=(const TileUnit&) = delete;

  /// Loads the tile shapes of a K-byte reduction: C tiles 0-3, A and B tiles
  /// 4 and 5 for 64-byte K steps, 6 and 7 for the K mod 64 tail.
  void configure(std::size_t kbytes);

 private:
  int tail_ = -1;  ///< K mod 64 of the loaded configuration; -1 = none.
};

/// Requantized tile GEMM into quads: row r of lane b is requantize(bias[r] +
/// w_r . x_b), ReLU'd when `relu`, saturated, and lands as byte r % 4 of
/// out[(r / 4) * 16 + b]; pad rows up to quads_of(rows) * 4 are zero. x
/// holds w.kbytes / 4 B rows. Requires shift > 0.
void gemm_i8_quads(TileUnit& tiles, const TileWeights& w,
                   const std::int32_t* x, const std::int32_t* bias, int shift,
                   bool relu, std::int32_t* out);

/// acc[r * 16 + b] = w_r . x_b as raw INT32 accumulators, for r below rows
/// rounded up to a multiple of 16 (pad rows read 0).
void gemm_acc_i8_quads(TileUnit& tiles, const TileWeights& w,
                       const std::int32_t* x, std::int32_t* acc);

/// avgpool_i8_batch over quads: T timestep rows of cquads quad words per
/// lane (x[(t * cquads + kq) * 16 + b]) in, one row of cquads quads out.
/// Requires shift > 0.
void avgpool_i8_quads(const std::int32_t* x, std::size_t T, std::size_t cquads,
                      std::int32_t multiplier, int shift, std::int32_t* out);

}  // namespace kernels
}  // namespace fenix::nn
