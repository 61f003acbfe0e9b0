// Post-training INT8 quantization (Vitis-AI style, §6).
//
// All quantities use symmetric power-of-two scales: a tensor with exponent e
// represents real values q * 2^e with q in [-128, 127]. The quantizer picks a
// per-layer exponent ("decimal point position") for weights from their range
// and for activations from a calibration pass, then inference runs entirely
// in integer arithmetic: INT8 multiplies, INT32 accumulation, and
// rounding-right-shift requantization — exactly what the FPGA systolic array
// executes. Nonlinearities (tanh) become lookup tables, as in the HLS design.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/kernels.hpp"  // saturate_i8, rounding_shift_right, blocked kernels
#include "nn/models.hpp"

namespace fenix::nn {

/// Inference precision tier. INT8 is the paper's deployment format; INT4 and
/// ternary are the multiply-free sub-INT8 tiers (per-output-row exponents,
/// packed weights); FP32 is the float parent served unquantized as the
/// accuracy ceiling.
enum class Precision { kFp32, kInt8, kInt4, kTernary };

const char* precision_name(Precision p);
/// Parses "fp32" / "int8" / "int4" / "ternary"; returns false on anything else.
bool parse_precision(const std::string& s, Precision& out);
/// Bits per stored weight: 32 / 8 / 4 / 2.
int weight_bits(Precision p);

/// Typed rejection for weight tensors whose dimensions or contents don't
/// match the declared packing layout (the quantizer throws this instead of
/// asserting, so callers can surface a clean error for bad models).
class QuantizeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Chooses the smallest power-of-two exponent e such that
/// max|values| <= 127 * 2^e (i.e. the finest precision without saturation).
int choose_exponent(const float* values, std::size_t n);

/// Quantizes floats to INT8 at exponent e.
void quantize_to_i8(const float* src, std::size_t n, int e, std::int8_t* dst);

/// An INT8 matrix with its exponent.
struct QMatrix {
  std::size_t rows = 0, cols = 0;
  int exponent = 0;
  std::vector<std::int8_t> data;

  std::int8_t at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  static QMatrix from(const Matrix& m);
};

/// A quantized dense layer: INT8 weights, INT32 bias at the accumulator
/// exponent, and a fixed output exponent.
struct QDense {
  QMatrix w;
  std::vector<std::int32_t> bias;  ///< At exponent w.exponent + in_exponent.
  int in_exponent = 0;
  int out_exponent = 0;

  /// y = requantize(W x + b); optionally applies ReLU before saturation.
  /// Blocked + 4x-unrolled GEMV (kernels::gemv_i8).
  void forward(const std::int8_t* x, std::int8_t* y, bool relu) const;

  /// Scalar triple-loop reference, retained for bit-exactness testing; the
  /// blocked path must match it bit for bit.
  void forward_reference(const std::int8_t* x, std::int8_t* y, bool relu) const;

  /// Explicitly vectorized GEMV (kernels::gemv_i8_simd), bit-identical to
  /// forward(); falls back to the blocked scalar kernel without AVX2.
  void forward_simd(const std::int8_t* x, std::int8_t* y, bool relu) const;

  static QDense from(const Dense& d, int in_exponent, int out_exponent);
};

/// A quantized 1-D convolution ('same' padding, stride 1).
struct QConv1D {
  std::size_t in_ch = 0, out_ch = 0, kernel = 0;
  QMatrix w;  ///< out_ch x (in_ch*kernel)
  std::vector<std::int32_t> bias;
  int in_exponent = 0;
  int out_exponent = 0;

  /// x: T*in_ch row-major, y: T*out_ch. ReLU folded in. Blocked kernel
  /// (kernels::conv1d_i8).
  void forward(const std::int8_t* x, std::size_t T, std::int8_t* y, bool relu) const;

  /// Scalar reference with per-tap bounds checks, retained for testing.
  void forward_reference(const std::int8_t* x, std::size_t T, std::int8_t* y,
                         bool relu) const;

  /// Explicitly vectorized convolution (kernels::conv1d_i8_simd),
  /// bit-identical to forward().
  void forward_simd(const std::int8_t* x, std::size_t T, std::int8_t* y,
                    bool relu) const;

  static QConv1D from(const Conv1D& c, int in_exponent, int out_exponent);
};

// ------------------------------------------------- Sub-INT8 packed weights

/// A sub-INT8 weight matrix: bit-packed rows (2-bit ternary codes or INT4
/// nibbles, see nn/serialize pack helpers) with a per-output-row power-of-two
/// exponent. Row r represents values q * 2^row_exponent[r].
///
/// Scaling rules:
///  * Ternary (BitNet-b1.58 style absmean): e_r = round(log2 mean|w_r|), then
///    round(w / 2^e_r) clipped to {-1, 0, +1}. An all-zero row gets e_r = -7.
///  * INT4 (absmax): the smallest e_r with 7 * 2^e_r >= max|w_r|, then
///    round(w / 2^e_r) clipped to [-7, 7]. An all-zero row gets e_r = -7.
struct QPackedMatrix {
  Precision precision = Precision::kTernary;
  std::size_t rows = 0, cols = 0;
  std::size_t row_bytes = 0;  ///< Packed bytes per row.
  std::vector<std::uint8_t> packed;        ///< rows * row_bytes.
  std::vector<std::int32_t> row_exponent;  ///< One exponent per output row.

  static QPackedMatrix from(const Matrix& m, Precision p);

  /// Throws QuantizeError unless precision is sub-INT8, row_bytes matches the
  /// packed size of `cols` at that precision, the packed slab is exactly
  /// rows * row_bytes, there is one exponent per row, and (ternary) cols fits
  /// the uint16 sparse index form.
  void validate() const;

  /// Nibble-/code-unpacks to a rows x cols INT8 plane.
  std::vector<std::int8_t> unpack() const;
};

/// Kernel operand forms derived deterministically from the packed bytes (the
/// packed slab stays the source of truth; see kernels.hpp for the forms).
struct PackedOperands {
  std::vector<std::int8_t> plane;    ///< Unpacked INT8 weights, rows x cols.
  std::vector<std::uint8_t> biased;  ///< plane + B as unsigned bytes (SIMD).
  std::vector<std::uint16_t> idx;    ///< Ternary sparse column indices.
  std::vector<std::uint32_t> seg;    ///< Ternary run bounds, 2*rows+1.

  static PackedOperands prepare(const QPackedMatrix& m);
};

/// A sub-INT8 dense layer: packed weights, per-row INT32 bias at exponent
/// row_exponent[r] + in_exponent, per-row requantization shifts.
struct QPackedDense {
  QPackedMatrix w;
  PackedOperands ops;
  std::vector<std::int32_t> bias;
  std::vector<std::int32_t> shift;  ///< out_e - (row_e[r] + in_e) per row.
  int in_exponent = 0;
  int out_exponent = 0;

  /// Multiply-free scalar path (sparse ternary / shift-add INT4 kernels).
  void forward(const std::int8_t* x, std::int8_t* y, bool relu) const;
  /// Packed-reading sequential reference (bit-exactness anchor).
  void forward_reference(const std::int8_t* x, std::int8_t* y, bool relu) const;
  /// Vectorized biased-plane path (kernels::gemv_sub8_simd), bit-identical.
  void forward_simd(const std::int8_t* x, std::int8_t* y, bool relu) const;

  static QPackedDense from(const Dense& d, Precision p, int in_exponent,
                           int out_exponent);
};

/// A sub-INT8 1-D convolution ('same' padding, stride 1); weight rows are
/// out_ch x (in_ch*kernel) like QConv1D.
struct QPackedConv1D {
  std::size_t in_ch = 0, out_ch = 0, kernel = 0;
  QPackedMatrix w;
  PackedOperands ops;
  std::vector<std::int32_t> bias;
  std::vector<std::int32_t> shift;
  int in_exponent = 0;
  int out_exponent = 0;

  void forward(const std::int8_t* x, std::size_t T, std::int8_t* y,
               bool relu) const;
  void forward_reference(const std::int8_t* x, std::size_t T, std::int8_t* y,
                         bool relu) const;
  void forward_simd(const std::int8_t* x, std::size_t T, std::int8_t* y,
                    bool relu) const;

  static QPackedConv1D from(const Conv1D& c, Precision p, int in_exponent,
                            int out_exponent);
};

/// Integer lookup-table activation: maps an INT32 accumulator (at exponent
/// `acc_exponent`) through a float function to INT8 at `out_exponent`.
/// Hardware analogue: BRAM/LUT nonlinearity tables.
class QLutActivation {
 public:
  QLutActivation() = default;
  QLutActivation(std::function<double(double)> fn, int acc_exponent, int out_exponent,
                 double input_range);

  std::int8_t apply(std::int64_t acc) const;
  int out_exponent() const { return out_exponent_; }

 private:
  int acc_exponent_ = 0;
  int out_exponent_ = 0;
  int index_shift_ = 0;  ///< acc >> shift indexes the table.
  std::vector<std::int8_t> table_;  ///< Centered at table_.size()/2.
};

/// A quantized embedding: INT8 table rows at a fixed exponent.
struct QEmbedding {
  QMatrix table;
  const std::int8_t* row(std::size_t index) const {
    return table.data.data() + index * table.cols;
  }
  static QEmbedding from(const Embedding& e);
};

/// Calibration statistics: running max|activation| per observation point.
class Calibrator {
 public:
  void observe(const float* x, std::size_t n, std::size_t point);
  int exponent(std::size_t point) const;

 private:
  std::vector<float> max_abs_;
};

// ------------------------------------------------------------------ Scratch

/// Reusable inference workspace. The first inference through a model grows
/// the buffers to that model's high-water mark; every later inference then
/// runs with zero heap allocation (std::vector::resize within capacity).
/// One Scratch per execution context (a ModelEngine, a sweep shard, a bench
/// loop) — it is not thread-safe, and sharing one across models is fine.
struct Scratch {
  std::vector<std::int8_t> act_a;   ///< Ping activation plane.
  std::vector<std::int8_t> act_b;   ///< Pong activation plane.
  std::vector<std::int8_t> act_c;   ///< Third plane (recurrent h_next).
  std::vector<std::int32_t> acc_a;  ///< Raw accumulators (recurrent Wx x).
  std::vector<std::int32_t> acc_b;  ///< Raw accumulators (recurrent Wh h).
  std::vector<std::int32_t> logits;

  // Batched (predict_batch) workspace: lane-resident pair-word activation
  // planes (kernels.hpp, "Batch-lane GEMM") and raw rows x lanes INT32
  // accumulators.
  std::vector<std::int32_t> batch_a;
  std::vector<std::int32_t> batch_b;
  std::vector<std::int32_t> batch_c;
  std::vector<std::int32_t> batch_acc_a;
  std::vector<std::int32_t> batch_acc_b;
};

// ------------------------------------------------------------ Quantized CNN

/// INT8 inference twin of CnnClassifier. Produces the exact outputs the FPGA
/// Model Engine computes; the Model Engine wraps this for functional results
/// and adds systolic-array timing.
class QuantizedCnn {
 public:
  /// Quantizes `model` using activation ranges observed on `calibration`.
  QuantizedCnn(const CnnClassifier& model, const std::vector<SeqSample>& calibration);

  /// Precision-selecting constructor. kInt8 matches the two-argument form;
  /// kInt4/kTernary build the packed sub-INT8 layers (same calibration-derived
  /// activation exponents, per-row weight exponents); kFp32 serves the float
  /// parent directly — the caller must keep `model` alive for the lifetime of
  /// this object in that case.
  QuantizedCnn(const CnnClassifier& model, const std::vector<SeqSample>& calibration,
               Precision precision);

  Precision precision() const { return precision_; }

  /// Allocation-free hot path: runs the blocked kernels inside `scratch` and
  /// returns scratch.logits.
  const std::vector<std::int32_t>& logits_q(const std::vector<Token>& tokens,
                                            Scratch& scratch) const;
  std::int16_t predict(const std::vector<Token>& tokens, Scratch& scratch) const;

  /// Convenience wrappers that pay for a fresh Scratch per call.
  std::int16_t predict(const std::vector<Token>& tokens) const;
  std::vector<std::int32_t> logits_q(const std::vector<Token>& tokens) const;

  /// Scalar reference pipeline (forward_reference layers, allocating),
  /// retained for bit-exactness testing against the blocked path.
  std::vector<std::int32_t> logits_q_reference(const std::vector<Token>& tokens) const;

  /// Batched inference over `count` windows laid out row-major as
  /// count * seq_len tokens, writing each window's argmax class to out[i].
  /// gemm_batch_lanes() windows run at once through the batch-lane kernels,
  /// their activations lane-resident from embedding to head; at Isa::kAmx an
  /// INT8 model runs 16 at once through the tile GEMMs instead, holding the
  /// calling thread's tile unit only for the call. Bit-identical to calling
  /// predict() per window — the batch exists to amortize dispatch/frame
  /// overhead, not to change arithmetic.
  void predict_batch(const Token* tokens, std::size_t count, Scratch& scratch,
                     std::int16_t* out) const;

  const CnnConfig& config() const { return config_; }
  /// Total INT8 MACs of one inference (drives the systolic timer).
  std::uint64_t macs_per_inference() const;

 private:
  const std::vector<std::int32_t>& logits_q_impl(const Token* tokens, Scratch& scratch,
                                                 bool simd) const;
  const std::vector<std::int32_t>& logits_q_sub8(const Token* tokens, Scratch& scratch,
                                                 bool simd) const;
  const std::vector<std::int32_t>& logits_q_fp32(const Token* tokens,
                                                 Scratch& scratch) const;
  /// predict_batch's AMX body (Isa::kAmx, conv_tiles_ packed).
  void predict_batch_tiles(const Token* tokens, std::size_t count,
                           Scratch& scratch, std::int16_t* out) const;

  Precision precision_ = Precision::kInt8;
  const CnnClassifier* float_model_ = nullptr;  ///< Set only for kFp32.
  std::vector<QPackedConv1D> pconvs_;           ///< Sub-INT8 conv layers.
  std::vector<QPackedDense> pfcs_;              ///< Sub-INT8 FC layers.

  CnnConfig config_;
  QEmbedding len_embed_, ipd_embed_;
  int embed_exponent_ = 0;
  std::vector<QConv1D> convs_;
  std::vector<QDense> fcs_;
  std::int32_t pool_multiplier_ = 0;  ///< round(2^15 / seq_len)
  int pool_in_exponent_ = 0;
  int pool_out_exponent_ = 0;
  // Batch-lane GEMM operands: per-layer weight pairs (pack_weight_pairs) and
  // whether the model has the shape the lane-resident path needs, with every
  // layer and the pool meeting the batched kernels' shift > 0 contract.
  std::vector<std::vector<std::int32_t>> conv_wpairs_;
  std::vector<std::vector<std::int32_t>> fc_wpairs_;
  bool batch_ok_ = false;
  // The same layers as AMX A tiles, and the embedding tables as quad words
  // (embed_quad_rows), built only on a host with the AMX rung.
  std::vector<kernels::TileWeights> conv_tiles_;
  std::vector<kernels::TileWeights> fc_tiles_;
  std::vector<std::int32_t> len_quads_, ipd_quads_;
};

// ------------------------------------------------------------ Quantized RNN

class QuantizedRnn {
 public:
  QuantizedRnn(const RnnClassifier& model, const std::vector<SeqSample>& calibration);

  /// Precision-selecting constructor; see QuantizedCnn. For kFp32 the caller
  /// must keep `model` alive for the lifetime of this object.
  QuantizedRnn(const RnnClassifier& model, const std::vector<SeqSample>& calibration,
               Precision precision);

  Precision precision() const { return precision_; }

  /// Allocation-free hot path (blocked recurrent + FC kernels).
  std::int16_t predict(const std::vector<Token>& tokens, Scratch& scratch) const;

  /// Convenience wrapper paying for a fresh Scratch per call.
  std::int16_t predict(const std::vector<Token>& tokens) const;

  /// Scalar reference recurrence, retained for bit-exactness testing.
  std::int16_t predict_reference(const std::vector<Token>& tokens) const;

  /// Batched inference over `count` windows (count * seq_len tokens,
  /// row-major) through the vectorized kernels; bit-identical to predict().
  void predict_batch(const Token* tokens, std::size_t count, Scratch& scratch,
                     std::int16_t* out) const;

  const RnnConfig& config() const { return config_; }
  std::uint64_t macs_per_inference() const;

 private:
  std::int16_t predict_impl(const Token* tokens, Scratch& scratch, bool simd) const;
  std::int16_t predict_sub8(const Token* tokens, Scratch& scratch, bool simd) const;

  Precision precision_ = Precision::kInt8;
  const RnnClassifier* float_model_ = nullptr;  ///< Set only for kFp32.
  // Sub-INT8 recurrence: packed Wx / Wh with per-row exponents. Both
  // accumulators are aligned to a common exponent acc_e = max_u(wx row
  // exponent) + embed exponent before the shared tanh LUT: per-row shifts
  // sub8_wx_shift_ (always >= 0) and sub8_wh_shift_ (may be negative = left
  // shift) re-express each row's raw dot product at acc_e.
  QPackedMatrix wx_p_, wh_p_;
  PackedOperands wx_ops_, wh_ops_;
  std::vector<std::int32_t> sub8_wx_shift_, sub8_wh_shift_;
  std::vector<QPackedDense> pfcs_;

  std::vector<std::int32_t> wx_pairs_, wh_pairs_;
  std::vector<std::vector<std::int32_t>> fc_wpairs_;
  bool batch_ok_ = false;

  RnnConfig config_;
  QEmbedding len_embed_, ipd_embed_;
  int embed_exponent_ = 0;
  QMatrix wx_, wh_;
  std::vector<std::int32_t> cell_bias_;  ///< At wx.exp + embed_exp.
  int hidden_exponent_ = 0;
  QLutActivation tanh_lut_;
  int wh_acc_shift_ = 0;  ///< Aligns Wh*h accumulator to Wx*x exponent.
  std::vector<QDense> fcs_;
};

}  // namespace fenix::nn
