// Sub-INT8 (ternary / INT4) packing and kernel coverage.
//
// Three contracts are pinned here:
//   1. Serialization: quantize -> pack -> unpack round-trips bit-exactly for
//      both 2-bit ternary codes and two's-complement INT4 nibbles, including
//      lengths that do not fill the last byte, and invalid values / codes are
//      rejected with typed SerializeError.
//   2. Layout validation: QPackedMatrix::validate() rejects dimension and
//      slab-size mismatches with typed QuantizeError (never an assert), and
//      all-zero ternary rows quantize without dividing by zero in the
//      absmean scale (they pin exponent -7 with an all-zero row).
//   3. Kernels: forward() at every ISA rung the host runs — the multiply-free
//      scalar paths (sparse ternary index runs, INT4 shift/add) at kScalar,
//      the biased-plane AVX2 / AVX-512 / VNNI paths above — is bit-identical
//      to the packed-reading sequential reference across odd shapes that are
//      not multiples of any SIMD block, and the full QuantizedCnn /
//      QuantizedRnn sub-INT8 pipelines agree with their references.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "isa_levels.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "sim/random.hpp"

namespace fenix::nn {
namespace {

void fill_i8(std::vector<std::int8_t>& v, sim::RandomStream& rng) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  }
}

void fill_float(Matrix& m, sim::RandomStream& rng, double scale = 0.5) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<float>(rng.uniform(-scale, scale));
    }
  }
}

// ------------------------------------------------------------ pack / unpack

TEST(PackedSerialize, TernaryRoundTripIncludingOddLengths) {
  sim::RandomStream rng(401);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{7},
                        std::size_t{16}, std::size_t{33}, std::size_t{257}}) {
    std::vector<std::int8_t> w(n);
    for (auto& x : w) {
      x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(3)) - 1);
    }
    const auto packed = pack_ternary(w.data(), n);
    ASSERT_EQ(packed.size(), packed_size_ternary(n)) << "n=" << n;
    std::vector<std::int8_t> back(n, 99);
    unpack_ternary(packed.data(), n, back.data());
    EXPECT_EQ(back, w) << "n=" << n;
  }
}

TEST(PackedSerialize, Int4RoundTripIncludingOddLengths) {
  sim::RandomStream rng(402);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{5}, std::size_t{8}, std::size_t{15},
                        std::size_t{64}, std::size_t{129}}) {
    std::vector<std::int8_t> w(n);
    for (auto& x : w) {
      x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(15)) - 7);
    }
    const auto packed = pack_int4(w.data(), n);
    ASSERT_EQ(packed.size(), packed_size_int4(n)) << "n=" << n;
    std::vector<std::int8_t> back(n, 99);
    unpack_int4(packed.data(), n, back.data());
    EXPECT_EQ(back, w) << "n=" << n;
  }
}

TEST(PackedSerialize, TernaryExtremesAndFullCodeCoverage) {
  // Every value in {-1, 0, +1} in every position of a byte.
  const std::int8_t w[12] = {-1, -1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 1};
  const auto packed = pack_ternary(w, 12);
  std::int8_t back[12];
  unpack_ternary(packed.data(), 12, back);
  EXPECT_EQ(0, std::memcmp(w, back, sizeof(w)));
}

TEST(PackedSerialize, RejectsOutOfRangeValues) {
  const std::int8_t bad_t[2] = {0, 2};
  EXPECT_THROW(pack_ternary(bad_t, 2), SerializeError);
  const std::int8_t bad_t2[1] = {-2};
  EXPECT_THROW(pack_ternary(bad_t2, 1), SerializeError);
  const std::int8_t bad_i4[3] = {7, -8, 0};  // -8 reserved, rejected.
  EXPECT_THROW(pack_int4(bad_i4, 3), SerializeError);
  const std::int8_t bad_i4b[1] = {8};
  EXPECT_THROW(pack_int4(bad_i4b, 1), SerializeError);
}

TEST(PackedSerialize, RejectsReservedTernaryCode) {
  // Code 3 in any 2-bit slot is invalid on the wire.
  const std::uint8_t packed[1] = {0x03};
  std::int8_t out[1];
  EXPECT_THROW(unpack_ternary(packed, 1, out), SerializeError);
  const std::uint8_t high[1] = {0xC0};  // Code 3 in the 4th slot.
  std::int8_t out4[4];
  EXPECT_THROW(unpack_ternary(high, 4, out4), SerializeError);
  // Same byte with only 3 values decoded never touches the bad slot.
  std::int8_t out3[3];
  unpack_ternary(high, 3, out3);
  EXPECT_EQ(out3[0], 0);
}

TEST(PackedSerialize, Int4NibbleSignExtensionAndReservedValue) {
  // Low nibble first: 0xF7 = {+7, -1}; 0x9A = {-6, -7}.
  const std::uint8_t packed[2] = {0xF7, 0x9A};
  std::int8_t out[4];
  unpack_int4(packed, 4, out);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], -1);
  EXPECT_EQ(out[2], -6);
  EXPECT_EQ(out[3], -7);
  const std::uint8_t reserved[1] = {0x08};  // -8 in the low nibble.
  std::int8_t bad[1];
  EXPECT_THROW(unpack_int4(reserved, 1, bad), SerializeError);
}

// --------------------------------------------------- QPackedMatrix contract

TEST(QPackedMatrix, QuantizeUnpackRepackIdentity) {
  sim::RandomStream rng(411);
  for (Precision p : {Precision::kTernary, Precision::kInt4}) {
    Matrix m(13, 29);
    fill_float(m, rng);
    const QPackedMatrix q = QPackedMatrix::from(m, p);
    ASSERT_EQ(q.rows, 13u);
    ASSERT_EQ(q.cols, 29u);
    ASSERT_EQ(q.row_exponent.size(), 13u);
    const auto plane = q.unpack();
    ASSERT_EQ(plane.size(), 13u * 29u);
    // Re-pack each row from the plane: must reproduce the packed bytes.
    for (std::size_t r = 0; r < q.rows; ++r) {
      const auto row = p == Precision::kTernary
                           ? pack_ternary(plane.data() + r * q.cols, q.cols)
                           : pack_int4(plane.data() + r * q.cols, q.cols);
      ASSERT_EQ(row.size(), q.row_bytes);
      EXPECT_EQ(0, std::memcmp(row.data(), q.packed.data() + r * q.row_bytes,
                               q.row_bytes))
          << precision_name(p) << " row " << r;
    }
  }
}

TEST(QPackedMatrix, AllZeroRowsQuantizeWithoutDividingByZero) {
  // Zero-weight-dominant matrix: absmean of an all-zero row is 0; the scale
  // must pin exponent -7 and emit an all-zero packed row instead of dividing.
  sim::RandomStream rng(412);
  Matrix m(6, 17, 0.0f);
  for (std::size_t c = 0; c < m.cols(); ++c) {  // One non-zero row only.
    m(2, c) = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  for (Precision p : {Precision::kTernary, Precision::kInt4}) {
    const QPackedMatrix q = QPackedMatrix::from(m, p);
    const auto plane = q.unpack();
    for (std::size_t r = 0; r < q.rows; ++r) {
      if (r == 2) continue;
      EXPECT_EQ(q.row_exponent[r], -7) << precision_name(p) << " row " << r;
      for (std::size_t c = 0; c < q.cols; ++c) {
        ASSERT_EQ(plane[r * q.cols + c], 0)
            << precision_name(p) << " row " << r << " col " << c;
      }
    }
  }
}

TEST(QPackedMatrix, ValidateRejectsLayoutMismatches) {
  sim::RandomStream rng(413);
  Matrix m(4, 9);
  fill_float(m, rng);
  {
    QPackedMatrix q = QPackedMatrix::from(m, Precision::kTernary);
    q.row_bytes += 1;  // Declared packing no longer matches cols.
    EXPECT_THROW(q.validate(), QuantizeError);
  }
  {
    QPackedMatrix q = QPackedMatrix::from(m, Precision::kInt4);
    q.packed.pop_back();  // Slab shorter than rows * row_bytes.
    EXPECT_THROW(q.validate(), QuantizeError);
  }
  {
    QPackedMatrix q = QPackedMatrix::from(m, Precision::kTernary);
    q.row_exponent.resize(3);  // One exponent per row violated.
    EXPECT_THROW(q.validate(), QuantizeError);
  }
  {
    QPackedMatrix q = QPackedMatrix::from(m, Precision::kInt4);
    q.precision = Precision::kInt8;  // Not a packed sub-INT8 format.
    EXPECT_THROW(q.validate(), QuantizeError);
  }
}

// ------------------------------------------------------- layer bit-exactness

QPackedDense random_pdense(std::size_t in, std::size_t out, Precision p,
                           sim::RandomStream& rng) {
  Dense d(in, out, rng);
  fill_float(d.weights(), rng);
  for (auto& b : d.bias()) b = static_cast<float>(rng.uniform(-0.25, 0.25));
  return QPackedDense::from(d, p, /*in_exponent=*/-6, /*out_exponent=*/-4);
}

QPackedConv1D random_pconv(std::size_t in_ch, std::size_t out_ch,
                           std::size_t kernel, Precision p,
                           sim::RandomStream& rng) {
  Conv1D c(in_ch, out_ch, kernel, rng);
  fill_float(c.weights(), rng);
  for (auto& b : c.bias()) b = static_cast<float>(rng.uniform(-0.25, 0.25));
  return QPackedConv1D::from(c, p, /*in_exponent=*/-6, /*out_exponent=*/-4);
}

TEST(PackedKernels, DenseForwardPathsBitExactAcrossOddShapes) {
  const std::size_t shapes[][2] = {{1, 1},  {1, 7},   {3, 5},   {5, 9},
                                   {7, 33}, {31, 65}, {64, 3},  {130, 50}};
  for (kernels::Isa isa : host_isa_levels("QPackedDense::forward")) {
    kernels::ScopedIsaCap cap(isa);
    sim::RandomStream rng(421);
    for (Precision p : {Precision::kTernary, Precision::kInt4}) {
      for (const auto& shape : shapes) {
        const std::size_t in = shape[1], out = shape[0];
        const QPackedDense layer = random_pdense(in, out, p, rng);
        std::vector<std::int8_t> x(in);
        fill_i8(x, rng);
        for (bool relu : {false, true}) {
          std::vector<std::int8_t> y(out), y_ref(out);
          layer.forward(x.data(), y.data(), relu);
          layer.forward_reference(x.data(), y_ref.data(), relu);
          EXPECT_EQ(y, y_ref) << kernels::isa_name(isa) << " "
                              << precision_name(p) << " in=" << in
                              << " out=" << out << " relu=" << relu;
        }
      }
    }
  }
}

TEST(PackedKernels, Conv1DForwardPathsBitExactAcrossOddShapes) {
  const std::size_t shapes[][3] = {{1, 1, 1}, {1, 5, 3}, {3, 7, 3},
                                   {5, 4, 5}, {9, 13, 3}, {16, 11, 5}};
  for (kernels::Isa isa : host_isa_levels("QPackedConv1D::forward")) {
    kernels::ScopedIsaCap cap(isa);
    sim::RandomStream rng(422);
    for (Precision p : {Precision::kTernary, Precision::kInt4}) {
      for (const auto& shape : shapes) {
        const std::size_t in_ch = shape[0], out_ch = shape[1], k = shape[2];
        const QPackedConv1D layer = random_pconv(in_ch, out_ch, k, p, rng);
        for (std::size_t T : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                              std::size_t{17}}) {
          std::vector<std::int8_t> x(T * in_ch);
          fill_i8(x, rng);
          for (bool relu : {false, true}) {
            std::vector<std::int8_t> y(T * out_ch), y_ref(T * out_ch);
            layer.forward(x.data(), T, y.data(), relu);
            layer.forward_reference(x.data(), T, y_ref.data(), relu);
            EXPECT_EQ(y, y_ref)
                << kernels::isa_name(isa) << " " << precision_name(p)
                << " in=" << in_ch << " out=" << out_ch << " k=" << k
                << " T=" << T << " relu=" << relu;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- full model paths

std::vector<SeqSample> pattern_samples(std::size_t per_class, std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<SeqSample> samples;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      SeqSample s;
      s.label = static_cast<std::int16_t>(c);
      for (std::size_t t = 0; t < 9; ++t) {
        const std::uint16_t base = c == 0 ? 10 : c == 1 ? 120 : (t % 2 ? 10 : 120);
        s.tokens.push_back({static_cast<std::uint16_t>(base + rng.uniform_int(8)),
                            static_cast<std::uint16_t>(rng.uniform_int(8))});
      }
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

class PackedCnnModel : public ::testing::TestWithParam<Precision> {};
class PackedRnnModel : public ::testing::TestWithParam<Precision> {};

INSTANTIATE_TEST_SUITE_P(SubInt8, PackedCnnModel,
                         ::testing::Values(Precision::kTernary, Precision::kInt4),
                         [](const auto& info) {
                           return std::string(precision_name(info.param));
                         });
INSTANTIATE_TEST_SUITE_P(SubInt8, PackedRnnModel,
                         ::testing::Values(Precision::kTernary, Precision::kInt4),
                         [](const auto& info) {
                           return std::string(precision_name(info.param));
                         });

TEST_P(PackedCnnModel, LogitsMatchReferenceBitExact) {
  CnnConfig config;
  config.conv_channels = {16, 24};
  config.fc_dims = {32};
  config.num_classes = 3;
  CnnClassifier model(config, 41);
  const auto train = pattern_samples(20, 80);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train, GetParam());
  ASSERT_EQ(qmodel.precision(), GetParam());
  ASSERT_GT(qmodel.macs_per_inference(), 0u);

  Scratch scratch;
  const auto test = pattern_samples(30, 81);
  for (const SeqSample& s : test) {
    const auto& fast = qmodel.logits_q(s.tokens, scratch);
    const auto reference = qmodel.logits_q_reference(s.tokens);
    ASSERT_EQ(fast, reference);
    ASSERT_EQ(qmodel.predict(s.tokens, scratch), qmodel.predict(s.tokens));
  }
}

TEST_P(PackedCnnModel, PredictBatchMatchesPerWindowPredict) {
  CnnConfig config;
  config.conv_channels = {16, 24};
  config.fc_dims = {32};
  config.num_classes = 3;
  CnnClassifier model(config, 42);
  const auto train = pattern_samples(20, 82);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train, GetParam());

  const auto test = pattern_samples(30, 83);
  std::vector<Token> flat;
  for (const SeqSample& s : test) {
    flat.insert(flat.end(), s.tokens.begin(), s.tokens.end());
  }
  Scratch scratch;
  std::vector<std::int16_t> batched(test.size());
  qmodel.predict_batch(flat.data(), test.size(), scratch, batched.data());
  Scratch serial_scratch;
  for (std::size_t i = 0; i < test.size(); ++i) {
    ASSERT_EQ(batched[i], qmodel.predict(test[i].tokens, serial_scratch)) << i;
  }
}

TEST_P(PackedRnnModel, PredictMatchesReference) {
  RnnConfig config;
  config.units = 24;
  config.fc_dims = {16};
  config.num_classes = 3;
  RnnClassifier model(config, 43);
  const auto train = pattern_samples(20, 84);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedRnn qmodel(model, train, GetParam());
  ASSERT_EQ(qmodel.precision(), GetParam());
  ASSERT_GT(qmodel.macs_per_inference(), 0u);

  Scratch scratch;
  const auto test = pattern_samples(30, 85);
  for (const SeqSample& s : test) {
    const auto fast = qmodel.predict(s.tokens, scratch);
    ASSERT_EQ(fast, qmodel.predict_reference(s.tokens));
    ASSERT_EQ(fast, qmodel.predict(s.tokens));
  }
}

TEST(PackedModels, Fp32TierDelegatesToFloatModel) {
  CnnConfig config;
  config.conv_channels = {16, 24};
  config.fc_dims = {32};
  config.num_classes = 3;
  CnnClassifier model(config, 44);
  const auto train = pattern_samples(20, 86);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train, Precision::kFp32);
  ASSERT_EQ(qmodel.precision(), Precision::kFp32);

  Scratch scratch;
  const auto test = pattern_samples(30, 87);
  for (const SeqSample& s : test) {
    std::vector<Token> tokens(s.tokens.begin(), s.tokens.end());
    ASSERT_EQ(qmodel.predict(s.tokens, scratch), model.predict(tokens));
    ASSERT_EQ(qmodel.logits_q(s.tokens, scratch), qmodel.logits_q_reference(s.tokens));
  }
}

TEST(PackedModels, MacCountIsPrecisionIndependent) {
  // The systolic timer reads macs_per_inference(), so one shape must cost
  // the same MACs whichever precision holds its weights.
  CnnConfig cnn_config;
  cnn_config.conv_channels = {16, 24};
  cnn_config.fc_dims = {32};
  cnn_config.num_classes = 3;
  const CnnClassifier cnn(cnn_config, 45);
  RnnConfig rnn_config;
  rnn_config.units = 24;
  rnn_config.fc_dims = {16};
  rnn_config.num_classes = 3;
  const RnnClassifier rnn(rnn_config, 46);
  const auto calibration = pattern_samples(4, 88);
  const std::uint64_t cnn_macs =
      QuantizedCnn(cnn, calibration, Precision::kInt8).macs_per_inference();
  const std::uint64_t rnn_macs =
      QuantizedRnn(rnn, calibration, Precision::kInt8).macs_per_inference();
  EXPECT_EQ(rnn_macs, 9ULL * 24 * (16 + 24) + 24ULL * 16 + 16ULL * 3);
  for (Precision p : {Precision::kInt4, Precision::kTernary, Precision::kFp32}) {
    EXPECT_EQ(QuantizedCnn(cnn, calibration, p).macs_per_inference(), cnn_macs)
        << precision_name(p);
    EXPECT_EQ(QuantizedRnn(rnn, calibration, p).macs_per_inference(), rnn_macs)
        << precision_name(p);
  }
}

TEST(PackedModels, PrecisionNamesRoundTrip) {
  for (Precision p : {Precision::kFp32, Precision::kInt8, Precision::kInt4,
                      Precision::kTernary}) {
    Precision back = Precision::kInt8;
    ASSERT_TRUE(parse_precision(precision_name(p), back)) << precision_name(p);
    EXPECT_EQ(back, p);
  }
  Precision ignored = Precision::kInt8;
  EXPECT_FALSE(parse_precision("int16", ignored));
  EXPECT_EQ(weight_bits(Precision::kTernary), 2u);
  EXPECT_EQ(weight_bits(Precision::kInt4), 4u);
  EXPECT_EQ(weight_bits(Precision::kInt8), 8u);
  EXPECT_EQ(weight_bits(Precision::kFp32), 32u);
}

}  // namespace
}  // namespace fenix::nn
