// Bit-exactness tests for the blocked INT8 kernels against their scalar
// references. The blocked GEMV/conv1d paths reorder int32 partial
// accumulations; integer addition is associative, so as long as partials
// cannot overflow (guaranteed for the layer sizes here) every reordering
// must produce the same bits as the sequential reference — these tests pin
// that contract across randomized shapes, including dims that are not a
// multiple of the 4-wide block. The lane-resident batch kernels and
// predict_batch are checked the same way at every ISA level the host runs,
// the AMX tile rung included when the host grants it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/quantize.hpp"
#include "sim/random.hpp"

namespace fenix::nn {
namespace {

void fill_i8(std::vector<std::int8_t>& v, sim::RandomStream& rng) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  }
}

QDense random_qdense(std::size_t rows, std::size_t cols, sim::RandomStream& rng) {
  QDense d;
  d.w.rows = rows;
  d.w.cols = cols;
  d.w.exponent = -7;
  d.w.data.resize(rows * cols);
  fill_i8(d.w.data, rng);
  d.bias.resize(rows);
  for (auto& b : d.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(1 << 14)) - (1 << 13);
  }
  d.in_exponent = -6;
  d.out_exponent = -4;  // shift = -4 - (-7 + -6) = 9
  return d;
}

QConv1D random_qconv(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
                     sim::RandomStream& rng) {
  QConv1D c;
  c.in_ch = in_ch;
  c.out_ch = out_ch;
  c.kernel = kernel;
  c.w.rows = out_ch;
  c.w.cols = in_ch * kernel;
  c.w.exponent = -7;
  c.w.data.resize(c.w.rows * c.w.cols);
  fill_i8(c.w.data, rng);
  c.bias.resize(out_ch);
  for (auto& b : c.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(1 << 14)) - (1 << 13);
  }
  c.in_exponent = -6;
  c.out_exponent = -4;
  return c;
}

TEST(Kernels, DotMatchesNaive) {
  sim::RandomStream rng(11);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 33u, 100u}) {
    std::vector<std::int8_t> a(n), b(n);
    fill_i8(a, rng);
    fill_i8(b, rng);
    std::int32_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
    }
    EXPECT_EQ(kernels::dot_i8(a.data(), b.data(), n), expected) << "n=" << n;
  }
}

TEST(Kernels, GemvAccMatchesNaive) {
  sim::RandomStream rng(12);
  for (std::size_t rows : {1u, 2u, 3u, 4u, 5u, 9u, 16u, 31u}) {
    for (std::size_t cols : {1u, 3u, 4u, 17u, 64u}) {
      std::vector<std::int8_t> w(rows * cols), x(cols);
      fill_i8(w, rng);
      fill_i8(x, rng);
      std::vector<std::int32_t> got(rows, 0);
      kernels::gemv_acc_i8(w.data(), rows, cols, cols, x.data(), got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        std::int32_t expected = 0;
        for (std::size_t c = 0; c < cols; ++c) {
          expected += static_cast<std::int32_t>(w[r * cols + c]) *
                      static_cast<std::int32_t>(x[c]);
        }
        EXPECT_EQ(got[r], expected) << rows << "x" << cols << " row " << r;
      }
    }
  }
}

TEST(QDenseKernels, BlockedMatchesReferenceBitExact) {
  sim::RandomStream rng(13);
  // Shapes deliberately include non-multiples of the 4-row block and the
  // 4-wide unroll, plus degenerate 1-dim layers.
  const std::size_t shapes[][2] = {{1, 1},  {1, 7},  {3, 5},   {4, 4},
                                   {5, 9},  {7, 33}, {16, 16}, {31, 65},
                                   {64, 3}, {130, 50}};
  for (const auto& shape : shapes) {
    const auto layer = random_qdense(shape[0], shape[1], rng);
    std::vector<std::int8_t> x(shape[1]);
    fill_i8(x, rng);
    for (bool relu : {false, true}) {
      std::vector<std::int8_t> y_blocked(shape[0]), y_reference(shape[0]);
      layer.forward(x.data(), y_blocked.data(), relu);
      layer.forward_reference(x.data(), y_reference.data(), relu);
      EXPECT_EQ(y_blocked, y_reference)
          << shape[0] << "x" << shape[1] << " relu=" << relu;
    }
  }
}

TEST(QDenseKernels, RandomizedShapesBitExact) {
  sim::RandomStream rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t rows = 1 + rng.uniform_int(70);
    const std::size_t cols = 1 + rng.uniform_int(70);
    const auto layer = random_qdense(rows, cols, rng);
    std::vector<std::int8_t> x(cols);
    fill_i8(x, rng);
    std::vector<std::int8_t> y_blocked(rows), y_reference(rows);
    const bool relu = (trial & 1) != 0;
    layer.forward(x.data(), y_blocked.data(), relu);
    layer.forward_reference(x.data(), y_reference.data(), relu);
    ASSERT_EQ(y_blocked, y_reference) << rows << "x" << cols << " relu=" << relu;
  }
}

// --------------------------------------------------------- SIMD variants
//
// The AVX2/AVX-512 kernels must agree with the scalar blocked kernels bit
// for bit on every shape, including tails shorter than a vector chunk. On a
// host without AVX2 the _simd entry points forward to the scalar kernels, so
// these tests degenerate to identity checks there (still worth running: they
// pin the dispatch path).

TEST(SimdKernels, GemvAccMatchesScalarBitExact) {
  sim::RandomStream rng(21);
  for (std::size_t rows : {1u, 2u, 3u, 4u, 5u, 9u, 16u, 31u, 64u}) {
    for (std::size_t cols : {1u, 3u, 15u, 16u, 17u, 31u, 32u, 33u, 48u, 64u, 100u, 128u}) {
      std::vector<std::int8_t> w(rows * cols), x(cols);
      fill_i8(w, rng);
      fill_i8(x, rng);
      std::vector<std::int32_t> scalar(rows, 0), simd(rows, 0);
      kernels::gemv_acc_i8(w.data(), rows, cols, cols, x.data(), scalar.data());
      kernels::gemv_acc_i8_simd(w.data(), rows, cols, cols, x.data(), simd.data());
      ASSERT_EQ(simd, scalar) << rows << "x" << cols;
    }
  }
}

TEST(SimdKernels, GemvMatchesScalarBitExact) {
  sim::RandomStream rng(22);
  const std::size_t shapes[][2] = {{1, 1},   {1, 16},  {3, 17},  {4, 48},
                                   {5, 33},  {7, 31},  {16, 64}, {31, 65},
                                   {64, 128}, {130, 50}};
  for (const auto& shape : shapes) {
    const auto layer = random_qdense(shape[0], shape[1], rng);
    std::vector<std::int8_t> x(shape[1]);
    fill_i8(x, rng);
    for (bool relu : {false, true}) {
      std::vector<std::int8_t> y_scalar(shape[0]), y_simd(shape[0]);
      layer.forward(x.data(), y_scalar.data(), relu);
      layer.forward_simd(x.data(), y_simd.data(), relu);
      ASSERT_EQ(y_simd, y_scalar)
          << shape[0] << "x" << shape[1] << " relu=" << relu;
    }
  }
}

TEST(SimdKernels, Conv1dMatchesScalarBitExact) {
  sim::RandomStream rng(23);
  const std::size_t shapes[][3] = {{1, 1, 1},   {1, 4, 3},  {3, 5, 3},
                                   {16, 16, 3}, {16, 32, 5}, {7, 9, 5},
                                   {32, 64, 3}};
  for (const auto& shape : shapes) {
    const auto layer = random_qconv(shape[0], shape[1], shape[2], rng);
    for (std::size_t T : {1u, 2u, 3u, 5u, 9u, 17u}) {
      std::vector<std::int8_t> x(T * shape[0]);
      fill_i8(x, rng);
      for (bool relu : {false, true}) {
        std::vector<std::int8_t> y_scalar(T * shape[1]);
        std::vector<std::int8_t> y_simd(T * shape[1]);
        layer.forward(x.data(), T, y_scalar.data(), relu);
        layer.forward_simd(x.data(), T, y_simd.data(), relu);
        ASSERT_EQ(y_simd, y_scalar)
            << "in=" << shape[0] << " out=" << shape[1] << " k=" << shape[2]
            << " T=" << T << " relu=" << relu;
      }
    }
  }
}

TEST(QConv1DKernels, BlockedMatchesReferenceBitExact) {
  sim::RandomStream rng(15);
  const std::size_t shapes[][3] = {{1, 1, 1},  {1, 4, 3},  {3, 5, 3},
                                   {16, 16, 3}, {16, 32, 5}, {7, 9, 5},
                                   {12, 64, 3}};
  for (const auto& shape : shapes) {
    const auto layer = random_qconv(shape[0], shape[1], shape[2], rng);
    // T sweeps through lengths shorter than, equal to, and longer than the
    // kernel so every padding regime (left edge, right edge, both) is hit.
    for (std::size_t T : {1u, 2u, 3u, 5u, 9u, 17u}) {
      std::vector<std::int8_t> x(T * shape[0]);
      fill_i8(x, rng);
      for (bool relu : {false, true}) {
        std::vector<std::int8_t> y_blocked(T * shape[1]);
        std::vector<std::int8_t> y_reference(T * shape[1]);
        layer.forward(x.data(), T, y_blocked.data(), relu);
        layer.forward_reference(x.data(), T, y_reference.data(), relu);
        EXPECT_EQ(y_blocked, y_reference)
            << "in=" << shape[0] << " out=" << shape[1] << " k=" << shape[2]
            << " T=" << T << " relu=" << relu;
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

TEST(QuantizedCnnKernels, BlockedLogitsMatchReferenceBitExact) {
  CnnConfig config;
  config.conv_channels = {16, 24};
  config.fc_dims = {32};
  config.num_classes = 3;
  CnnClassifier model(config, 31);
  const auto train = pattern_samples(20, 70);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train);

  Scratch scratch;
  const auto test = pattern_samples(30, 71);
  for (const SeqSample& s : test) {
    const auto& blocked = qmodel.logits_q(s.tokens, scratch);
    const auto reference = qmodel.logits_q_reference(s.tokens);
    ASSERT_EQ(blocked, reference);
    // The allocating convenience wrapper must agree too.
    ASSERT_EQ(qmodel.logits_q(s.tokens), reference);
    ASSERT_EQ(qmodel.predict(s.tokens, scratch), qmodel.predict(s.tokens));
  }
}

TEST(QuantizedRnnKernels, BlockedPredictMatchesReference) {
  RnnConfig config;
  config.units = 24;
  config.fc_dims = {16};
  config.num_classes = 3;
  RnnClassifier model(config, 32);
  const auto train = pattern_samples(20, 72);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedRnn qmodel(model, train);

  Scratch scratch;
  const auto test = pattern_samples(30, 73);
  for (const SeqSample& s : test) {
    const auto blocked = qmodel.predict(s.tokens, scratch);
    ASSERT_EQ(blocked, qmodel.predict_reference(s.tokens));
    ASSERT_EQ(blocked, qmodel.predict(s.tokens));
  }
}

// ------------------------------------------- batched (lane-resident) paths
//
// The batch kernels dispatch on the host ISA; kernels::ScopedIsaCap lowers
// it, so an AMX host also runs the 16-lane AVX-512 pair path, and an AVX-512
// host the 8-lane AVX2 and 1-lane scalar paths.

using kernels::isa_name;

// Every rung up to the host's, lowest first; prints which rungs `what` runs.
std::vector<kernels::Isa> host_isa_levels(const char* what) {
  std::vector<kernels::Isa> levels;
  std::string names;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512, kernels::Isa::kAmx}) {
    if (isa <= kernels::host_isa()) {
      levels.push_back(isa);
      names += std::string(" ") + isa_name(isa);
    }
  }
  std::cout << "[ rungs    ] " << what << ":" << names << "\n";
  return levels;
}

// Lanes gemm_batch_lanes() must report at `isa`.
std::size_t lanes_at(kernels::Isa isa) {
  return isa >= kernels::Isa::kAvx512 ? 16 : isa == kernels::Isa::kAvx2 ? 8 : 1;
}

TEST(IsaCap, LowersDispatchAndRestoresOnExit) {
  const kernels::Isa host = kernels::host_isa();
  EXPECT_EQ(kernels::active_isa(), host);
  const std::size_t host_lanes = kernels::gemm_batch_lanes();
  EXPECT_EQ(host_lanes, lanes_at(host));
  for (kernels::Isa isa : host_isa_levels("IsaCap")) {
    kernels::ScopedIsaCap cap(isa);
    EXPECT_EQ(kernels::active_isa(), isa);
    EXPECT_EQ(kernels::gemm_batch_lanes(), lanes_at(isa)) << isa_name(isa);
  }
  {
    kernels::ScopedIsaCap avx512(kernels::Isa::kAvx512);
    EXPECT_EQ(kernels::active_isa(), std::min(host, kernels::Isa::kAvx512));
    {
      kernels::ScopedIsaCap avx2(kernels::Isa::kAvx2);
      const std::size_t avx2_lanes =
          kernels::host_isa() >= kernels::Isa::kAvx2 ? 8 : 1;
      EXPECT_EQ(kernels::gemm_batch_lanes(), avx2_lanes);
      {
        kernels::ScopedIsaCap scalar(kernels::Isa::kScalar);
        EXPECT_EQ(kernels::gemm_batch_lanes(), 1u);
      }
      EXPECT_EQ(kernels::gemm_batch_lanes(), avx2_lanes);
    }
    EXPECT_EQ(kernels::active_isa(), std::min(host, kernels::Isa::kAvx512));
  }
  EXPECT_EQ(kernels::active_isa(), host);
  EXPECT_EQ(kernels::gemm_batch_lanes(), host_lanes);
}

// Pair-output GEMM, raw-accumulator GEMM and the pair average pool against
// plain scalar loops, on random operands that reach both saturation bounds,
// odd row counts, and partial 4-row blocks.
TEST(BatchKernels, PairLayoutMatchesScalarAtEveryIsa) {
  for (kernels::Isa isa : host_isa_levels("pair kernels")) {
    kernels::ScopedIsaCap cap(isa);
    const std::size_t lanes = kernels::gemm_batch_lanes();
    ASSERT_EQ(lanes, lanes_at(isa)) << isa_name(isa);
    sim::RandomStream rng(41);
    for (std::size_t rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 64u}) {
      for (std::size_t K : {1u, 2u, 5u, 16u, 33u, 96u}) {
        std::vector<std::int8_t> w(rows * K), x(lanes * K);
        fill_i8(w, rng);
        fill_i8(x, rng);
        const std::size_t kpairs = (K + 1) / 2;
        const auto wpairs = kernels::pack_weight_pairs(w.data(), rows, K, K);
        std::vector<std::int32_t> packed(kpairs * lanes);
        for (std::size_t b = 0; b < lanes; ++b) {
          kernels::pack_pairs(x.data() + b * K, K, lanes, packed.data() + b);
        }
        std::vector<std::int32_t> bias(rows);
        for (auto& v : bias) {
          v = static_cast<std::int32_t>(rng.uniform_int(1 << 12)) - (1 << 11);
        }
        std::vector<std::int32_t> acc(rows * lanes);
        kernels::gemm_acc_i8_batch(wpairs.data(), rows, kpairs, packed.data(),
                                   acc.data());
        for (int shift : {1, 4, 9}) {
          for (bool relu : {false, true}) {
            std::vector<std::int32_t> out((rows + 1) / 2 * lanes);
            kernels::gemm_i8_batch(wpairs.data(), rows, kpairs, packed.data(),
                                   bias.data(), shift, relu, out.data());
            for (std::size_t b = 0; b < lanes; ++b) {
              for (std::size_t r = 0; r < rows + rows % 2; ++r) {
                std::int32_t dot = 0;
                std::int8_t want = 0;
                if (r < rows) {
                  for (std::size_t k = 0; k < K; ++k) {
                    dot += w[r * K + k] * x[b * K + k];
                  }
                  std::int64_t v = rounding_shift_right(
                      static_cast<std::int64_t>(dot) + bias[r], shift);
                  if (relu && v < 0) v = 0;
                  want = saturate_i8(v);
                  ASSERT_EQ(acc[r * lanes + b], dot);
                }
                const std::int32_t word = out[(r / 2) * lanes + b];
                const auto half = static_cast<std::int16_t>(
                    r % 2 ? static_cast<std::uint32_t>(word) >> 16
                          : static_cast<std::uint32_t>(word) & 0xffffu);
                ASSERT_EQ(half, want)
                    << isa_name(isa) << " rows=" << rows << " K=" << K
                    << " r=" << r << " b=" << b << " shift=" << shift
                    << " relu=" << relu;
              }
            }
          }
        }
      }
    }
    for (std::size_t T : {1u, 3u, 9u}) {
      for (std::size_t C : {1u, 6u, 33u}) {
        std::vector<std::int8_t> x(lanes * T * C);
        fill_i8(x, rng);
        const std::size_t cpairs = (C + 1) / 2;
        std::vector<std::int32_t> plane(T * cpairs * lanes);
        for (std::size_t t = 0; t < T; ++t) {
          for (std::size_t b = 0; b < lanes; ++b) {
            kernels::pack_pairs(x.data() + (b * T + t) * C, C, lanes,
                                plane.data() + t * cpairs * lanes + b);
          }
        }
        const auto multiplier =
            static_cast<std::int32_t>(std::llround(32768.0 / T));
        for (int shift : {1, 8, 15}) {
          std::vector<std::int32_t> out(cpairs * lanes);
          kernels::avgpool_i8_batch(plane.data(), T, cpairs, multiplier, shift,
                                    out.data());
          for (std::size_t b = 0; b < lanes; ++b) {
            for (std::size_t c = 0; c < C; ++c) {
              std::int64_t sum = 0;
              for (std::size_t t = 0; t < T; ++t) sum += x[(b * T + t) * C + c];
              const std::int8_t want =
                  saturate_i8(rounding_shift_right(sum * multiplier, shift));
              const std::int32_t word = out[(c / 2) * lanes + b];
              const auto half = static_cast<std::int16_t>(
                  c % 2 ? static_cast<std::uint32_t>(word) >> 16
                        : static_cast<std::uint32_t>(word) & 0xffffu);
              ASSERT_EQ(half, want) << isa_name(isa) << " T=" << T << " C=" << C
                                    << " c=" << c << " shift=" << shift;
            }
          }
        }
      }
    }
  }
}

// The AMX tile GEMMs and the quad average pool against plain scalar loops:
// K from 4 bytes to several 64-byte K tiles with tails, row counts that leave
// partial 16-row blocks, partial quads and a second 64-row group.
TEST(TileKernels, QuadLayoutMatchesScalar) {
  if (kernels::host_isa() < kernels::Isa::kAmx) {
    GTEST_SKIP() << "host has no AMX rung (" << isa_name(kernels::host_isa())
                 << ")";
  }
  constexpr std::size_t kLanes = 16;
  sim::RandomStream rng(42);
  kernels::TileUnit tiles;
  auto byte_of = [](std::int32_t word, std::size_t i) {
    return static_cast<std::int8_t>(static_cast<std::uint32_t>(word) >> (8 * i));
  };
  for (std::size_t rows : {1u, 3u, 16u, 24u, 30u, 64u, 72u, 130u}) {
    for (std::size_t groups : {1u, 3u, 5u}) {
      for (std::size_t cols : {1u, 4u, 7u, 16u, 24u, 33u}) {
        const std::size_t K = groups * cols;
        std::vector<std::int8_t> w(rows * K), x(kLanes * K);
        fill_i8(w, rng);
        fill_i8(x, rng);
        const auto tw = kernels::pack_tile_weights(w.data(), rows, groups, cols);
        const std::size_t cq = kernels::quads_of(cols);
        ASSERT_EQ(tw.kbytes, groups * 4 * cq);
        // Item b's group g sits in quads g * cq ... like a conv window.
        std::vector<std::int32_t> plane(groups * cq * kLanes, 0);
        for (std::size_t b = 0; b < kLanes; ++b) {
          for (std::size_t g = 0; g < groups; ++g) {
            for (std::size_t kq = 0; kq < cq; ++kq) {
              auto at = [&](std::size_t c) -> std::int8_t {
                return c < cols ? x[b * K + g * cols + c] : 0;
              };
              plane[(g * cq + kq) * kLanes + b] = kernels::pack_quad(
                  at(4 * kq), at(4 * kq + 1), at(4 * kq + 2), at(4 * kq + 3));
            }
          }
        }
        std::vector<std::int32_t> bias(rows);
        for (auto& v : bias) {
          v = static_cast<std::int32_t>(rng.uniform_int(1 << 12)) - (1 << 11);
        }
        std::vector<std::int32_t> acc((rows + 15) / 16 * 16 * kLanes, -1);
        kernels::gemm_acc_i8_quads(tiles, tw, plane.data(), acc.data());
        for (int shift : {1, 9}) {
          for (bool relu : {false, true}) {
            std::vector<std::int32_t> out(kernels::quads_of(rows) * kLanes);
            kernels::gemm_i8_quads(tiles, tw, plane.data(), bias.data(), shift,
                                   relu, out.data());
            for (std::size_t b = 0; b < kLanes; ++b) {
              for (std::size_t r = 0; r < kernels::quads_of(rows) * 4; ++r) {
                std::int8_t want = 0;
                if (r < rows) {
                  std::int32_t dot = 0;
                  for (std::size_t k = 0; k < K; ++k) {
                    dot += w[r * K + k] * x[b * K + k];
                  }
                  ASSERT_EQ(acc[r * kLanes + b], dot) << "rows=" << rows;
                  std::int64_t v = rounding_shift_right(
                      static_cast<std::int64_t>(dot) + bias[r], shift);
                  if (relu && v < 0) v = 0;
                  want = saturate_i8(v);
                }
                ASSERT_EQ(byte_of(out[(r / 4) * kLanes + b], r % 4), want)
                    << "rows=" << rows << " groups=" << groups
                    << " cols=" << cols << " r=" << r << " b=" << b
                    << " shift=" << shift << " relu=" << relu;
              }
            }
          }
        }
      }
    }
  }
  for (std::size_t T : {1u, 3u, 9u}) {
    for (std::size_t C : {1u, 6u, 33u}) {
      const std::size_t cq = kernels::quads_of(C);
      std::vector<std::int8_t> x(kLanes * T * cq * 4, 0);
      for (std::size_t b = 0; b < kLanes; ++b) {
        for (std::size_t t = 0; t < T; ++t) {
          for (std::size_t c = 0; c < C; ++c) {
            x[(b * T + t) * cq * 4 + c] = static_cast<std::int8_t>(
                static_cast<int>(rng.uniform_int(255)) - 127);
          }
        }
      }
      std::vector<std::int32_t> plane(T * cq * kLanes);
      for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t kq = 0; kq < cq; ++kq) {
          for (std::size_t b = 0; b < kLanes; ++b) {
            const std::int8_t* q = &x[(b * T + t) * cq * 4 + 4 * kq];
            plane[(t * cq + kq) * kLanes + b] =
                kernels::pack_quad(q[0], q[1], q[2], q[3]);
          }
        }
      }
      const auto multiplier = static_cast<std::int32_t>(std::llround(32768.0 / T));
      for (int shift : {1, 8, 15}) {
        std::vector<std::int32_t> out(cq * kLanes);
        kernels::avgpool_i8_quads(plane.data(), T, cq, multiplier, shift,
                                  out.data());
        for (std::size_t b = 0; b < kLanes; ++b) {
          for (std::size_t c = 0; c < cq * 4; ++c) {
            std::int64_t sum = 0;
            for (std::size_t t = 0; t < T; ++t) sum += x[(b * T + t) * cq * 4 + c];
            ASSERT_EQ(byte_of(out[(c / 4) * kLanes + b], c % 4),
                      saturate_i8(rounding_shift_right(sum * multiplier, shift)))
                << "T=" << T << " C=" << C << " c=" << c << " shift=" << shift;
          }
        }
      }
    }
  }
}

std::vector<Token> flatten(const std::vector<SeqSample>& samples) {
  std::vector<Token> flat;
  for (const SeqSample& s : samples) {
    flat.insert(flat.end(), s.tokens.begin(), s.tokens.end());
  }
  return flat;
}

// Runs predict_batch over the first `count` windows for every count in
// [1, expected.size()] at every host ISA level: full batches, partial final
// batches and single windows all run on the AMX tiles and at 16, 8 and 1
// lanes.
template <class Model>
void expect_batches_match(const Model& qmodel, const std::vector<Token>& flat,
                          const std::vector<std::int16_t>& expected) {
  for (kernels::Isa isa : host_isa_levels("predict_batch")) {
    kernels::ScopedIsaCap cap(isa);
    Scratch scratch;
    for (std::size_t count = 1; count <= expected.size(); ++count) {
      std::vector<std::int16_t> batched(count, -1);
      qmodel.predict_batch(flat.data(), count, scratch, batched.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(batched[i], expected[i])
            << isa_name(isa) << " count=" << count << " window=" << i;
      }
    }
  }
}

TEST(QuantizedCnnKernels, PredictBatchMatchesPerWindowPredict) {
  struct Shape {
    const char* name;
    std::size_t len_embed, ipd_embed;
    std::vector<std::size_t> conv, fc;
    std::size_t kernel;
  };
  // The last two shapes cover the tile edges: kernel x in_ch above 64 (K
  // tiles plus a tail), out_ch 24 and 72 (partial blocks, a second 64-row
  // group), channel counts that are not a multiple of 4, and kernel 5.
  const Shape shapes[] = {
      {"perfbench", 12, 4, {16, 32, 64}, {128, 64}, 3},
      {"odd channels", 5, 4, {7, 13}, {9}, 3},
      {"kernel 5", 12, 4, {16, 24}, {32}, 5},
      {"tile edges", 12, 4, {24, 72, 30}, {72, 24}, 3},
      {"kernel 5 odd", 7, 6, {10, 33}, {17}, 5},
  };
  const auto train = pattern_samples(20, 76);
  const auto test = pattern_samples(11, 77);  // 33 windows
  const auto flat = flatten(test);
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    CnnConfig config;
    config.len_embed_dim = shape.len_embed;
    config.ipd_embed_dim = shape.ipd_embed;
    config.conv_channels = shape.conv;
    config.fc_dims = shape.fc;
    config.kernel = shape.kernel;
    config.num_classes = 3;
    CnnClassifier model(config, 35);
    TrainOptions opts;
    opts.epochs = 2;
    model.fit(train, opts);
    const QuantizedCnn qmodel(model, train);

    std::vector<std::int16_t> expected;
    Scratch serial_scratch;
    for (const SeqSample& s : test) {
      const auto reference = qmodel.logits_q_reference(s.tokens);
      const auto cls = static_cast<std::int16_t>(
          std::max_element(reference.begin(), reference.end()) -
          reference.begin());
      ASSERT_EQ(qmodel.predict(s.tokens, serial_scratch), cls);
      expected.push_back(cls);
    }
    expect_batches_match(qmodel, flat, expected);
  }
}

CnnConfig perfbench_cnn() {
  CnnConfig config;
  config.conv_channels = {16, 32, 64};
  config.fc_dims = {128, 64};
  config.num_classes = 3;
  return config;
}

// Fleet threads call predict_batch at once, each with its own Scratch (and,
// at the AMX rung, its own tile state): every class must still be
// predict()'s. Also runs under the `pipeline` label (tests/CMakeLists.txt).
TEST(QuantizedCnnKernels, PredictBatchOnFourThreadsMatchesPredict) {
  CnnClassifier model(perfbench_cnn(), 37);
  const auto train = pattern_samples(20, 80);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train);
  const auto test = pattern_samples(11, 81);  // 33 windows
  const auto flat = flatten(test);
  std::vector<std::int16_t> expected;
  for (const SeqSample& s : test) expected.push_back(qmodel.predict(s.tokens));
  std::cout << "[ rungs    ] four threads: " << isa_name(kernels::active_isa())
            << "\n";

  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Scratch scratch;
      for (std::size_t round = 0; round < 50; ++round) {
        // Each thread walks its own sequence of batch sizes (1-16) and
        // offsets so the calls interleave differently.
        const std::size_t count = 1 + (round * 7 + t * 5) % 16;
        const std::size_t first = (round * 11 + t * 3) % (test.size() - count + 1);
        std::vector<std::int16_t> out(count, -1);
        qmodel.predict_batch(flat.data() + first * 9, count, scratch, out.data());
        for (std::size_t i = 0; i < count; ++i) {
          if (out[i] != expected[first + i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

// The sub-INT8 tiers keep their AVX-512 (VNNI dpbusd) code at the AMX rung:
// ternary and INT4 classes uncapped equal those at ScopedIsaCap(kAvx512) and
// predict()'s.
TEST(QuantizedCnnKernels, SubInt8ClassesMatchUncappedAndAtAvx512) {
  CnnClassifier model(perfbench_cnn(), 38);
  const auto train = pattern_samples(20, 82);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const auto test = pattern_samples(11, 83);  // 33 windows
  const auto flat = flatten(test);
  for (Precision p : {Precision::kTernary, Precision::kInt4}) {
    SCOPED_TRACE(precision_name(p));
    const QuantizedCnn qmodel(model, train, p);
    Scratch scratch;
    std::vector<std::int16_t> uncapped(test.size(), -1);
    qmodel.predict_batch(flat.data(), test.size(), scratch, uncapped.data());
    std::vector<std::int16_t> capped(test.size(), -2);
    {
      kernels::ScopedIsaCap cap(kernels::Isa::kAvx512);
      qmodel.predict_batch(flat.data(), test.size(), scratch, capped.data());
    }
    EXPECT_EQ(uncapped, capped);
    for (std::size_t i = 0; i < test.size(); ++i) {
      ASSERT_EQ(uncapped[i], qmodel.predict(test[i].tokens, scratch)) << i;
    }
  }
}

TEST(QuantizedRnnKernels, PredictBatchMatchesPerWindowPredict) {
  struct Shape {
    const char* name;
    std::size_t len_embed, ipd_embed, units;
    std::vector<std::size_t> fc;
  };
  const Shape shapes[] = {
      {"fc tail", 12, 4, 24, {16}},
      {"odd widths", 5, 4, 15, {9}},
      {"head only", 12, 4, 32, {}},
  };
  const auto train = pattern_samples(20, 78);
  const auto test = pattern_samples(11, 79);  // 33 windows
  const auto flat = flatten(test);
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    RnnConfig config;
    config.len_embed_dim = shape.len_embed;
    config.ipd_embed_dim = shape.ipd_embed;
    config.units = shape.units;
    config.fc_dims = shape.fc;
    config.num_classes = 3;
    RnnClassifier model(config, 36);
    TrainOptions opts;
    opts.epochs = 2;
    model.fit(train, opts);
    const QuantizedRnn qmodel(model, train);

    std::vector<std::int16_t> expected;
    Scratch serial_scratch;
    for (const SeqSample& s : test) {
      const std::int16_t cls = qmodel.predict_reference(s.tokens);
      ASSERT_EQ(qmodel.predict(s.tokens, serial_scratch), cls);
      expected.push_back(cls);
    }
    expect_batches_match(qmodel, flat, expected);
  }
}

TEST(ScratchReuse, SharedAcrossModelsAndCallOrders) {
  CnnConfig cnn_config;
  cnn_config.conv_channels = {16};
  cnn_config.fc_dims = {};
  cnn_config.num_classes = 3;
  CnnClassifier cnn(cnn_config, 33);
  RnnConfig rnn_config;
  rnn_config.units = 16;
  rnn_config.num_classes = 3;
  RnnClassifier rnn(rnn_config, 34);
  const auto train = pattern_samples(20, 74);
  TrainOptions opts;
  opts.epochs = 2;
  cnn.fit(train, opts);
  rnn.fit(train, opts);
  const QuantizedCnn qcnn(cnn, train);
  const QuantizedRnn qrnn(rnn, train);

  // One scratch ping-ponged between two differently-shaped models must give
  // the same answers as fresh scratches: sizes are re-established per call.
  Scratch shared;
  const auto test = pattern_samples(10, 75);
  for (const SeqSample& s : test) {
    const auto cnn_shared = qcnn.predict(s.tokens, shared);
    const auto rnn_shared = qrnn.predict(s.tokens, shared);
    Scratch fresh_cnn, fresh_rnn;
    EXPECT_EQ(cnn_shared, qcnn.predict(s.tokens, fresh_cnn));
    EXPECT_EQ(rnn_shared, qrnn.predict(s.tokens, fresh_rnn));
  }
}

}  // namespace
}  // namespace fenix::nn
