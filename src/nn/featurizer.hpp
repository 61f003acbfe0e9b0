// Feature encoding shared by all models.
//
// The paper's models consume sequences of raw packet lengths and inter-packet
// delays (§6). The neural models embed bucketized tokens (the FPGA's
// embedding layer is a LUT-ROM over small vocabularies); the tree models and
// the binary MLP consume continuous per-flow statistics. Both encodings are
// defined here so the switch, the FPGA model, and the offline trainers agree
// bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/feature.hpp"

namespace fenix::nn {

/// Token vocabularies for the embedding layers.
inline constexpr std::size_t kLenVocab = 192;  ///< length / 8, capped.
inline constexpr std::size_t kIpdVocab = 64;   ///< log-bucketed IPD.

/// Bucketizes a wire length into [0, kLenVocab).
constexpr std::uint16_t length_token(std::uint16_t wire_length) {
  const std::uint16_t b = wire_length / 8;
  return b < kLenVocab ? b : static_cast<std::uint16_t>(kLenVocab - 1);
}

/// Bucketizes an encoded IPD (net::encode_ipd code) into [0, kIpdVocab).
constexpr std::uint16_t ipd_token(std::uint16_t ipd_code) {
  // Exponent (code >> 8) plus one mantissa bit gives 2 buckets per octave.
  const std::uint16_t b = static_cast<std::uint16_t>(((ipd_code >> 8) << 1) |
                                                     ((ipd_code >> 7) & 1));
  return b < kIpdVocab ? b : static_cast<std::uint16_t>(kIpdVocab - 1);
}

/// One (length token, IPD token) pair per timestep.
using Token = std::array<std::uint16_t, 2>;

/// A training/evaluation sample: a fixed-length token sequence plus label.
struct SeqSample {
  std::vector<Token> tokens;
  std::int16_t label = -1;
};

/// Converts a raw feature sequence (as carried by a mirrored packet) into
/// tokens. Sequences shorter than `seq_len` are left-padded with zeros;
/// longer ones keep the most recent `seq_len` entries.
std::vector<Token> tokenize(std::span<const net::PacketFeature> features,
                            std::size_t seq_len);

/// Allocation-free variant for the per-packet hot path: `out` is resized to
/// `seq_len` (within capacity after the first call) and overwritten.
void tokenize_into(std::span<const net::PacketFeature> features,
                   std::size_t seq_len, std::vector<Token>& out);

/// tokenize() into `out`, whose size is the sequence length.
void tokenize_into(std::span<const net::PacketFeature> features,
                   std::span<Token> out);

/// Continuous per-flow statistics for tree models / binary MLPs: summary of
/// the same length+IPD sequence (min/mean/max/stddev of lengths, of IPDs,
/// packet count so far, total bytes). 10 features.
inline constexpr std::size_t kFlowStatDim = 10;
std::array<float, kFlowStatDim> flow_statistics(
    std::span<const net::PacketFeature> features);

/// Oversamples minority classes to the size of the largest class (the paper
/// applies over/undersampling against class imbalance, §6). Returns an index
/// multiset into `samples`.
std::vector<std::size_t> balanced_indices(const std::vector<SeqSample>& samples,
                                          std::size_t num_classes,
                                          std::uint64_t seed,
                                          std::size_t cap_per_class = 0);

}  // namespace fenix::nn
