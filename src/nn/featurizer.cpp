#include "nn/featurizer.hpp"

#include <algorithm>
#include <cmath>

#include "sim/random.hpp"

namespace fenix::nn {

std::vector<Token> tokenize(std::span<const net::PacketFeature> features,
                            std::size_t seq_len) {
  std::vector<Token> tokens;
  tokenize_into(features, seq_len, tokens);
  return tokens;
}

void tokenize_into(std::span<const net::PacketFeature> features,
                   std::size_t seq_len, std::vector<Token>& out) {
  out.resize(seq_len);
  tokenize_into(features, std::span<Token>(out));
}

void tokenize_into(std::span<const net::PacketFeature> features,
                   std::span<Token> out) {
  const std::size_t n = features.size();
  const std::size_t take = std::min(n, out.size());
  const std::size_t src_start = n - take;
  const std::size_t dst_start = out.size() - take;
  std::fill_n(out.begin(), dst_start, Token{0, 0});
  for (std::size_t i = 0; i < take; ++i) {
    const net::PacketFeature& f = features[src_start + i];
    out[dst_start + i] = Token{length_token(f.length), ipd_token(f.ipd_code)};
  }
}

std::array<float, kFlowStatDim> flow_statistics(
    std::span<const net::PacketFeature> features) {
  std::array<float, kFlowStatDim> out{};
  if (features.empty()) return out;
  double len_sum = 0, len_sq = 0, ipd_sum = 0, ipd_sq = 0;
  float len_min = 1e9f, len_max = 0, ipd_min = 1e9f, ipd_max = 0;
  for (const net::PacketFeature& f : features) {
    const auto len = static_cast<float>(f.length);
    const auto ipd = static_cast<float>(net::decode_ipd_us(f.ipd_code));
    len_sum += len;
    len_sq += static_cast<double>(len) * len;
    ipd_sum += ipd;
    ipd_sq += static_cast<double>(ipd) * ipd;
    len_min = std::min(len_min, len);
    len_max = std::max(len_max, len);
    ipd_min = std::min(ipd_min, ipd);
    ipd_max = std::max(ipd_max, ipd);
  }
  const auto n = static_cast<double>(features.size());
  const double len_mean = len_sum / n;
  const double ipd_mean = ipd_sum / n;
  out[0] = len_min;
  out[1] = static_cast<float>(len_mean);
  out[2] = len_max;
  out[3] = static_cast<float>(std::sqrt(std::max(0.0, len_sq / n - len_mean * len_mean)));
  out[4] = ipd_min;
  out[5] = static_cast<float>(ipd_mean);
  out[6] = ipd_max;
  out[7] = static_cast<float>(std::sqrt(std::max(0.0, ipd_sq / n - ipd_mean * ipd_mean)));
  out[8] = static_cast<float>(features.size());
  out[9] = static_cast<float>(len_sum);
  return out;
}

std::vector<std::size_t> balanced_indices(const std::vector<SeqSample>& samples,
                                          std::size_t num_classes, std::uint64_t seed,
                                          std::size_t cap_per_class) {
  std::vector<std::vector<std::size_t>> by_class(num_classes);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto label = samples[i].label;
    if (label >= 0 && static_cast<std::size_t>(label) < num_classes) {
      by_class[static_cast<std::size_t>(label)].push_back(i);
    }
  }
  std::size_t largest = 0;
  for (const auto& v : by_class) largest = std::max(largest, v.size());
  if (cap_per_class > 0) largest = std::min(largest, cap_per_class);

  sim::RandomStream rng(seed);
  std::vector<std::size_t> out;
  out.reserve(largest * num_classes);
  for (const auto& v : by_class) {
    if (v.empty()) continue;
    for (std::size_t k = 0; k < largest; ++k) {
      // Undersample (without replacement up to v.size()) then oversample.
      out.push_back(k < v.size() ? v[k] : v[rng.uniform_int(v.size())]);
    }
  }
  // Shuffle so training batches mix classes.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.uniform_int(i)]);
  }
  return out;
}

}  // namespace fenix::nn
