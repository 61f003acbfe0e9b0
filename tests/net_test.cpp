// Tests for the packet substrate: five-tuples, CRC hashing, IPD encoding,
// feature vectors, and traces.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>

#include "net/feature.hpp"
#include "net/five_tuple.hpp"
#include "net/hash.hpp"
#include "net/packet.hpp"

namespace fenix::net {
namespace {

FiveTuple sample_tuple() {
  FiveTuple t;
  t.src_ip = 0x0a000001;   // 10.0.0.1
  t.dst_ip = 0xac100002;   // 172.16.0.2
  t.src_port = 12345;
  t.dst_port = 443;
  t.proto = static_cast<std::uint8_t>(IpProto::kTcp);
  return t;
}

TEST(FiveTuple, Formatting) {
  EXPECT_EQ(format_ipv4(0x0a000001), "10.0.0.1");
  EXPECT_EQ(sample_tuple().to_string(), "10.0.0.1:12345 -> 172.16.0.2:443/tcp");
}

TEST(FiveTuple, Ordering) {
  FiveTuple a = sample_tuple();
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  b.src_port = 12346;
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(FiveTuple, StdHashDistinguishes) {
  std::hash<FiveTuple> h;
  FiveTuple a = sample_tuple();
  FiveTuple b = a;
  b.proto = static_cast<std::uint8_t>(IpProto::kUdp);
  EXPECT_NE(h(a), h(b));
}

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (standard check value).
  const std::array<std::uint8_t, 9> data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc16, KnownVector) {
  // CRC16/CCITT-FALSE("123456789") = 0x29B1.
  const std::array<std::uint8_t, 9> data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16(data), 0x29B1u);
}

TEST(Hash, PackFiveTupleLayout) {
  const auto key = pack_five_tuple(sample_tuple());
  EXPECT_EQ(key[0], 0x0a);  // src ip MSB first
  EXPECT_EQ(key[3], 0x01);
  EXPECT_EQ(key[4], 0xac);
  EXPECT_EQ(key[8], 12345 >> 8);
  EXPECT_EQ(key[9], 12345 & 0xff);
  EXPECT_EQ(key[12], 6);
}

TEST(Hash, FlowHashDeterministicAndSensitive) {
  const auto h1 = flow_hash32(sample_tuple());
  EXPECT_EQ(h1, flow_hash32(sample_tuple()));
  FiveTuple other = sample_tuple();
  other.dst_port = 80;
  EXPECT_NE(h1, flow_hash32(other));
}

TEST(Hash, FlowIndexRespectsBitWidth) {
  for (unsigned bits : {4u, 8u, 12u, 16u, 20u}) {
    const std::uint32_t idx = flow_index(sample_tuple(), bits);
    EXPECT_LT(idx, 1u << bits) << "bits=" << bits;
  }
}

TEST(Hash, IndexNotTruncationOfFingerprint) {
  // The index is not the fingerprint's own low bits: it is the fingerprint
  // XOR kFlowIndexXor (FlowIndexIsFingerprintXorConstant), whose low 16 bits
  // are nonzero. Two flows in one slot therefore still share the
  // fingerprint's low index_bits bits.
  int diff = 0;
  for (std::uint16_t port = 1000; port < 1100; ++port) {
    FiveTuple t = sample_tuple();
    t.src_port = port;
    if ((flow_hash32(t) & 0xffff) != flow_index(t, 16)) ++diff;
  }
  EXPECT_GT(diff, 90);
}

TEST(Hash, FlowIndexIsFingerprintXorConstant) {
  // The index pass is a CRC32 of the same key from seed 0x04c11db7; by CRC
  // linearity it equals the fingerprint XOR one constant, so the replay
  // derives each from the other with one CRC per packet and per verdict.
  std::mt19937_64 rng(7);
  for (unsigned bits : {1u, 15u, 17u, 24u, 32u}) {
    const std::uint32_t mask =
        bits >= 32 ? 0xffffffffu : (std::uint32_t{1} << bits) - 1;
    for (int i = 0; i < 20000; ++i) {
      FiveTuple t;
      const std::uint64_t r = rng();
      t.src_ip = static_cast<std::uint32_t>(r);
      t.dst_ip = static_cast<std::uint32_t>(r >> 32);
      const std::uint64_t q = rng();
      t.src_port = static_cast<std::uint16_t>(q);
      t.dst_port = static_cast<std::uint16_t>(q >> 16);
      t.proto = static_cast<std::uint8_t>(q >> 32);
      const std::uint32_t index_pass = crc32(pack_five_tuple(t), 0x04c11db7u);
      ASSERT_EQ(flow_index(t, bits), index_pass & mask) << "bits=" << bits;
      ASSERT_EQ(flow_index(t, bits), (flow_hash32(t) ^ 0xd190c8c5u) & mask)
          << "bits=" << bits;
      ASSERT_EQ(flow_index_of_hash(flow_hash32(t), bits), index_pass & mask)
          << "bits=" << bits;
    }
  }
}

TEST(Hash, IndexDistributionSpreads) {
  std::set<std::uint32_t> seen;
  for (std::uint16_t port = 0; port < 1000; ++port) {
    FiveTuple t = sample_tuple();
    t.src_port = port;
    seen.insert(flow_index(t, 16));
  }
  EXPECT_GT(seen.size(), 950u);  // few collisions among 1000 in 65536 slots
}

TEST(IpdEncoding, ZeroAndSubMicrosecond) {
  EXPECT_EQ(encode_ipd(0), 0);
  EXPECT_EQ(encode_ipd(sim::nanoseconds(999)), 0);
  EXPECT_DOUBLE_EQ(decode_ipd_us(0), 0.0);
}

TEST(IpdEncoding, MonotoneNondecreasing) {
  std::uint16_t prev = 0;
  for (std::uint64_t us = 1; us < 1'000'000; us = us * 3 / 2 + 1) {
    const std::uint16_t code = encode_ipd(us * sim::kMicrosecond);
    EXPECT_GE(code, prev) << "us=" << us;
    prev = code;
  }
}

class IpdRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IpdRoundTrip, RelativeErrorBounded) {
  const std::uint64_t us = GetParam();
  const std::uint16_t code = encode_ipd(us * sim::kMicrosecond);
  const double decoded = decode_ipd_us(code);
  // 8 mantissa bits -> relative error below 1/256 plus rounding.
  EXPECT_NEAR(decoded, static_cast<double>(us), static_cast<double>(us) / 128.0 + 1.0)
      << "us=" << us;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IpdRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 15, 100, 999, 1024, 5000,
                                           65535, 1'000'000, 30'000'000));

TEST(FeatureVector, WireBytes) {
  FeatureVector vec;
  vec.sequence.resize(9);
  // 13-byte key + 9 * 4 feature bytes + 16 encapsulation.
  EXPECT_EQ(vec.wire_bytes(), 13u + 36u + 16u);
}

TEST(Trace, RatesFromTimestamps) {
  Trace trace;
  for (int i = 0; i < 11; ++i) {
    PacketRecord p;
    p.timestamp = static_cast<sim::SimTime>(i) * sim::microseconds(100);
    p.wire_length = 1000;
    trace.packets.push_back(p);
  }
  EXPECT_EQ(trace.duration(), sim::milliseconds(1));
  EXPECT_NEAR(trace.offered_pps(), 11.0 / 1e-3, 1.0);
  EXPECT_NEAR(trace.offered_bps(), 11.0 * 8000 / 1e-3, 1.0);
}

TEST(Trace, EmptyTraceSafe) {
  Trace trace;
  EXPECT_EQ(trace.duration(), 0u);
  EXPECT_EQ(trace.offered_bps(), 0.0);
  EXPECT_EQ(trace.offered_pps(), 0.0);
}

}  // namespace
}  // namespace fenix::net
