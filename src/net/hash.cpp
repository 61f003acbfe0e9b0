#include "net/hash.hpp"

namespace fenix::net {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t c = static_cast<std::uint16_t>(i << 8);
    for (int k = 0; k < 8; ++k) {
      c = (c & 0x8000) ? static_cast<std::uint16_t>((c << 1) ^ 0x1021)
                       : static_cast<std::uint16_t>(c << 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
const std::array<std::uint16_t, 256> kCrc16Table = make_crc16_table();

/// The CRC32 register after `n` zero bytes from `seed`, before the final XOR.
constexpr std::uint32_t crc32_register_after_zeros(std::uint32_t seed,
                                                   std::size_t n) {
  const auto table = make_crc32_table();
  for (std::size_t i = 0; i < n; ++i) seed = table[seed & 0xff] ^ (seed >> 8);
  return seed;
}

// The index pass and the fingerprint pass over one 13-byte key differ by the
// zero-data terms of their seeds (the data terms and final XORs cancel).
static_assert((crc32_register_after_zeros(0xffffffffu, 13) ^
               crc32_register_after_zeros(0x04c11db7u, 13)) == kFlowIndexXor);

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t c = seed;
  for (std::uint8_t byte : data) {
    c = kCrc32Table[(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint16_t crc16(std::span<const std::uint8_t> data, std::uint16_t seed) {
  std::uint16_t c = seed;
  for (std::uint8_t byte : data) {
    c = static_cast<std::uint16_t>(kCrc16Table[((c >> 8) ^ byte) & 0xff] ^ (c << 8));
  }
  return c;
}

std::array<std::uint8_t, 13> pack_five_tuple(const FiveTuple& t) {
  std::array<std::uint8_t, 13> out{};
  auto put32 = [&out](std::size_t at, std::uint32_t v) {
    out[at] = static_cast<std::uint8_t>(v >> 24);
    out[at + 1] = static_cast<std::uint8_t>(v >> 16);
    out[at + 2] = static_cast<std::uint8_t>(v >> 8);
    out[at + 3] = static_cast<std::uint8_t>(v);
  };
  auto put16 = [&out](std::size_t at, std::uint16_t v) {
    out[at] = static_cast<std::uint8_t>(v >> 8);
    out[at + 1] = static_cast<std::uint8_t>(v);
  };
  put32(0, t.src_ip);
  put32(4, t.dst_ip);
  put16(8, t.src_port);
  put16(10, t.dst_port);
  out[12] = t.proto;
  return out;
}

std::uint32_t flow_hash32(const FiveTuple& t) {
  const auto key = pack_five_tuple(t);
  return crc32(key);
}

std::uint32_t flow_index(const FiveTuple& t, unsigned index_bits) {
  return flow_index_of_hash(flow_hash32(t), index_bits);
}

}  // namespace fenix::net
