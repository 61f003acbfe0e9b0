// Hardware-style hash functions.
//
// Tofino's hash units compute CRC polynomials over selected header fields; the
// Flow Tracker uses CRC32 values both as table indices and as stored flow
// fingerprints (§4.1). We implement bit-exact CRC32 (reflected, polynomial
// 0xEDB88320) and CRC16/CCITT so the switch model hashes the same way real
// hardware would.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "net/five_tuple.hpp"

namespace fenix::net {

/// CRC32 (IEEE, reflected) over a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0xffffffffu);

/// CRC16/CCITT-FALSE over a byte span.
std::uint16_t crc16(std::span<const std::uint8_t> data, std::uint16_t seed = 0xffffu);

/// Serializes a five-tuple into the canonical 13-byte key layout used by the
/// switch parser (src ip, dst ip, src port, dst port, proto — network order).
std::array<std::uint8_t, 13> pack_five_tuple(const FiveTuple& t);

/// CRC32 of the packed five-tuple: the flow fingerprint stored in the Flow
/// Info Table.
std::uint32_t flow_hash32(const FiveTuple& t);

/// What the Flow Info Table index pass (a CRC32 of the same 13-byte key from
/// seed 0x04c11db7) XORs the fingerprint with. A CRC is linear in its seed
/// and its data, so two passes over keys of one length from two seeds differ
/// by a constant of the seeds and the length alone.
inline constexpr std::uint32_t kFlowIndexXor = 0xd190c8c5u;

/// The Flow Info Table index of the flow whose fingerprint is `flow_hash`.
constexpr std::uint32_t flow_index_of_hash(std::uint32_t flow_hash,
                                           unsigned index_bits) {
  const std::uint32_t h = flow_hash ^ kFlowIndexXor;
  return index_bits >= 32 ? h : h & ((1u << index_bits) - 1u);
}

/// Flow Info Table index: the low `index_bits` of the index pass, which is
/// the fingerprint XOR kFlowIndexXor. So the index is a truncation of the
/// fingerprint XOR a constant, and a stored fingerprint tells apart only the
/// flows of one slot whose other 32 − index_bits bits differ.
std::uint32_t flow_index(const FiveTuple& t, unsigned index_bits);

}  // namespace fenix::net
