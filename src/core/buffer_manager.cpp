#include "core/buffer_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace fenix::core {

BufferManager::BufferManager(switchsim::ResourceLedger& ledger,
                             std::size_t table_size, unsigned ring_capacity,
                             unsigned stage)
    : ring_capacity_(ring_capacity), lanes_(kCoordinationLanes) {
  if (ring_capacity == 0) {
    throw std::invalid_argument("BufferManager: ring capacity must be >= 1");
  }
  // Each feature is 32 bits (16-bit length + 16-bit IPD code); ring storage
  // is plain SRAM. A feature word also crosses the action bus at assembly.
  switchsim::Allocation alloc;
  alloc.owner = "feature_rings";
  alloc.stage = stage;
  const std::uint64_t raw =
      static_cast<std::uint64_t>(table_size) * ring_capacity * 32;
  alloc.sram_bits = raw + raw / 8;
  alloc.bus_bits = 32ULL * ring_capacity;  // parallel readout to the deparser
  ledger.allocate(alloc);
  for (Lane& lane : lanes_) {
    lane.rings.resize(lane_slots(table_size) * ring_capacity);
    lane.mirror.session_id = 1;
  }
}

void BufferManager::store(std::uint32_t index, std::uint32_t slot,
                          const net::PacketFeature& feature) {
  ring(index)[slot] = feature;
}

net::FeatureVector BufferManager::assemble(std::uint32_t index,
                                           const net::FiveTuple& tuple,
                                           std::uint32_t flow_id,
                                           const net::PacketFeature& current,
                                           std::uint32_t ring_slot,
                                           std::uint32_t prior_packets,
                                           sim::SimTime now) {
  net::FeatureVector vec;
  assemble_into(vec, index, tuple, flow_id, current, ring_slot, prior_packets, now);
  return vec;
}

void BufferManager::assemble_into(net::FeatureVector& vec, std::uint32_t index,
                                  const net::FiveTuple& tuple,
                                  std::uint32_t flow_id,
                                  const net::PacketFeature& current,
                                  std::uint32_t ring_slot,
                                  std::uint32_t prior_packets, sim::SimTime now) {
  vec.tuple = tuple;
  vec.flow_id = flow_id;
  vec.emitted_at = now;

  const std::uint32_t valid = std::min(prior_packets, ring_capacity_);
  vec.sequence.clear();
  vec.sequence.reserve(valid + 1);
  const net::PacketFeature* r = ring(index);
  if (valid < ring_capacity_) {
    // Ring not yet full: slots 0..valid-1 hold the flow's packets in order.
    for (std::uint32_t i = 0; i < valid; ++i) vec.sequence.push_back(r[i]);
  } else {
    // Full ring: the next-write slot holds the oldest feature.
    for (std::uint32_t i = 0; i < ring_capacity_; ++i) {
      vec.sequence.push_back(r[(ring_slot + i) % ring_capacity_]);
    }
  }
  vec.sequence.push_back(current);  // F9 from metadata
  lanes_[lane_of_slot(index)].mirror.record(vec.wire_bytes());
}

switchsim::MirrorSession BufferManager::mirror() const {
  switchsim::MirrorSession total;
  total.session_id = 1;
  for (const Lane& lane : lanes_) {
    total.mirrored_packets += lane.mirror.mirrored_packets;
    total.mirrored_bytes += lane.mirror.mirrored_bytes;
  }
  return total;
}

}  // namespace fenix::core
