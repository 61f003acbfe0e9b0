// The Buffer Manager (§4.3): per-flow feature ring buffers in switch SRAM and
// mirrored-packet assembly.
//
// Each Flow Info Table slot owns a ring of `ring_capacity` packet features
// (F1..F8). The ring index comes from the Flow Tracker (wrap-without-modulo,
// Figure 4b). On a Rate Limiter grant the Buffer Manager reads the ring in
// oldest-first order, appends the current packet's feature from metadata
// (F9), and emits the result as a mirrored packet toward the Model Engine in
// the deparser stage.
//
// Like the Flow Tracker's registers, the rings are grouped by coordination
// lane (slot % kCoordinationLanes, local index slot / kCoordinationLanes), and
// each lane counts its own mirrored packets, so lanes can be driven
// concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "core/lane_coordination.hpp"
#include "net/feature.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/resources.hpp"

namespace fenix::core {

class BufferManager {
 public:
  /// Throws std::invalid_argument for a zero-depth ring, which has no slot
  /// for the current packet's feature.
  BufferManager(switchsim::ResourceLedger& ledger, std::size_t table_size,
                unsigned ring_capacity, unsigned stage);

  unsigned ring_capacity() const { return ring_capacity_; }

  /// Writes `feature` into `slot` of flow `index`'s ring (the data-plane
  /// register write that follows assembly).
  void store(std::uint32_t index, std::uint32_t slot,
             const net::PacketFeature& feature);

  /// Assembles the mirrored feature header for flow `index`:
  /// the valid ring contents oldest-first, then `current` (from metadata).
  /// `ring_slot` is the slot about to be overwritten (== oldest entry when
  /// the ring is full); `prior_packets` is the number of packets the flow had
  /// before the current one.
  net::FeatureVector assemble(std::uint32_t index, const net::FiveTuple& tuple,
                              std::uint32_t flow_id,
                              const net::PacketFeature& current,
                              std::uint32_t ring_slot, std::uint32_t prior_packets,
                              sim::SimTime now);

  /// assemble() into a caller-owned buffer, reusing its sequence capacity —
  /// the allocation-free form the replay hot loop uses.
  void assemble_into(net::FeatureVector& out, std::uint32_t index,
                     const net::FiveTuple& tuple, std::uint32_t flow_id,
                     const net::PacketFeature& current, std::uint32_t ring_slot,
                     std::uint32_t prior_packets, sim::SimTime now);

  /// The mirror session's counters, summed over the lanes.
  switchsim::MirrorSession mirror() const;

 private:
  /// One coordination lane's rings (local_slots * ring_capacity features)
  /// and mirror counters.
  struct alignas(64) Lane {
    std::vector<net::PacketFeature> rings;
    switchsim::MirrorSession mirror;
  };

  net::PacketFeature* ring(std::uint32_t index) {
    return lanes_[lane_of_slot(index)].rings.data() +
           lane_index(index) * ring_capacity_;
  }

  unsigned ring_capacity_;
  std::vector<Lane> lanes_;  ///< kCoordinationLanes entries.
};

}  // namespace fenix::core
