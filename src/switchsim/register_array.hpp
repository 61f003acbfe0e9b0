// Switch register arrays and their resource billing.
//
// A Tofino register array is SRAM in one pipeline stage whose per-packet
// access result travels on the action bus. allocate_register() is the one
// billing rule every register in the switch model uses, whether it is a
// RegisterArray below or a plain integer array the Data Engine lays out
// per coordination lane (core/flow_tracker.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "switchsim/resources.hpp"

namespace fenix::switchsim {

/// Bills one register array to `ledger`: `entries` x `width_bits` of SRAM
/// plus 1/8 for map RAM, and `width_bits` of action bus, in `stage`, under
/// the owner "register:<name>". `width_bits` must be 8, 16, 32, or 64 and
/// `entries` nonzero; throws std::invalid_argument otherwise.
void allocate_register(ResourceLedger& ledger, const std::string& name,
                       unsigned stage, std::size_t entries, unsigned width_bits);

/// A register array occupying SRAM in one pipeline stage.
class RegisterArray {
 public:
  /// `width_bits` must be 8, 16, 32, or 64 (paired 32-bit entries model the
  /// dual-word registers Tofino offers as 2x32).
  RegisterArray(ResourceLedger& ledger, std::string name, unsigned stage,
                std::size_t entries, unsigned width_bits);

  std::size_t entries() const { return values_.size(); }
  unsigned width_bits() const { return width_bits_; }
  unsigned stage() const { return stage_; }
  const std::string& name() const { return name_; }

  std::uint64_t read(std::size_t index) const;

  /// Stores `value` truncated to the register width.
  void write(std::size_t index, std::uint64_t value);

  void clear();

 private:
  std::uint64_t mask() const {
    return width_bits_ >= 64 ? ~0ULL : ((1ULL << width_bits_) - 1ULL);
  }

  std::string name_;
  unsigned stage_;
  unsigned width_bits_;
  std::vector<std::uint64_t> values_;
};

}  // namespace fenix::switchsim
