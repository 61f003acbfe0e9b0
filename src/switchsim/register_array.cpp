#include "switchsim/register_array.hpp"

#include <stdexcept>

namespace fenix::switchsim {

void allocate_register(ResourceLedger& ledger, const std::string& name,
                       unsigned stage, std::size_t entries, unsigned width_bits) {
  if (width_bits != 8 && width_bits != 16 && width_bits != 32 && width_bits != 64) {
    throw std::invalid_argument("register '" + name +
                                "': width must be 8/16/32/64 bits");
  }
  if (entries == 0) {
    throw std::invalid_argument("register '" + name + "': zero entries");
  }
  Allocation alloc;
  alloc.owner = "register:" + name;
  alloc.stage = stage;
  // SRAM words are allocated in 128-bit units with ~12% overhead for map RAM.
  const std::uint64_t raw = static_cast<std::uint64_t>(entries) * width_bits;
  alloc.sram_bits = raw + raw / 8;
  alloc.bus_bits = width_bits;  // result travels on the action bus
  ledger.allocate(alloc);
}

RegisterArray::RegisterArray(ResourceLedger& ledger, std::string name, unsigned stage,
                             std::size_t entries, unsigned width_bits)
    : name_(std::move(name)), stage_(stage), width_bits_(width_bits) {
  allocate_register(ledger, name_, stage, entries, width_bits);
  values_.assign(entries, 0);
}

std::uint64_t RegisterArray::read(std::size_t index) const {
  return values_.at(index);
}

void RegisterArray::write(std::size_t index, std::uint64_t value) {
  values_.at(index) = value & mask();
}

void RegisterArray::clear() {
  for (auto& v : values_) v = 0;
}

}  // namespace fenix::switchsim
