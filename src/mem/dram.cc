#include "mem/dram.hh"

#include <bit>

#include "common/check.hh"

namespace ascoma::mem {

Dram::Dram(const MachineConfig& cfg)
    : access_cycles_(cfg.dram_access_cycles), bank_mask_(cfg.dram_banks - 1) {
  ASCOMA_CHECK_MSG(std::has_single_bit(cfg.dram_banks),
                   "DRAM bank count must be a power of two");
  banks_.reserve(cfg.dram_banks);
  for (std::uint32_t i = 0; i < cfg.dram_banks; ++i)
    banks_.emplace_back("dram.bank" + std::to_string(i));
}

void Dram::reset() {
  for (auto& b : banks_) b.reset();
  accesses_ = 0;
}

}  // namespace ascoma::mem
