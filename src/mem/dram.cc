#include "mem/dram.hh"

#include "common/check.hh"

namespace ascoma::mem {

Dram::Dram(const MachineConfig& cfg) : access_cycles_(cfg.dram_access_cycles) {
  ASCOMA_CHECK(cfg.dram_banks > 0);
  banks_.reserve(cfg.dram_banks);
  for (std::uint32_t i = 0; i < cfg.dram_banks; ++i)
    banks_.emplace_back("dram.bank" + std::to_string(i));
}

void Dram::reset() {
  for (auto& b : banks_) b.reset();
  accesses_ = 0;
}

}  // namespace ascoma::mem
