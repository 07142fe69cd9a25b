#include "mem/dram.hh"

#include <bit>

#include "common/check.hh"

namespace ascoma::mem {

Dram::Dram(const MachineConfig& cfg)
    : access_cycles_(cfg.dram_access_cycles),
      bank_mask_(cfg.dram_banks - 1),
      banks_(cfg.dram_banks) {
  ASCOMA_CHECK_MSG(std::has_single_bit(cfg.dram_banks),
                   "DRAM bank count must be a power of two");
}

}  // namespace ascoma::mem
