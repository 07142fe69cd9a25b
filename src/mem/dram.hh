#pragma once

// Banked main-memory controller ("4-bank main memory controller that can
// supply data from local memory in ~30 cycles").  Blocks are interleaved
// across banks (a power of two of them, so the bank is a mask of the block
// number); concurrent requests to the same bank queue behind each other via
// the bank's Resource.

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "sim/resource.hh"
#include "store/codec.hh"

namespace ascoma::mem {

class Dram {
 public:
  explicit Dram(const MachineConfig& cfg);

  /// Issue a block access at `now`; returns the completion cycle.
  Cycle access(Cycle now, BlockId block) {
    sim::Resource& bank = banks_[block.value() & bank_mask_];
    return bank.acquire_until(now, access_cycles_);
  }

  std::uint32_t banks() const { return static_cast<std::uint32_t>(banks_.size()); }

  // Checkpoint serialization (encode/decode stay adjacent — pairing check).
  void encode(store::Encoder& e) const {
    e.u64(banks_.size());
    for (const sim::Resource& b : banks_) b.encode(e);
  }
  void decode(store::Decoder& d) {
    if (d.u64() != banks_.size())
      throw store::CodecError("DRAM geometry mismatch");
    for (sim::Resource& b : banks_) b.decode(d);
  }

 private:
  Cycle access_cycles_;
  std::uint64_t bank_mask_;  ///< banks - 1
  std::vector<sim::Resource> banks_;
};

}  // namespace ascoma::mem
