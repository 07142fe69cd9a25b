#include <gtest/gtest.h>

#include "mem/bus.hh"
#include "mem/dram.hh"

namespace ascoma::mem {
namespace {

TEST(Dram, UncontendedLatencyIsAccessCycles) {
  MachineConfig cfg;
  Dram d(cfg);
  EXPECT_EQ(d.access(Cycle{100}, BlockId{0}), Cycle{100} + cfg.dram_access_cycles);
  EXPECT_EQ(d.banks(), cfg.dram_banks);
}

TEST(Dram, BlocksInterleaveAcrossBanks) {
  MachineConfig cfg;  // 4 banks
  Dram d(cfg);
  // Blocks 0..3 hit distinct banks: all complete without queueing.
  for (BlockId b{0}; b.value() < 4; ++b)
    EXPECT_EQ(d.access(Cycle{0}, b), cfg.dram_access_cycles);
}

TEST(Dram, SameBankQueues) {
  MachineConfig cfg;
  Dram d(cfg);
  EXPECT_EQ(d.access(Cycle{0}, BlockId{0}), Cycle{30});  // banks start free
  EXPECT_EQ(d.access(Cycle{0}, BlockId{4}), Cycle{60});  // block 4 -> bank 0 again
  EXPECT_EQ(d.access(Cycle{0}, BlockId{8}), Cycle{90});
}

TEST(Bus, TransactOccupiesBus) {
  MachineConfig cfg;
  Bus b(cfg);
  EXPECT_EQ(b.transact(Cycle{0}), cfg.bus_occupancy);
  EXPECT_EQ(b.transact(Cycle{0}), 2 * cfg.bus_occupancy);  // queued behind first
}

TEST(Bus, ShortTransactionIsHalf) {
  MachineConfig cfg;  // occupancy 10 -> short 5
  Bus b(cfg);
  EXPECT_EQ(b.transact_short(Cycle{0}), Cycle{5});
}

TEST(Bus, BusyCyclesSumFullAndShortTransactions) {
  MachineConfig cfg;
  Bus b(cfg);
  b.transact(Cycle{0});
  b.transact_short(Cycle{100});
  const Cycle busy = cfg.bus_occupancy + (cfg.bus_occupancy + Cycle{1}) / 2;
  EXPECT_EQ(b.busy_cycles(), busy);
  const Cycle horizon{200};
  EXPECT_DOUBLE_EQ(b.utilization(horizon),
                   static_cast<double>(busy.value()) /
                       static_cast<double>(horizon.value()));
  EXPECT_EQ(b.utilization(Cycle{0}), 0.0);
}

}  // namespace
}  // namespace ascoma::mem
