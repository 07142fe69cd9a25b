// Table 3 reproduction: cache and network characteristics of the modeled
// machine, echoed from the configuration and cross-checked against the
// component models (a self-test that the built machine matches the paper).

#include <iostream>

#include "bench_util.hh"
#include "common/check.hh"
#include "mem/cache.hh"
#include "mem/rac.hh"
#include "net/network.hh"
#include "vm/home_map.hh"

using namespace ascoma;

int main() {
  MachineConfig cfg;  // 8-node paper machine
  std::cout << "=== Table 3: cache and network characteristics ===\n\n";

  Table t({"component", "characteristic", "value"});
  t.add_row({"L1 cache", "size", std::to_string(cfg.l1_bytes.value() / 1024) + " KB"});
  t.add_row({"", "line size", std::to_string(cfg.line_bytes.value()) + " B"});
  t.add_row({"", "organization", "direct-mapped, write-back"});
  t.add_row({"", "outstanding misses", "1 (blocking)"});
  t.add_row({"", "hit latency", std::to_string(cfg.l1_hit_cycles.value()) + " cycle"});
  t.add_row({"RAC", "line size", std::to_string(cfg.block_bytes.value()) + " B"});
  t.add_row({"", "size", std::to_string(cfg.rac_bytes.value()) + " B (" +
                             std::to_string(cfg.rac_entries()) + " block)"});
  t.add_row({"", "organization", "direct-mapped, non-inclusive"});
  t.add_row({"Memory", "banks", std::to_string(cfg.dram_banks)});
  t.add_row({"", "bank access", std::to_string(cfg.dram_access_cycles.value()) +
                                    " cycles"});
  t.add_row({"Coherence", "transfer unit",
             std::to_string(cfg.block_bytes.value()) + " B (" +
                 std::to_string(cfg.lines_per_block()) + "-line chunks)"});
  t.add_row({"", "protocol", "write-invalidate, sequentially consistent"});
  t.add_row({"Network", "topology",
             std::to_string(cfg.switch_arity) + "x" +
                 std::to_string(cfg.switch_arity) + " switches, " +
                 std::to_string(cfg.net_stages()) + " stages"});
  t.add_row({"", "propagation", std::to_string(cfg.net_propagation.value()) +
                                    " cycles/hop"});
  t.add_row({"", "fall-through", std::to_string(cfg.net_fall_through.value()) +
                                     " cycles"});
  t.add_row({"", "contention model", "input-port contention only"});
  t.add_row({"VM", "page size", std::to_string(cfg.page_bytes.value() / 1024) +
                                    " KB"});
  t.add_row({"", "relocation threshold",
             std::to_string(cfg.refetch_threshold) + " refetches"});
  t.print(std::cout);

  // ---- self-check against the instantiated component models ----------------
  mem::L1Cache l1(cfg);
  ASCOMA_CHECK(l1.num_lines() == cfg.l1_bytes / cfg.line_bytes);
  mem::Rac rac(cfg);
  ASCOMA_CHECK(rac.entries() == 1);
  vm::HomeMap homes(64, cfg.nodes);
  homes.assign_contiguous();
  ASCOMA_CHECK(cfg.net_stages() == 2);
  net::Network net(cfg);
  ASCOMA_CHECK(net.min_one_way_latency() == cfg.net_one_way_latency());
  std::cout << "\nself-check: component models agree with the table.  "
               "remote:local latency ratio = "
            << Table::num(static_cast<double>(cfg.min_remote_latency().value()) /
                              static_cast<double>(cfg.min_local_latency().value()),
                          2)
            << " (paper: ~3:1)\n";
  return 0;
}
