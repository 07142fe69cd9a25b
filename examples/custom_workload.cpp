// custom_workload: drive the machine with your own sharing pattern.
//
// Demonstrates the two extension points a downstream user has:
//  1. SyntheticWorkload — dial in a sharing signature with parameters.
//  2. Subclassing workload::Workload — full control over the op streams
//     (shown here with a tiny producer/consumer pipeline program).
//
//   ./custom_workload

#include <iostream>
#include <memory>

#include "common/table.hh"
#include "core/machine.hh"
#include "workload/synthetic.hh"

using namespace ascoma;

// A hand-written workload: node 0 produces a buffer each iteration; every
// other node consumes (reads) it.  Classic single-producer sharing: the
// producer's partition is hot at every consumer, and writes invalidate all
// replicas each round.
class PipelineWorkload final : public workload::Workload {
 public:
  std::string name() const override { return "pipeline"; }
  std::uint32_t nodes() const override { return 4; }
  std::uint64_t total_pages() const override { return 4 * 64; }

  std::unique_ptr<workload::OpStream> stream(
      std::uint32_t proc, std::uint64_t /*seed*/) const override {
    return std::make_unique<workload::GeneratorStream>(generate(proc));
  }

 private:
  // A coroutine: each co_yield hands the machine one op, generated only
  // when the simulated processor asks for it.
  workload::GeneratorStream generate(std::uint32_t proc) const {
    workload::OpFactory b(page_bytes(), line_bytes());
    const VPageId buffer_base{0};        // node 0's partition
    const std::uint64_t buffer_pages = 48;
    for (std::uint32_t iter = 0; iter < 8; ++iter) {
      if (proc == 0) {
        // Produce: write the buffer.
        for (std::uint64_t p = 0; p < buffer_pages; ++p)
          for (std::uint32_t l = 0; l < 16; ++l)
            co_yield b.store(buffer_base + p, l * 8);
        co_yield b.compute(Cycle{500});
      } else {
        // Consumers do private work while the producer writes.
        co_yield b.compute(Cycle{2000});
        co_yield b.private_ops(200);
      }
      co_yield b.barrier();
      if (proc != 0) {
        // Consume: read the whole buffer, twice (temporal reuse).
        for (std::uint32_t sweep = 0; sweep < 2; ++sweep)
          for (std::uint64_t p = 0; p < buffer_pages; ++p)
            for (std::uint32_t l = 0; l < 16; ++l)
              co_yield b.load(buffer_base + p, l * 8);
      } else {
        co_yield b.compute(Cycle{3000});
      }
      co_yield b.barrier();
    }
  }
};

int main() {
  // --- 1. parameterised synthetic workload ---------------------------------
  workload::SyntheticParams params;
  params.name = "my-kernel";
  params.nodes = 8;
  params.home_pages = 96;
  params.remote_pages = 64;
  params.iterations = 6;
  params.loads_per_page = 32;
  params.write_fraction = 0.1;
  params.locks = 8;
  workload::SyntheticWorkload synthetic(params);

  Table t1({"arch", "pressure", "cycles", "local miss %", "upgrades"});
  for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kAsComa}) {
    for (double pressure : {0.2, 0.9}) {
      MachineConfig cfg;
      cfg.arch = arch;
      cfg.memory_pressure = pressure;
      const auto r = core::simulate(cfg, synthetic);
      const auto& m = r.stats.totals.misses;
      t1.add_row({to_string(arch), Table::pct(pressure, 0),
                  std::to_string(r.cycles().value()),
                  Table::pct(static_cast<double>(m.local()) /
                             static_cast<double>(m.total())),
                  std::to_string(r.stats.totals.kernel.upgrades)});
    }
  }
  std::cout << "== synthetic workload '" << synthetic.name() << "' ==\n";
  t1.print(std::cout);

  // --- 2. fully custom workload ---------------------------------------------
  PipelineWorkload pipeline;
  Table t2({"arch", "cycles", "coherence misses", "scoma hits"});
  for (ArchModel arch :
       {ArchModel::kCcNuma, ArchModel::kScoma, ArchModel::kAsComa}) {
    MachineConfig cfg;
    cfg.arch = arch;
    cfg.memory_pressure = 0.3;
    const auto r = core::simulate(cfg, pipeline);
    const auto& m = r.stats.totals.misses;
    t2.add_row({to_string(arch), std::to_string(r.cycles().value()),
                std::to_string(m[MissSource::kCoherence]),
                std::to_string(m[MissSource::kScoma])});
  }
  std::cout << "\n== custom pipeline workload ==\n";
  t2.print(std::cout);
  std::cout << "\nNote how the producer's writes turn consumer replicas into"
               " coherence misses\nregardless of architecture — replication"
               " only helps re-read data.\n";
  return 0;
}
