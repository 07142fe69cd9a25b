#pragma once

// Fully parameterisable synthetic workload: the knobs are exactly the
// signature properties the paper's analysis attributes performance to
// (remote working-set size, spatial locality, write fraction, reuse).  Used
// by the custom_workload example, the property-test sweeps, and ablations.

#include "common/rng.hh"
#include "workload/workload.hh"

namespace ascoma::workload {

struct SyntheticParams {
  std::string name = "synthetic";
  std::uint32_t nodes = 8;
  std::uint32_t procs_per_node = 1;    ///< SMP-node extension
  std::uint64_t home_pages = 128;      ///< per node
  std::uint64_t remote_pages = 256;    ///< hot remote set per node
  std::uint32_t iterations = 4;
  std::uint32_t sweeps_per_iteration = 2;
  std::uint32_t loads_per_page = 16;   ///< per sweep, stride-spread
  double write_fraction = 0.1;         ///< fraction of accesses that store
  double random_fraction = 0.0;        ///< accesses to uniform random pages
  Cycle compute_per_page{10};          ///< cycles between page visits
  std::uint64_t private_per_page = 4;
  bool barriers = true;
  std::uint32_t locks = 0;             ///< lock ids used (0 = none)
};

class SyntheticWorkload final : public Workload {
 public:
  explicit SyntheticWorkload(SyntheticParams params);

  std::string name() const override { return params_.name; }
  std::uint32_t nodes() const override { return params_.nodes; }
  std::uint32_t processes() const override {
    return params_.nodes * params_.procs_per_node;
  }
  std::uint64_t total_pages() const override {
    return static_cast<std::uint64_t>(params_.nodes) * params_.home_pages;
  }
  std::unique_ptr<OpStream> stream(std::uint32_t proc,
                                   std::uint64_t seed) const override;

  const SyntheticParams& params() const { return params_; }

 private:
  GeneratorStream generate(std::uint32_t proc, std::uint64_t seed) const;

  SyntheticParams params_;
};

}  // namespace ascoma::workload
