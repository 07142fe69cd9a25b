#pragma once

// VC-NUMA relocation strategy (Moga & Dubois).  Like R-NUMA it maps pages
// CC-NUMA-first and always upgrades on threshold crossing, but it adds a
// hardware thrashing detector: each S-COMA page carries a local refetch
// counter (here: page-cache hits it has supplied — the refetches it *saved*),
// and after an average of `vcnuma_eval_replacements` replacements per cached
// page the detector compares the evicted pages' earnings against a
// break-even number; if the evictions did not pay for themselves the
// relocation threshold is raised.
//
// Note: following the paper's methodology, only the relocation strategy is
// modeled — not the victim-cache integration with the processor cache, which
// requires non-commodity hardware.

#include <vector>

#include "arch/policy.hh"

namespace ascoma::arch {

class VcNumaPolicy final : public Policy {
 public:
  explicit VcNumaPolicy(const MachineConfig& cfg)
      : Policy(cfg),
        break_even_(cfg.vcnuma_break_even),
        eval_replacements_(cfg.vcnuma_eval_replacements),
        increment_(cfg.threshold_increment),
        initial_threshold_(cfg.refetch_threshold) {}

  ArchModel model() const override { return ArchModel::kVcNuma; }
  PageMode initial_mode(PolicyEnv&) override { return PageMode::kNuma; }
  bool force_eviction_on_upgrade() const override { return true; }

  void reserve_pages(std::uint64_t total_pages) override {
    if (total_pages > benefit_.size()) benefit_.resize(total_pages, 0);
  }

  void on_page_cache_hit(VPageId page) override {
    if (page.value() >= benefit_.size()) grow_for(page);
    ++benefit_[page.value()];
  }
  void on_replacement(PolicyEnv& env, VPageId victim) override;

  // Exposed for tests/ablation.
  std::uint64_t window_replacements() const { return window_replacements_; }
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  void evaluate(PolicyEnv& env);

  /// Cold growth for direct-construction uses (tests) that never call
  /// reserve_pages(); simulator runs pre-size the array at machine setup, so
  /// the hot mutators above stay allocation-free.
  void grow_for(VPageId page) { reserve_pages(page.value() + 1); }

  std::uint32_t break_even_;
  double eval_replacements_;
  std::uint32_t increment_;
  std::uint32_t initial_threshold_;

  /// Saved-refetch counters indexed by page (0 = never hit, counters are
  /// always >= 1 once earned).
  std::vector<std::uint32_t> benefit_;
  std::uint64_t window_replacements_ = 0;
  std::uint64_t window_earned_ = 0;
  std::uint64_t evaluations_ = 0;
};

}  // namespace ascoma::arch
