#pragma once

// Architecture policy interface: the decision logic that distinguishes the
// five studied memory architectures.  Mechanics (flushing, remapping, cycle
// accounting) are implemented once in core::Machine; each per-node Policy
// instance only answers the questions the paper's designs differ on:
//
//   * in which mode is a freshly-touched remote page mapped?
//   * when does a CC-NUMA page deserve upgrading to S-COMA?
//   * how does the node react to pageout-daemon success/failure (thrashing)?

#include <cstdint>
#include <memory>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/probe.hh"
#include "vm/page_cache.hh"
#include "vm/pageout_daemon.hh"

namespace ascoma::arch {

/// Mutable per-node state a policy may inspect or adjust.
struct PolicyEnv {
  const MachineConfig& cfg;
  NodeId node;
  vm::PageCache& page_cache;
  KernelStats& kernel;
  Cycle& daemon_period;  ///< node's current pageout-daemon period (cycles)
  Cycle now{0};         ///< current simulated cycle
  obs::Probe* probe = nullptr;  ///< the run's observation hook (may be null)
};

class Policy {
 public:
  explicit Policy(const MachineConfig& cfg)
      : threshold_(cfg.refetch_threshold) {}
  virtual ~Policy() = default;

  virtual ArchModel model() const = 0;

  /// Pre-size per-page state for `total_pages` shared pages.  Called once at
  /// machine setup so stateful policies never grow containers on the
  /// simulation hot path; safe to call again with a larger count.
  virtual void reserve_pages(std::uint64_t total_pages) { (void)total_pages; }

  /// Mapping mode for a remote page at its first touch on this node.
  virtual PageMode initial_mode(PolicyEnv& env) = 0;

  /// The home directory reported `refetches` conflict refetches for a page
  /// currently mapped CC-NUMA: upgrade it to S-COMA now?
  virtual bool should_relocate(PolicyEnv& env, VPageId page,
                               std::uint32_t refetches);

  /// Outcome of a pageout-daemon run on this node (thrash signal).
  virtual void on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r);

  /// A shared-memory miss was satisfied from this node's page cache.
  virtual void on_page_cache_hit(VPageId page);

  /// An S-COMA page was evicted/downgraded on this node.
  virtual void on_replacement(PolicyEnv& env, VPageId victim);

  /// A relocation interrupt fired but no frame could be found and the
  /// policy does not force evictions: the remap was suppressed.  AS-COMA
  /// treats this as a direct thrash signal.
  virtual void on_remap_suppressed(PolicyEnv& env);

  /// Does this architecture run the pageout daemon at all?
  virtual bool runs_daemon() const { return true; }

  /// When an upgrade finds no free frame: may the fault handler evict a
  /// (possibly hot) victim on the spot?  R-NUMA/VC-NUMA: yes ("always
  /// upgrades"); AS-COMA: no (it backs off instead).
  virtual bool force_eviction_on_upgrade() const { return false; }

  std::uint32_t threshold() const { return threshold_; }
  bool relocation_enabled() const { return relocation_enabled_; }

 protected:
  /// Record a back-off escalation / relaxation: bumps the kernel counter and
  /// emits the matching event.  All threshold moves must go through these so
  /// KernelStats and the event stream can never disagree.
  void note_threshold_raise(PolicyEnv& env);
  void note_threshold_drop(PolicyEnv& env);

  std::uint32_t threshold_;
  bool relocation_enabled_ = true;
};

/// Factory for the model selected in `cfg.arch`.
std::unique_ptr<Policy> make_policy(const MachineConfig& cfg);

}  // namespace ascoma::arch
