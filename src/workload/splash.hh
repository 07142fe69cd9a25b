#pragma once

// The six paper workloads (SPLASH-2 barnes/fft/lu/ocean/radix + Split-C
// em3d), scaled to simulator-friendly page counts while preserving each
// program's sharing signature (Table 5/6 structure and the Section 5
// analysis).  All run on 8 nodes except lu (4 nodes), as in the paper.

#include "workload/workload.hh"

namespace ascoma::workload {

/// Base for the partitioned SPMD generators: node p is home to the
/// contiguous page range [p*H, (p+1)*H).
class SplashWorkload : public Workload {
 public:
  SplashWorkload(std::uint32_t nodes, std::uint64_t home_pages, double scale)
      : nodes_(nodes), home_pages_(home_pages), scale_(scale) {}

  std::uint32_t nodes() const override { return nodes_; }
  std::uint64_t total_pages() const override { return nodes_ * home_pages_; }

  std::uint64_t home_pages_per_node() const { return home_pages_; }
  VPageId partition_base(NodeId n) const {
    return VPageId{n.value() * home_pages_};
  }

  std::unique_ptr<OpStream> stream(std::uint32_t proc,
                                   std::uint64_t seed) const final {
    return std::make_unique<GeneratorStream>(generate(proc, seed));
  }

 protected:
  /// Process `proc`'s generator coroutine (see GeneratorStream).
  virtual GeneratorStream generate(std::uint32_t proc,
                                   std::uint64_t seed) const = 0;

  std::uint32_t scaled(std::uint32_t iters) const {
    const auto s = static_cast<std::uint32_t>(iters * scale_);
    return s == 0 ? 1 : s;
  }

  std::uint32_t nodes_;
  std::uint64_t home_pages_;
  double scale_;
};

/// barnes: compute-intensive N-body.  High spatial locality; every process
/// repeatedly reads large dense regions of the other nodes' bodies, so most
/// remote pages stay hot across iterations.
class BarnesWorkload final : public SplashWorkload {
 public:
  explicit BarnesWorkload(double scale = 1.0)
      : SplashWorkload(8, 256, scale) {}
  std::string name() const override { return "barnes"; }

 private:
  GeneratorStream generate(std::uint32_t proc,
                           std::uint64_t seed) const override;
};

/// em3d: bipartite graph relaxation.  Each process owns its nodes and reads
/// a fixed, randomly-chosen ~30% remote neighbour set every iteration — the
/// whole remote set is hot, which makes thrash handling decisive above the
/// ideal pressure.
class Em3dWorkload final : public SplashWorkload {
 public:
  explicit Em3dWorkload(double scale = 1.0)
      : SplashWorkload(8, 512, scale) {}
  std::string name() const override { return "em3d"; }

 private:
  GeneratorStream generate(std::uint32_t proc,
                           std::uint64_t seed) const override;
};

/// fft: all-to-all transpose.  Remote data is streamed sequentially with
/// very high spatial locality and almost no block reuse, so nearly no page
/// earns relocation and the one-block RAC satisfies most remote line misses.
class FftWorkload final : public SplashWorkload {
 public:
  explicit FftWorkload(double scale = 1.0) : SplashWorkload(8, 352, scale) {}
  std::string name() const override { return "fft"; }

 private:
  GeneratorStream generate(std::uint32_t proc,
                           std::uint64_t seed) const override;
};

/// lu: blocked dense factorization (4 nodes, as in the paper).  Every
/// process eventually touches every remote page hard enough to relocate it,
/// but only a small moving window is active at any time, so even a small
/// page cache captures the active set.
class LuWorkload final : public SplashWorkload {
 public:
  explicit LuWorkload(double scale = 1.0) : SplashWorkload(4, 480, scale) {}
  std::string name() const override { return "lu"; }

 private:
  GeneratorStream generate(std::uint32_t proc,
                           std::uint64_t seed) const override;
};

/// ocean: nearest-neighbour grid relaxation.  Overwhelmingly local; only
/// partition-boundary pages are shared with the two neighbouring processes,
/// so remote misses are a tiny fraction at every memory pressure.
class OceanWorkload final : public SplashWorkload {
 public:
  explicit OceanWorkload(double scale = 1.0)
      : SplashWorkload(8, 512, scale) {}
  std::string name() const override { return "ocean"; }

 private:
  GeneratorStream generate(std::uint32_t proc,
                           std::uint64_t seed) const override;
};

/// radix: radix sort scatter.  Almost no spatial locality — every node
/// writes keys into every page of every other node — the extreme case where
/// fine-tuning the page cache backfires and back-off is essential.
class RadixWorkload final : public SplashWorkload {
 public:
  explicit RadixWorkload(double scale = 1.0)
      : SplashWorkload(8, 256, scale) {}
  std::string name() const override { return "radix"; }

 private:
  GeneratorStream generate(std::uint32_t proc,
                           std::uint64_t seed) const override;
};

}  // namespace ascoma::workload
