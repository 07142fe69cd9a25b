// End-to-end regression net: the paper's headline claims, asserted as
// orderings on the real workload generators (scaled down for test speed).
// If a policy or timing change breaks the reproduction, these tests fail
// before the benchmarks would show it.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/sweep.hh"
#include "workload/workload.hh"

namespace ascoma::core {
namespace {

constexpr double kScale = 0.5;  // half-length runs: same dynamics, faster

class PaperClaims : public ::testing::Test {
 protected:
  static double run(const std::string& wl, ArchModel arch, double pressure) {
    const std::string key =
        wl + "/" + to_string(arch) + "/" + std::to_string(pressure);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    SweepJob j;
    j.config.arch = arch;
    j.config.memory_pressure = pressure;
    j.workload = wl;
    j.workload_scale = kScale;
    const auto rs = run_sweep({j}, 1);
    const double cycles = static_cast<double>(rs[0].result.cycles().value());
    cache_[key] = cycles;
    return cycles;
  }

  static RunResult run_full(const std::string& wl, ArchModel arch,
                            double pressure) {
    SweepJob j;
    j.config.arch = arch;
    j.config.memory_pressure = pressure;
    j.workload = wl;
    j.workload_scale = kScale;
    return run_sweep({j}, 1)[0].result;
  }

  static std::map<std::string, double> cache_;
};
std::map<std::string, double> PaperClaims::cache_;

// §5: "At low memory pressures, AS-COMA acts like S-COMA and outperforms
// other hybrid architectures."
TEST_F(PaperClaims, AsComaActsLikeScomaAtLowPressure) {
  for (const std::string& wl : workload::workload_names()) {
    const double scoma = run(wl, ArchModel::kScoma, 0.10);
    const double ascoma = run(wl, ArchModel::kAsComa, 0.10);
    EXPECT_DOUBLE_EQ(ascoma, scoma) << wl;
  }
}

TEST_F(PaperClaims, AsComaBeatsOtherHybridsAtLowPressure) {
  for (const std::string wl : {"em3d", "radix", "lu", "barnes"}) {
    const double ascoma = run(wl, ArchModel::kAsComa, 0.10);
    EXPECT_LT(ascoma, run(wl, ArchModel::kRNuma, 0.10)) << wl;
    EXPECT_LT(ascoma, run(wl, ArchModel::kVcNuma, 0.10)) << wl;
  }
}

// Abstract: "AS-COMA outperforms CC-NUMA under almost all conditions, and
// at its worst only underperforms CC-NUMA by a few percent."
TEST_F(PaperClaims, AsComaNeverFarBehindCcNuma) {
  for (const std::string wl : {"em3d", "radix", "lu", "ocean", "fft"}) {
    const double cc = run(wl, ArchModel::kCcNuma, 0.5);
    for (double pressure : {0.1, 0.9}) {
      const double as = run(wl, ArchModel::kAsComa, pressure);
      EXPECT_LT(as, cc * 1.12)
          << wl << " @" << pressure * 100 << "%";
    }
  }
}

// §5.2: R-NUMA falls well below CC-NUMA at 90% pressure for the
// hot-working-set programs; AS-COMA stays ahead of R-NUMA.
TEST_F(PaperClaims, RNumaThrashesAtHighPressureAsComaDoesNot) {
  for (const std::string wl : {"em3d", "radix"}) {
    const double cc = run(wl, ArchModel::kCcNuma, 0.5);
    const double rn = run(wl, ArchModel::kRNuma, 0.9);
    const double as = run(wl, ArchModel::kAsComa, 0.9);
    EXPECT_GT(rn, cc * 1.10) << wl << ": R-NUMA should thrash";
    EXPECT_LT(as, rn * 0.92) << wl << ": AS-COMA should beat R-NUMA";
  }
}

// §5.2: VC-NUMA's hardware detector helps over R-NUMA but is less
// effective than AS-COMA's at high pressure.
TEST_F(PaperClaims, VcNumaBetweenRNumaAndAsComaWhenThrashing) {
  const double rn = run("em3d", ArchModel::kRNuma, 0.9);
  const double vc = run("em3d", ArchModel::kVcNuma, 0.9);
  const double as = run("em3d", ArchModel::kAsComa, 0.9);
  // At short scales VC-NUMA's coarse evaluation window may not complete, in
  // which case it behaves exactly like R-NUMA ("not sufficiently often to
  // avoid thrashing") — it must never be *worse*.
  EXPECT_LE(vc, rn);
  EXPECT_LT(as, vc);
}

// §2.3: pure S-COMA's performance "degrades rapidly ... as memory pressure
// increases"; §5: it collapses from kernel overhead.
TEST_F(PaperClaims, ScomaCollapsesAtHighPressure) {
  const double cc = run("radix", ArchModel::kCcNuma, 0.5);
  const double sc30 = run("radix", ArchModel::kScoma, 0.3);
  EXPECT_GT(sc30, cc * 1.5);
  const auto full = run_full("radix", ArchModel::kScoma, 0.3);
  // The collapse must be kernel-overhead-driven, as the paper stresses.
  EXPECT_GT(full.stats.totals.time.frac(TimeBucket::kKernelOvhd), 0.10);
}

// §5.2 (fft/ocean/lu group): hybrids nearly identical; no thrashing.
TEST_F(PaperClaims, QuietProgramsSeeNoHybridSpread) {
  for (const std::string wl : {"fft", "ocean"}) {
    const double rn = run(wl, ArchModel::kRNuma, 0.9);
    const double vc = run(wl, ArchModel::kVcNuma, 0.9);
    EXPECT_NEAR(rn / vc, 1.0, 0.05) << wl;
  }
}

// §5.2: lu — "all of the hybrid architectures outperform CC-NUMA ...
// across all memory pressures."
TEST_F(PaperClaims, EveryHybridBeatsCcNumaOnLu) {
  const double cc = run("lu", ArchModel::kCcNuma, 0.5);
  for (ArchModel arch :
       {ArchModel::kRNuma, ArchModel::kVcNuma, ArchModel::kAsComa}) {
    for (double pressure : {0.1, 0.9}) {
      EXPECT_LT(run("lu", arch, pressure), cc)
          << to_string(arch) << " @" << pressure * 100 << "%";
    }
  }
}

// §5.1/Table 6: fft's remote pages almost never qualify for relocation, so
// R-NUMA and VC-NUMA "effectively become CC-NUMAs" on it.
TEST_F(PaperClaims, FftHybridsDegenerateToCcNuma) {
  const auto rn = run_full("fft", ArchModel::kRNuma, 0.5);
  EXPECT_EQ(rn.stats.totals.kernel.upgrades, 0u);
  EXPECT_EQ(rn.relocated_pairs, 0u);
}

// §5.2: AS-COMA's win comes from *reducing kernel overhead and induced cold
// misses*, accepting more remote conflict misses than R-NUMA.
TEST_F(PaperClaims, AsComaTradesConflictMissesForKernelTime) {
  const auto as = run_full("em3d", ArchModel::kAsComa, 0.9);
  const auto rn = run_full("em3d", ArchModel::kRNuma, 0.9);
  // The win must come from the costs the paper identifies — kernel
  // remapping overhead and flush-induced cold misses — not from somehow
  // finding more page-cache hits than the always-remapping R-NUMA.
  EXPECT_LT(as.stats.totals.time[TimeBucket::kKernelOvhd],
            rn.stats.totals.time[TimeBucket::kKernelOvhd]);
  EXPECT_LT(as.stats.totals.induced_cold_misses,
            rn.stats.totals.induced_cold_misses);
  EXPECT_LT(as.stats.totals.kernel.upgrades,
            rn.stats.totals.kernel.upgrades);
}

}  // namespace
}  // namespace ascoma::core
