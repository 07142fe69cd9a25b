#include "common/config.hh"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/rng.hh"

namespace ascoma {
namespace {

TEST(Config, DefaultsAreValid) {
  MachineConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, DerivedGranularities) {
  MachineConfig cfg;
  EXPECT_EQ(cfg.lines_per_block(), 4u);    // 128 / 32
  EXPECT_EQ(cfg.blocks_per_page(), 32u);   // 4096 / 128
  EXPECT_EQ(cfg.lines_per_page(), 128u);   // 4096 / 32
  EXPECT_EQ(cfg.l1_lines(), 512u);         // 16K / 32
  EXPECT_EQ(cfg.rac_entries(), 1u);        // 128 / 128
}

TEST(Config, AddressDecomposition) {
  MachineConfig cfg;
  const Addr a{3 * 4096 + 5 * 128 + 2 * 32 + 7};
  EXPECT_EQ(cfg.page_of(a), PageId{3});
  EXPECT_EQ(cfg.block_of(a), BlockId{3u * 32 + 5});
  EXPECT_EQ(cfg.line_of(a), LineId{(3u * 4096 + 5 * 128 + 2 * 32) / 32});
  EXPECT_EQ(cfg.first_block_of_page(PageId{3}), BlockId{96});
  EXPECT_EQ(cfg.page_base(PageId{3}), Addr{3u * 4096});
}

// Table 4 of the paper: L1 = 1, local = 50, RAC = 36, remote = 150 cycles,
// remote:local ratio about 3:1.
TEST(Config, Table4MinimumLatencies) {
  MachineConfig cfg;
  EXPECT_EQ(cfg.l1_hit_cycles, Cycle{1});
  EXPECT_EQ(cfg.min_local_latency(), Cycle{50});
  EXPECT_EQ(cfg.min_rac_latency(), Cycle{36});
  EXPECT_EQ(cfg.min_remote_latency(), Cycle{150});
  const double ratio = static_cast<double>(cfg.min_remote_latency().value()) /
                       static_cast<double>(cfg.min_local_latency().value());
  EXPECT_NEAR(ratio, 3.0, 0.05);
}

TEST(Config, NetStagesFor8NodesArity4) {
  MachineConfig cfg;  // 8 nodes, 4x4 switches -> 2 stages
  EXPECT_EQ(cfg.net_stages(), 2u);
  cfg.nodes = 4;
  EXPECT_EQ(cfg.net_stages(), 1u);
  cfg.nodes = 64;
  EXPECT_EQ(cfg.net_stages(), 3u);
  cfg.nodes = 65;
  EXPECT_EQ(cfg.net_stages(), 4u);
}

// ceil(log_arity(nodes)) switch stages of the indirect network.
TEST(Config, NetStages) {
  const auto stages = [](std::uint32_t nodes, std::uint32_t arity) {
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.switch_arity = arity;
    return cfg.net_stages();
  };
  EXPECT_EQ(stages(4, 4), 1u);
  EXPECT_EQ(stages(8, 4), 2u);
  EXPECT_EQ(stages(16, 4), 2u);
  EXPECT_EQ(stages(17, 4), 3u);
  EXPECT_EQ(stages(64, 4), 3u);
  EXPECT_EQ(stages(2, 2), 1u);
  EXPECT_EQ(stages(8, 2), 3u);
}

TEST(Config, ValidateCatchesBadGranularity) {
  MachineConfig cfg;
  cfg.block_bytes = ByteCount{96};  // not a power of two
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.line_bytes = ByteCount{48};
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.l1_bytes = ByteCount{3000};
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, ValidateRejectsNonPowerOfTwoRac) {
  MachineConfig cfg;
  cfg.rac_bytes = ByteCount{384};  // 3 entries of 128 B
  EXPECT_NE(cfg.validate(), "");
  for (const std::uint64_t ok : {0u, 128u, 512u, 4096u, 32768u}) {
    cfg.rac_bytes = ByteCount{ok};
    EXPECT_EQ(cfg.validate(), "") << ok;
  }
}

TEST(Config, ValidateRejectsNonPowerOfTwoDramBanks) {
  MachineConfig cfg;
  for (const std::uint32_t bad : {0u, 3u, 6u}) {
    cfg.dram_banks = bad;
    EXPECT_NE(cfg.validate(), "") << bad;
  }
  for (const std::uint32_t ok : {1u, 2u, 4u, 16u}) {
    cfg.dram_banks = ok;
    EXPECT_EQ(cfg.validate(), "") << ok;
  }
}

// The conversions shift by log2 of the (power-of-two) granularities; every
// one must agree with plain division on random addresses.
TEST(Config, AddressConversionsMatchDivision) {
  struct Geometry {
    std::uint64_t page, block, line;
  };
  for (const Geometry g : {Geometry{4096, 128, 32}, Geometry{8192, 128, 32},
                           Geometry{4096, 64, 16}, Geometry{16384, 256, 64}}) {
    MachineConfig cfg;
    cfg.page_bytes = ByteCount{g.page};
    cfg.block_bytes = ByteCount{g.block};
    cfg.line_bytes = ByteCount{g.line};
    cfg.rac_bytes = ByteCount{g.block};  // one entry in every geometry
    ASSERT_EQ(cfg.validate(), "") << g.page << "/" << g.block << "/" << g.line;
    Rng rng(g.page ^ g.block ^ g.line);
    for (int i = 0; i < 10000; ++i) {
      // Mix small addresses with ones across the full 48-bit space.
      const std::uint64_t raw =
          i % 2 == 0 ? rng.below(1u << 24) : rng.below(std::uint64_t{1} << 48);
      const Addr a{raw};
      const std::uint64_t line = raw / g.line;
      const std::uint64_t block = raw / g.block;
      ASSERT_EQ(cfg.page_of(a), PageId{raw / g.page}) << raw;
      ASSERT_EQ(cfg.block_of(a), BlockId{block}) << raw;
      ASSERT_EQ(cfg.line_of(a), LineAddr{line}) << raw;
      ASSERT_EQ(cfg.page_of_block(BlockId{block}),
                PageId{block / cfg.blocks_per_page()})
          << raw;
      ASSERT_EQ(cfg.page_of_line(LineAddr{line}),
                PageId{line / cfg.lines_per_page()})
          << raw;
      ASSERT_EQ(cfg.block_of_line(LineAddr{line}),
                BlockId{line / cfg.lines_per_block()})
          << raw;
    }
  }
}

// Requester-side block state keeps one bit per block of a page in a u64.
TEST(Config, ValidateRejectsMoreThan64BlocksPerPage) {
  struct Geometry {
    std::uint64_t page, block;
    bool ok;
  };
  for (const Geometry g :
       {Geometry{4096, 32, false}, Geometry{4096, 128, true},
        Geometry{8192, 128, true}, Geometry{4096, 64, true}}) {
    MachineConfig cfg;
    cfg.page_bytes = ByteCount{g.page};
    cfg.block_bytes = ByteCount{g.block};
    cfg.rac_bytes = ByteCount{g.block};
    const std::string err = cfg.validate();
    EXPECT_EQ(err.empty(), g.ok) << g.page << "/" << g.block << ": " << err;
    if (!g.ok) {
      EXPECT_NE(err.find("<= 64"), std::string::npos) << err;
    }
  }
}

// The directory keeps one sharer bit per node in a u64: a larger machine is
// a config error, reported with the others before any table is sized.
TEST(Config, ValidateRejectsMoreThan64Nodes) {
  MachineConfig cfg;
  cfg.nodes = MachineConfig::kMaxNodes;
  EXPECT_EQ(cfg.validate(), "");
  cfg.nodes = MachineConfig::kMaxNodes + 1;
  const std::string err = cfg.validate();
  EXPECT_NE(err.find("nodes must be <= 64"), std::string::npos) << err;
}

TEST(Config, ValidateCatchesBadPressure) {
  MachineConfig cfg;
  cfg.memory_pressure = 0.0;
  EXPECT_NE(cfg.validate(), "");
  cfg.memory_pressure = 1.5;
  EXPECT_NE(cfg.validate(), "");
  cfg.memory_pressure = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate(), "");
  cfg.memory_pressure = 1.0;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, ValidateCatchesBadWatermarks) {
  MachineConfig cfg;
  cfg.free_target_frac = 0.005;  // below free_min_frac
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.free_min_frac = -0.1;
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.free_min_frac = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.free_target_frac = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, ValidateCatchesBadThresholds) {
  MachineConfig cfg;
  cfg.refetch_threshold = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.threshold_max = 1;  // below refetch_threshold
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.daemon_backoff_factor = 0.5;
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.daemon_backoff_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate(), "");
  cfg = MachineConfig{};
  cfg.vcnuma_eval_replacements = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, ParseArchModel) {
  ArchModel m;
  EXPECT_TRUE(parse_arch_model("ccnuma", &m));
  EXPECT_EQ(m, ArchModel::kCcNuma);
  EXPECT_TRUE(parse_arch_model("CC-NUMA", &m));
  EXPECT_EQ(m, ArchModel::kCcNuma);
  EXPECT_TRUE(parse_arch_model("S-COMA", &m));
  EXPECT_EQ(m, ArchModel::kScoma);
  EXPECT_TRUE(parse_arch_model("rnuma", &m));
  EXPECT_EQ(m, ArchModel::kRNuma);
  EXPECT_TRUE(parse_arch_model("VC_NUMA", &m));
  EXPECT_EQ(m, ArchModel::kVcNuma);
  EXPECT_TRUE(parse_arch_model("AS-COMA", &m));
  EXPECT_EQ(m, ArchModel::kAsComa);
  EXPECT_FALSE(parse_arch_model("bogus", &m));
}

TEST(Config, ArchModelNames) {
  EXPECT_STREQ(to_string(ArchModel::kCcNuma), "CCNUMA");
  EXPECT_STREQ(to_string(ArchModel::kScoma), "SCOMA");
  EXPECT_STREQ(to_string(ArchModel::kRNuma), "RNUMA");
  EXPECT_STREQ(to_string(ArchModel::kVcNuma), "VCNUMA");
  EXPECT_STREQ(to_string(ArchModel::kAsComa), "ASCOMA");
}

}  // namespace
}  // namespace ascoma
