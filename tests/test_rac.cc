#include "mem/rac.hh"

#include <gtest/gtest.h>

namespace ascoma::mem {
namespace {

TEST(Rac, DefaultIsSingleBlock) {
  MachineConfig cfg;
  Rac r(cfg);
  EXPECT_EQ(r.entries(), 1u);
}

TEST(Rac, HoldsLastFilledBlock) {
  MachineConfig cfg;
  Rac r(cfg);
  EXPECT_FALSE(r.probe(BlockId{10}));
  r.fill(BlockId{10});
  EXPECT_TRUE(r.probe(BlockId{10}));
  r.fill(BlockId{11});  // single entry: displaces block 10
  EXPECT_FALSE(r.probe(BlockId{10}));
  EXPECT_TRUE(r.probe(BlockId{11}));
}

TEST(Rac, InvalidateRemovesOnlyMatchingTag) {
  MachineConfig cfg;
  Rac r(cfg);
  r.fill(BlockId{10});
  EXPECT_FALSE(r.invalidate(BlockId{99}));  // different block (same slot)
  EXPECT_TRUE(r.probe(BlockId{10}));
  EXPECT_TRUE(r.invalidate(BlockId{10}));
  EXPECT_FALSE(r.probe(BlockId{10}));
  EXPECT_FALSE(r.invalidate(BlockId{10}));  // already gone
}

TEST(Rac, LargerRacIsDirectMapped) {
  MachineConfig cfg;
  cfg.rac_bytes = ByteCount{4 * 128};  // 4 entries
  Rac r(cfg);
  EXPECT_EQ(r.entries(), 4u);
  r.fill(BlockId{0});
  r.fill(BlockId{1});
  r.fill(BlockId{2});
  r.fill(BlockId{3});
  EXPECT_TRUE(r.probe(BlockId{0}));
  EXPECT_TRUE(r.probe(BlockId{3}));
  r.fill(BlockId{4});  // maps to slot 0, evicts block 0
  EXPECT_FALSE(r.probe(BlockId{0}));
  EXPECT_TRUE(r.probe(BlockId{4}));
  EXPECT_TRUE(r.probe(BlockId{1}));
}

TEST(Rac, InvalidatePageClearsAllPageBlocks) {
  MachineConfig cfg;
  cfg.rac_bytes = ByteCount{64 * 128};  // 64 entries: a full page (32 blocks) plus room
  Rac r(cfg);
  const BlockId first = cfg.first_block_of_page(VPageId{2});  // page 2
  for (std::uint32_t i = 0; i < cfg.blocks_per_page(); ++i) r.fill(first + i);
  EXPECT_EQ(r.invalidate_page(VPageId{2}), cfg.blocks_per_page());
  for (std::uint32_t i = 0; i < cfg.blocks_per_page(); ++i)
    EXPECT_FALSE(r.probe(first + i));
}

TEST(Rac, InvalidatePageWithFewerSlotsThanBlocks) {
  MachineConfig cfg;  // default: 1 entry, 32 blocks per page
  Rac r(cfg);
  const BlockId first = cfg.first_block_of_page(VPageId{3});
  const BlockId other = cfg.first_block_of_page(VPageId{4});  // next page
  r.fill(other);
  EXPECT_EQ(r.invalidate_page(VPageId{3}), 0u);
  EXPECT_TRUE(r.probe(other));  // a block of another page stays resident
  r.fill(first + 17);
  EXPECT_EQ(r.invalidate_page(VPageId{3}), 1u);
  EXPECT_FALSE(r.probe(first + 17));
  EXPECT_EQ(r.invalidate_page(VPageId{3}), 0u);

  cfg.rac_bytes = ByteCount{4 * 128};  // 4 slots, still fewer than 32
  Rac r4(cfg);
  r4.fill(first + 1);
  r4.fill(first + 2);
  r4.fill(other + 3);
  EXPECT_EQ(r4.invalidate_page(VPageId{3}), 2u);
  EXPECT_FALSE(r4.probe(first + 1));
  EXPECT_FALSE(r4.probe(first + 2));
  EXPECT_TRUE(r4.probe(other + 3));
}

TEST(Rac, HitCounter) {
  MachineConfig cfg;
  Rac r(cfg);
  r.fill(BlockId{5});
  r.note_hit();
  r.note_hit();
  EXPECT_EQ(r.hits(), 2u);
  EXPECT_TRUE(r.probe(BlockId{5}));  // counting hits leaves the slot alone
}

}  // namespace
}  // namespace ascoma::mem
