#include "mem/cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/check.hh"
#include "common/rng.hh"

namespace ascoma::mem {
namespace {

MachineConfig small_cfg() {
  MachineConfig cfg;  // 16 KB / 32 B lines = 512 lines, direct-mapped
  return cfg;
}

TEST(L1Cache, MissThenFillThenHit) {
  L1Cache c(small_cfg());
  EXPECT_FALSE(c.probe(LineId{100}));
  c.fill(LineId{100}, false);
  EXPECT_TRUE(c.probe(LineId{100}));
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(L1Cache, DirectMappedConflictEvicts) {
  L1Cache c(small_cfg());
  const LineId a{7};
  const LineId b{7 + 512};  // same index
  c.fill(a, false);
  const auto r = c.fill(b, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, a);
  EXPECT_FALSE(r.writeback);  // clean victim
  EXPECT_FALSE(c.probe(a));
  EXPECT_TRUE(c.probe(b));
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(L1Cache, DirtyVictimSignalsWriteback) {
  L1Cache c(small_cfg());
  c.fill(LineId{7}, true);
  EXPECT_TRUE(c.line_dirty(LineId{7}));
  const auto r = c.fill(LineId{7 + 512}, false);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim, LineId{7});
}

TEST(L1Cache, RefillKeepsDirtySticky) {
  L1Cache c(small_cfg());
  c.fill(LineId{9}, true);
  const auto r = c.fill(LineId{9}, false);  // refill same line, clean
  EXPECT_FALSE(r.evicted);
  EXPECT_TRUE(c.line_dirty(LineId{9}));  // dirty bit preserved
}

TEST(L1Cache, TouchStoreMarksDirty) {
  L1Cache c(small_cfg());
  c.fill(LineId{11}, false);
  EXPECT_FALSE(c.line_dirty(LineId{11}));
  c.touch_store(LineId{11});
  EXPECT_TRUE(c.line_dirty(LineId{11}));
}

TEST(L1Cache, TouchStoreOnAbsentLineThrows) {
  L1Cache c(small_cfg());
  EXPECT_THROW(c.touch_store(LineId{13}), ascoma::CheckFailure);
}

TEST(L1Cache, InvalidateLine) {
  L1Cache c(small_cfg());
  c.fill(LineId{5}, true);
  EXPECT_TRUE(c.invalidate_line(LineId{5}));
  EXPECT_FALSE(c.probe(LineId{5}));
  EXPECT_FALSE(c.invalidate_line(LineId{5}));  // already gone
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(L1Cache, InvalidateLineChecksTagNotJustIndex) {
  L1Cache c(small_cfg());
  c.fill(LineId{5}, false);
  EXPECT_FALSE(c.invalidate_line(LineId{5 + 512}));  // same slot, different tag
  EXPECT_TRUE(c.probe(LineId{5}));
}

TEST(L1Cache, InvalidateBlockCoversFourLines) {
  MachineConfig cfg = small_cfg();
  L1Cache c(cfg);
  const BlockId block{10};
  const LineId first = cfg.first_line_of_block(block);
  for (std::uint32_t i = 0; i < 4; ++i) c.fill(first + i, false);
  EXPECT_EQ(c.invalidate_block(block), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_FALSE(c.probe(first + i));
}

TEST(L1Cache, FlushBlockCountsValidAndDirty) {
  MachineConfig cfg = small_cfg();
  L1Cache c(cfg);
  const BlockId block{9};
  const LineId first = cfg.first_line_of_block(block);
  // 4 lines per block: fill 3 of them, 2 dirty, plus a line of the next block.
  for (std::uint32_t i = 0; i < 3; ++i) c.fill(first + i, i < 2);
  c.fill(first + 4, true);
  const auto r = c.flush_block(block);
  EXPECT_EQ(r.valid_lines, 3u);
  EXPECT_EQ(r.dirty_lines, 2u);
  EXPECT_EQ(c.valid_lines(), 1u);
  EXPECT_TRUE(c.probe(first + 4));
}

TEST(L1Cache, FlushBlockIgnoresOtherBlocksInSameSlots) {
  MachineConfig cfg = small_cfg();
  L1Cache c(cfg);
  // Block 0 and block 128 share L1 slots (512 lines = 128 blocks).
  c.fill(LineId{0}, false);
  const auto r = c.flush_block(BlockId{128});  // different block, same slots
  EXPECT_EQ(r.valid_lines, 0u);
  EXPECT_TRUE(c.probe(LineId{0}));
}

TEST(L1Cache, CapacityMatchesConfig) {
  L1Cache c(small_cfg());
  EXPECT_EQ(c.num_lines(), 512u);
  // Fill more lines than capacity: valid count saturates at capacity.
  for (LineId l{0}; l.value() < 1000; ++l) c.fill(l, false);
  EXPECT_LE(c.valid_lines(), 512u);
}


/// Naive reference for a direct-mapped write-back cache: resident line id
/// -> dirty, with the slot conflict found by searching the whole map.
class RefCache {
 public:
  explicit RefCache(std::uint32_t num_lines) : mask_(num_lines - 1) {}

  L1Cache::AccessResult fill(std::uint64_t line, bool dirty) {
    L1Cache::AccessResult r;
    for (auto it = lines_.begin(); it != lines_.end(); ++it) {
      if ((it->first & mask_) != (line & mask_)) continue;
      if (it->first == line) {
        it->second = it->second || dirty;
        return r;
      }
      r.evicted = true;
      r.victim = LineId{it->first};
      r.writeback = it->second;
      lines_.erase(it);
      break;
    }
    lines_[line] = dirty;
    return r;
  }
  bool present(std::uint64_t line) const { return lines_.count(line) != 0; }
  void store(std::uint64_t line) { lines_.at(line) = true; }
  bool invalidate(std::uint64_t line) { return lines_.erase(line) != 0; }
  /// Removes every line in [first, first + n); returns (valid, dirty).
  std::pair<std::uint32_t, std::uint32_t> remove_range(std::uint64_t first,
                                                       std::uint64_t n) {
    std::uint32_t valid = 0;
    std::uint32_t dirty = 0;
    for (auto it = lines_.lower_bound(first);
         it != lines_.end() && it->first < first + n;) {
      ++valid;
      dirty += it->second ? 1 : 0;
      it = lines_.erase(it);
    }
    return {valid, dirty};
  }
  bool dirty(std::uint64_t line) const {
    const auto it = lines_.find(line);
    return it != lines_.end() && it->second;
  }
  std::vector<LineId> ids() const {
    std::vector<LineId> out;
    for (const auto& [line, d] : lines_) out.push_back(LineId{line});
    return out;
  }
  std::uint32_t size() const { return static_cast<std::uint32_t>(lines_.size()); }

 private:
  std::uint64_t mask_;
  std::map<std::uint64_t, bool> lines_;
};

void check_flush_matches_reference(ByteCount l1_bytes, std::uint64_t seed) {
  MachineConfig cfg = small_cfg();
  cfg.l1_bytes = l1_bytes;
  L1Cache c(cfg);
  RefCache ref(cfg.l1_lines());
  Rng rng(seed);
  const std::uint64_t pages = 6;
  const std::uint64_t lpp = cfg.lines_per_page();
  const std::uint64_t lpb = cfg.lines_per_block();
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t line = rng.below(pages * lpp);
    const std::uint64_t op = rng.below(100);
    if (op < 55) {
      const bool dirty = rng.chance(0.3);
      const auto got = c.fill(LineId{line}, dirty);
      const auto want = ref.fill(line, dirty);
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
      if (want.evicted) {
        ASSERT_EQ(got.victim, want.victim) << "step " << step;
        ASSERT_EQ(got.writeback, want.writeback) << "step " << step;
      }
    } else if (op < 65) {
      if (ref.present(line)) {
        c.touch_store(LineId{line});
        ref.store(line);
      }
    } else if (op < 80) {
      ASSERT_EQ(c.invalidate_line(LineId{line}), ref.invalidate(line))
          << "step " << step;
    } else if (op < 88) {
      const BlockId block{line / lpb};
      ASSERT_EQ(c.invalidate_block(block),
                ref.remove_range(block.value() * lpb, lpb).first)
          << "step " << step;
    } else {
      const BlockId block{line / lpb};
      const auto got = c.flush_block(block);
      const auto [valid, dirty] = ref.remove_range(block.value() * lpb, lpb);
      ASSERT_EQ(got.valid_lines, valid) << "step " << step;
      ASSERT_EQ(got.dirty_lines, dirty) << "step " << step;
    }
    ASSERT_EQ(c.valid_lines(), ref.size()) << "step " << step;
    ASSERT_EQ(c.probe(LineId{line}), ref.present(line)) << "step " << step;
    ASSERT_EQ(c.line_dirty(LineId{line}), ref.dirty(line)) << "step " << step;
    if (step % 97 == 0) {
      auto ids = c.valid_line_ids();
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids, ref.ids()) << "step " << step;
      for (std::uint64_t l = 0; l < pages * lpp; ++l)
        ASSERT_EQ(c.line_dirty(LineId{l}), ref.dirty(l)) << "line " << l;
    }
  }
}

TEST(L1Cache, FlushMatchesReferenceModel) {
  // 16 KB holds four 4 KB pages; at 2 KB, half a page, every block of a page
  // shares its slots with a block of the page's other half.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    check_flush_matches_reference(ByteCount{16 * 1024}, seed);
    check_flush_matches_reference(ByteCount{2 * 1024}, seed);
  }
}

TEST(L1Cache, CheckpointRoundTripAfterInvalidations) {
  MachineConfig cfg = small_cfg();
  L1Cache c(cfg);
  for (LineId l{0}; l.value() < 300; ++l) c.fill(l, l.value() % 3 == 0);
  for (LineId l{0}; l.value() < 300; l = l + 7) c.invalidate_line(l);
  for (BlockId b{32}; b.value() < 64; ++b) c.flush_block(b);  // page 1
  c.invalidate_block(BlockId{2});

  store::Encoder e;
  c.encode(e);
  L1Cache back(cfg);
  back.fill(LineId{400}, true);  // state the decode must overwrite
  store::Decoder d(e.bytes());
  back.decode(d);
  EXPECT_EQ(back.valid_lines(), c.valid_lines());
  EXPECT_EQ(back.valid_line_ids(), c.valid_line_ids());
  for (LineId l{0}; l.value() < 1024; ++l) {
    EXPECT_EQ(back.probe(l), c.probe(l)) << l.value();
    EXPECT_EQ(back.line_dirty(l), c.line_dirty(l)) << l.value();
  }
  // Re-encoding the restored cache gives the same bytes (empty slots as 0).
  store::Encoder again;
  back.encode(again);
  EXPECT_EQ(again.bytes(), e.bytes());
  // An invalidated slot holds no tag: line 0 was invalidated, so neither it
  // nor a line that shares its slot may probe as present.
  EXPECT_FALSE(back.probe(LineId{0}));
  EXPECT_FALSE(back.probe(LineId{512}));
}

TEST(L1Cache, DecodeRejectsInconsistentSlots) {
  MachineConfig cfg = small_cfg();
  L1Cache c(cfg);
  store::Encoder e;
  c.encode(e);
  // Slot 0 starts after the u64 slot count: tag (8 B), valid, dirty.
  std::vector<std::uint8_t> wrong_slot = e.bytes();
  wrong_slot[8] = 1;       // tag 1 belongs in slot 1, not slot 0
  wrong_slot[8 + 8] = 1;   // valid
  store::Decoder d1(wrong_slot);
  L1Cache back(cfg);
  EXPECT_THROW(back.decode(d1), store::CodecError);

  // The trailing valid-line count must agree with the slots.
  std::vector<std::uint8_t> wrong_count = e.bytes();
  wrong_count[wrong_count.size() - 4] = 1;
  store::Decoder d2(wrong_count);
  EXPECT_THROW(back.decode(d2), store::CodecError);
}

}  // namespace
}  // namespace ascoma::mem
