#include "sim/smp/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace archgraph::sim {
namespace {

TEST(Cache, MissThenHit) {
  Cache c(1024, 64, 1);
  EXPECT_FALSE(c.access(5, false).hit);
  EXPECT_TRUE(c.access(5, false).hit);
  EXPECT_TRUE(c.contains(5));
  EXPECT_FALSE(c.contains(6));
}

TEST(Cache, LineOfUsesBytes) {
  Cache c(1024, 64, 1);
  // 64-byte lines hold 8 words.
  EXPECT_EQ(c.line_of(0), 0u);
  EXPECT_EQ(c.line_of(7), 0u);
  EXPECT_EQ(c.line_of(8), 1u);
}

TEST(Cache, DirectMappedConflictEvicts) {
  Cache c(1024, 64, 1);  // 16 sets
  c.access(0, false);
  const auto r = c.access(16, false);  // same set (16 % 16 == 0)
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(16));
}

TEST(Cache, AssociativityAvoidsConflict) {
  Cache c(1024, 64, 2);  // 8 sets, 2 ways
  c.access(0, false);
  c.access(8, false);  // same set, second way
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(8));
  const auto r = c.access(16, false);  // evicts LRU (line 0)
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 0u);
  EXPECT_TRUE(c.contains(8));
}

TEST(Cache, LruIsUpdatedByHits) {
  Cache c(1024, 64, 2);  // 8 sets
  c.access(0, false);
  c.access(8, false);
  c.access(0, false);  // touch 0: now 8 is LRU
  const auto r = c.access(16, false);
  EXPECT_EQ(r.evicted_line, 8u);
  EXPECT_TRUE(c.contains(0));
}

TEST(Cache, DirtyTrackingThroughEviction) {
  Cache c(1024, 64, 1);
  c.access(3, true);  // dirty fill
  const auto r = c.access(3 + 16, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  const auto r2 = c.access(3 + 32, false);  // evicts the clean line
  EXPECT_TRUE(r2.evicted);
  EXPECT_FALSE(r2.evicted_dirty);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(1024, 64, 1);
  c.access(4, false);           // clean fill
  c.access(4, true);            // write hit: now dirty
  const auto r = c.access(20, false);
  EXPECT_TRUE(r.evicted_dirty);
}

TEST(Cache, InvalidateReportsDirtiness) {
  Cache c(1024, 64, 1);
  c.access(2, true);
  EXPECT_TRUE(c.invalidate(2));
  EXPECT_FALSE(c.contains(2));
  EXPECT_FALSE(c.invalidate(2));  // already gone
  c.access(2, false);
  EXPECT_FALSE(c.invalidate(2));  // present but clean
}

TEST(Cache, ClearDropsEverything) {
  Cache c(1024, 64, 4);
  for (u64 line = 0; line < 16; ++line) {
    c.access(line, true);
  }
  c.clear();
  for (u64 line = 0; line < 16; ++line) {
    EXPECT_FALSE(c.contains(line));
  }
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(1000, 48, 1), std::logic_error);   // non-power-of-two line
  EXPECT_THROW(Cache(100, 64, 1), std::logic_error);    // size not divisible
  EXPECT_THROW(Cache(1024, 64, 0), std::logic_error);   // zero ways
  EXPECT_THROW(Cache(1024, 4, 1), std::logic_error);    // line < word
}

TEST(Cache, FullyAssociativeSingleSet) {
  Cache c(256, 64, 4);  // exactly one set of 4 ways
  c.access(100, false);
  c.access(200, false);
  c.access(300, false);
  c.access(400, false);
  EXPECT_TRUE(c.contains(100));
  const auto r = c.access(500, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 100u);  // LRU
}

/// Evicted lines, in order, of a fixed access pattern on set 0 of a
/// `ways`-way cache: fill the set (dirtying the ways `dirty_mask` selects),
/// re-read every line in reverse fill order, then stream `ways` new lines
/// through the set. Checks each victim's dirty bit against the mask.
std::vector<u64> victims_of_pattern(u32 ways, u32 dirty_mask) {
  Cache c(64 * ways * 4, 64, ways);  // 4 sets: lines 0, 4, 8, ... share set 0
  for (u64 k = 0; k < ways; ++k) {
    EXPECT_FALSE(c.access(4 * k, ((dirty_mask >> k) & 1) != 0).hit);
  }
  for (u64 k = ways; k-- > 0;) {
    EXPECT_TRUE(c.access(4 * k, false).hit);  // read hit keeps the dirty bit
  }
  std::vector<u64> victims;
  for (u64 k = 0; k < ways; ++k) {
    const auto r = c.access(4 * (ways + k), false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted);
    const u64 old_k = r.evicted_line / 4;
    EXPECT_EQ(r.evicted_dirty, ((dirty_mask >> old_k) & 1) != 0)
        << "ways=" << ways << " line=" << r.evicted_line;
    victims.push_back(r.evicted_line);
  }
  return victims;
}

TEST(Cache, DirtyBitSurvivesReadHitsAndNeverSteersTheVictim) {
  for (const u32 ways : {2u, 4u}) {
    // The reverse re-read leaves way 0's line most recent, so LRU victims
    // run from the last-filled line back to the first.
    std::vector<u64> lru_order;
    for (u64 k = ways; k-- > 0;) lru_order.push_back(4 * k);
    for (u32 mask = 0; mask < (1u << ways); ++mask) {
      EXPECT_EQ(victims_of_pattern(ways, mask), lru_order)
          << "ways=" << ways << " dirty mask=" << mask;
    }
  }
}

TEST(Cache, InvalidateReportsDirtyLinesAfterReadHits) {
  for (const u32 ways : {2u, 4u}) {
    Cache c(64 * ways * 4, 64, ways);
    for (u64 k = 0; k < ways; ++k) {
      c.access(4 * k, k % 2 == 1);
    }
    for (int rep = 0; rep < 3; ++rep) {
      for (u64 k = 0; k < ways; ++k) {
        EXPECT_TRUE(c.access(4 * k, false).hit);
      }
    }
    for (u64 k = 0; k < ways; ++k) {
      EXPECT_EQ(c.invalidate(4 * k), k % 2 == 1) << "ways=" << ways;
      EXPECT_FALSE(c.contains(4 * k));
    }
    // Invalidated ways are refilled before any valid way is evicted.
    for (u64 k = 0; k < ways; ++k) {
      EXPECT_FALSE(c.access(4 * (ways + k), true).evicted);
    }
  }
}

}  // namespace
}  // namespace archgraph::sim
