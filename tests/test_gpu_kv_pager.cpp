// KvPager unit tests (DESIGN.md §14) — the deterministic edge cases the
// property suite (tests/prop/prop_kv_pager.cpp) sweeps past: exact page
// arithmetic, lowest-index hand-out order, all-or-nothing grow, copy-free
// preemption, watermark admission and error contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpu/kv_pager.hpp"
#include "util/error.hpp"

namespace faaspart::gpu {
namespace {

KvPagerConfig small_pool() {
  KvPagerConfig cfg;
  cfg.page_tokens = 16;
  cfg.bytes_per_token = 1024;
  cfg.capacity = 10 * 16 * 1024;  // exactly 10 pages
  cfg.admit_watermark = 0.80;     // watermark at 8 pages
  return cfg;
}

TEST(KvPager, PageArithmetic) {
  KvPager pager(small_pool());
  EXPECT_EQ(pager.total_pages(), 10);
  EXPECT_EQ(pager.free_pages(), 10);
  EXPECT_EQ(pager.used_pages(), 0);
  EXPECT_EQ(pager.page_bytes(), 16 * 1024);
  EXPECT_EQ(pager.pages_for_tokens(0), 0);
  EXPECT_EQ(pager.pages_for_tokens(1), 1);
  EXPECT_EQ(pager.pages_for_tokens(16), 1);
  EXPECT_EQ(pager.pages_for_tokens(17), 2);
  EXPECT_THROW((void)pager.pages_for_tokens(-1), util::Error);
}

TEST(KvPager, LowestIndexFirstHandOut) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  const KvSeqId b = pager.create();
  ASSERT_TRUE(pager.grow(a, 33));  // 3 pages
  ASSERT_TRUE(pager.grow(b, 16));  // 1 page
  EXPECT_EQ(pager.page_table(a), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pager.page_table(b), (std::vector<int>{3}));
  // Free a's pages; the next taker gets the released low indices first.
  pager.release(a);
  const KvSeqId c = pager.create();
  ASSERT_TRUE(pager.grow(c, 17));
  EXPECT_EQ(pager.page_table(c), (std::vector<int>{0, 1}));
  EXPECT_EQ(pager.bytes_in_use(), 3 * pager.page_bytes());
}

TEST(KvPager, GrowIsAllOrNothing) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  ASSERT_TRUE(pager.grow(a, 8 * 16));  // 8 pages
  const KvSeqId b = pager.create();
  EXPECT_FALSE(pager.grow(b, 3 * 16));  // needs 3, only 2 free
  EXPECT_EQ(pager.page_table(b).size(), 0u);  // nothing partially granted
  EXPECT_EQ(pager.free_pages(), 2);
  EXPECT_EQ(pager.stats().grow_failures, 1u);
  EXPECT_TRUE(pager.grow(b, 2 * 16));  // exactly the remainder fits
  EXPECT_EQ(pager.free_pages(), 0);
}

TEST(KvPager, GrowToFewerTokensIsANoOp) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  ASSERT_TRUE(pager.grow(a, 40));  // 3 pages
  const auto before = pager.page_table(a);
  EXPECT_TRUE(pager.grow(a, 10));  // shrink request: succeeds, returns nothing
  EXPECT_EQ(pager.page_table(a), before);
  EXPECT_EQ(pager.tokens_of(a), 40);
}

TEST(KvPager, PreemptIsCopyFreeAndKeepsTheSequence) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  ASSERT_TRUE(pager.grow(a, 50));  // 4 pages
  EXPECT_EQ(pager.preempt(a), 4);
  EXPECT_TRUE(pager.live(a));
  EXPECT_EQ(pager.tokens_of(a), 0);
  EXPECT_EQ(pager.page_table(a).size(), 0u);
  EXPECT_EQ(pager.free_pages(), 10);
  EXPECT_EQ(pager.stats().preemptions, 1u);
  // The sequence can be rebuilt in place (recompute on re-admission).
  EXPECT_TRUE(pager.grow(a, 50));
  EXPECT_EQ(pager.tokens_of(a), 50);
}

TEST(KvPager, WatermarkGatesAdmissionButNotGrowth) {
  KvPager pager(small_pool());  // watermark: 8 of 10 pages
  EXPECT_TRUE(pager.can_admit(8 * 16));
  EXPECT_FALSE(pager.can_admit(9 * 16));
  EXPECT_FALSE(pager.can_ever_admit(9 * 16));
  const KvSeqId a = pager.create();
  ASSERT_TRUE(pager.grow(a, 7 * 16));
  EXPECT_TRUE(pager.can_admit(16));
  EXPECT_FALSE(pager.can_admit(2 * 16));      // would pass the watermark...
  EXPECT_TRUE(pager.can_ever_admit(2 * 16));  // ...but fits an empty pool
  // Growth for running sequences may use the reserved headroom.
  EXPECT_TRUE(pager.grow(a, 10 * 16));
  EXPECT_EQ(pager.free_pages(), 0);
}

TEST(KvPager, ReleaseErrorsOnUnknownAndDoubleRelease) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  ASSERT_TRUE(pager.grow(a, 16));
  pager.release(a);
  EXPECT_FALSE(pager.live(a));
  EXPECT_THROW(pager.release(a), util::NotFoundError);
  EXPECT_THROW(pager.preempt(a), util::NotFoundError);
  EXPECT_THROW((void)pager.tokens_of(a), util::NotFoundError);
  EXPECT_THROW((void)pager.page_table(a), util::NotFoundError);
}

TEST(KvPager, StatsTrackPeakAndCumulativeGrants) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  const KvSeqId b = pager.create();
  ASSERT_TRUE(pager.grow(a, 4 * 16));
  ASSERT_TRUE(pager.grow(b, 3 * 16));
  pager.release(a);
  ASSERT_TRUE(pager.grow(b, 5 * 16));
  EXPECT_EQ(pager.stats().sequences_created, 2u);
  EXPECT_EQ(pager.stats().pages_allocated, 4u + 3u + 2u);
  EXPECT_EQ(pager.stats().peak_pages_in_use, 7);
  EXPECT_EQ(pager.sequence_ids(), (std::vector<KvSeqId>{b}));
}

TEST(KvPager, ZeroCapacityPoolAdmitsNothing) {
  KvPagerConfig cfg = small_pool();
  cfg.capacity = 0;
  KvPager pager(cfg);
  EXPECT_EQ(pager.total_pages(), 0);
  EXPECT_FALSE(pager.can_ever_admit(1));
  const KvSeqId a = pager.create();
  EXPECT_FALSE(pager.grow(a, 1));
  EXPECT_TRUE(pager.grow(a, 0));  // an empty context needs no pages
}

KvPagerConfig pool_of(int pages) {
  KvPagerConfig cfg;
  cfg.page_tokens = 1;
  cfg.bytes_per_token = 1;
  cfg.capacity = pages;
  return cfg;
}

// Free pages sit in a bitmap of 64-page words; pools at and around the word
// boundaries must still hand out 0, 1, 2, ... and conserve pages.
TEST(KvPager, BitmapWordBoundaryPools) {
  for (const int pages : {0, 1, 63, 64, 65, 129}) {
    SCOPED_TRACE(pages);
    KvPager pager(pool_of(pages));
    ASSERT_EQ(pager.total_pages(), pages);
    ASSERT_EQ(pager.free_pages(), pages);

    // One page at a time: strictly ascending indices.
    std::vector<KvSeqId> ids;
    for (int p = 0; p < pages; ++p) {
      const KvSeqId id = pager.create();
      ASSERT_TRUE(pager.grow(id, 1));
      EXPECT_EQ(pager.page_table(id), (std::vector<int>{p}));
      EXPECT_EQ(pager.free_pages() + pager.used_pages(), pages);
      ids.push_back(id);
    }
    EXPECT_EQ(pager.free_pages(), 0);
    const KvSeqId overflow = pager.create();
    EXPECT_FALSE(pager.grow(overflow, 1));
    pager.release(overflow);

    // Free every other page, highest first; a single grow then takes the
    // holes back lowest-first, across word boundaries.
    std::vector<int> holes;
    for (int p = pages - 1; p >= 0; p -= 2) {
      pager.release(ids[static_cast<std::size_t>(p)]);
      holes.push_back(p);
    }
    std::sort(holes.begin(), holes.end());
    EXPECT_EQ(pager.free_pages(), static_cast<int>(holes.size()));
    const KvSeqId big = pager.create();
    ASSERT_TRUE(pager.grow(big, static_cast<int>(holes.size())));
    EXPECT_EQ(pager.page_table(big), holes);
    EXPECT_EQ(pager.free_pages(), 0);
    EXPECT_EQ(pager.used_pages(), pages);

    // Everything back: the pool is whole again and refills from page 0.
    for (const KvSeqId id : pager.sequence_ids()) pager.release(id);
    EXPECT_EQ(pager.free_pages(), pages);
    EXPECT_EQ(pager.live_sequences(), 0u);
    const KvSeqId all = pager.create();
    ASSERT_TRUE(pager.grow(all, pages));
    for (int p = 0; p < pages; ++p) {
      EXPECT_EQ(pager.page_table(all)[static_cast<std::size_t>(p)], p);
    }
  }
}

// Released ids are dead for good: reusing their slot for a new sequence
// must not bring them back or let them reach the new sequence's state.
TEST(KvPager, StaleIdNeverAliasesItsSlotsNewOwner) {
  KvPager pager(small_pool());
  const KvSeqId old_id = pager.create();
  ASSERT_TRUE(pager.grow(old_id, 2 * 16));
  pager.release(old_id);
  const KvSeqId fresh = pager.create();  // reuses the released slot
  EXPECT_NE(fresh, old_id);
  EXPECT_NE(fresh, 0u);
  ASSERT_TRUE(pager.grow(fresh, 3 * 16));

  EXPECT_FALSE(pager.live(old_id));
  EXPECT_THROW((void)pager.tokens_of(old_id), util::NotFoundError);
  EXPECT_THROW((void)pager.page_table(old_id), util::NotFoundError);
  EXPECT_THROW(pager.grow(old_id, 16), util::NotFoundError);
  EXPECT_THROW(pager.preempt(old_id), util::NotFoundError);
  EXPECT_THROW(pager.release(old_id), util::NotFoundError);

  // None of that touched the slot's new owner.
  EXPECT_TRUE(pager.live(fresh));
  EXPECT_EQ(pager.tokens_of(fresh), 3 * 16);
  EXPECT_EQ(pager.page_table(fresh), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(pager.free_pages(), 7);
  EXPECT_EQ(pager.stats().preemptions, 0u);

  // Ids that were never issued are unknown too.
  EXPECT_FALSE(pager.live(0));
  EXPECT_FALSE(pager.live(fresh + 1));
  EXPECT_FALSE(pager.live(fresh + (KvSeqId{1} << 32)));
  EXPECT_THROW((void)pager.tokens_of(0), util::NotFoundError);
}

TEST(KvPager, SequenceIdsStayInCreationOrderAcrossSlotReuse) {
  KvPager pager(small_pool());
  const KvSeqId a = pager.create();
  const KvSeqId b = pager.create();
  const KvSeqId c = pager.create();
  pager.release(a);
  pager.release(c);
  const KvSeqId d = pager.create();  // takes c's slot (after b's)
  const KvSeqId e = pager.create();  // takes a's slot (before b's)
  const KvSeqId f = pager.create();  // a new slot
  EXPECT_EQ(pager.sequence_ids(), (std::vector<KvSeqId>{b, d, e, f}));
  pager.release(d);
  EXPECT_EQ(pager.sequence_ids(), (std::vector<KvSeqId>{b, e, f}));
  EXPECT_EQ(pager.live_sequences(), 3u);
  EXPECT_EQ(pager.stats().sequences_created, 6u);
}

}  // namespace
}  // namespace faaspart::gpu
