/**
 * @file
 * Tests for the set-associative cache: orientation-aware tag match,
 * LRU replacement, pinning, crossing-bit storage, directory sharer
 * masks, and the synonym crossing geometry of Figure 8.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/cache.hh"
#include "cache/synonym.hh"
#include "mem/geometry.hh"

namespace rcnvm::cache {
namespace {

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = 2 * 1024; // 4 sets x 8 ways x 64 B
    cfg.ways = 8;
    return cfg;
}

TEST(CacheTest, MissThenHit)
{
    Cache cache(tinyConfig());
    const LineKey key{0x1000, Orientation::Row};
    EXPECT_EQ(cache.find(key), nullptr);
    cache.insert(key, MesiState::Exclusive);
    ASSERT_NE(cache.find(key), nullptr);
    EXPECT_EQ(cache.find(key)->state, MesiState::Exclusive);
}

TEST(CacheTest, OrientationDistinguishesLines)
{
    // The orientation bit is part of the line identity (Sec. 4.3.1).
    Cache cache(tinyConfig());
    cache.insert(LineKey{0x1000, Orientation::Row},
                 MesiState::Modified);
    EXPECT_EQ(cache.find(LineKey{0x1000, Orientation::Column}),
              nullptr);
    cache.insert(LineKey{0x1000, Orientation::Column},
                 MesiState::Shared);
    EXPECT_EQ(cache.find(LineKey{0x1000, Orientation::Row})->state,
              MesiState::Modified);
    EXPECT_EQ(
        cache.find(LineKey{0x1000, Orientation::Column})->state,
        MesiState::Shared);
    EXPECT_EQ(cache.rowLines(), 1u);
    EXPECT_EQ(cache.columnLines(), 1u);
}

TEST(CacheTest, ReinsertUpdatesStateWithoutVictim)
{
    Cache cache(tinyConfig());
    const LineKey key{0x40, Orientation::Row};
    cache.insert(key, MesiState::Shared);
    const auto victim = cache.insert(key, MesiState::Modified);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(cache.find(key)->state, MesiState::Modified);
    EXPECT_EQ(cache.rowLines(), 1u);
}

TEST(CacheTest, LruEvictionPicksOldest)
{
    Cache cache(tinyConfig()); // 4 sets, 8 ways
    // Fill one set (set 0: addresses multiple of 4*64=256).
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    // Touch line 0 so line 1 becomes LRU.
    cache.find(LineKey{0, Orientation::Row});
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 256u);
}

TEST(CacheTest, EvictionReportsStateAndCrossing)
{
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    CacheLine *line = cache.find(LineKey{0, Orientation::Row});
    line->state = MesiState::Modified;
    line->crossing = 0xa5;
    // Evict everything else first so line 0 stays, then force a
    // conflict eviction of the oldest line (line 1 after touch).
    for (unsigned i = 1; i < 8; ++i)
        cache.find(LineKey{Addr{i} * 256, Orientation::Row});
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 0u);
    EXPECT_EQ(victim->state, MesiState::Modified);
    EXPECT_EQ(victim->crossing, 0xa5);
}

TEST(CacheTest, PinnedLinesSurviveEviction)
{
    Cache cache(tinyConfig());
    cache.insert(LineKey{0, Orientation::Row}, MesiState::Shared);
    EXPECT_TRUE(cache.setPinned(LineKey{0, Orientation::Row}, true));
    for (unsigned i = 1; i <= 16; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    EXPECT_NE(cache.find(LineKey{0, Orientation::Row}), nullptr);
    EXPECT_EQ(cache.pinnedEvictions(), 0u);
}

TEST(CacheTest, FullyPinnedSetFallsBackAndCounts)
{
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        const LineKey key{Addr{i} * 256, Orientation::Row};
        cache.insert(key, MesiState::Shared);
        cache.setPinned(key, true);
    }
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    EXPECT_TRUE(victim.has_value());
    EXPECT_EQ(cache.pinnedEvictions(), 1u);
}

TEST(CacheTest, UnpinAllowsEviction)
{
    Cache cache(tinyConfig());
    const LineKey key{0, Orientation::Row};
    cache.insert(key, MesiState::Shared);
    cache.setPinned(key, true);
    cache.setPinned(key, false);
    for (unsigned i = 1; i <= 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    EXPECT_EQ(cache.find(key), nullptr);
}

TEST(CacheTest, SetPinnedOnMissingLineFails)
{
    Cache cache(tinyConfig());
    EXPECT_FALSE(
        cache.setPinned(LineKey{0x40, Orientation::Row}, true));
}

TEST(CacheTest, InvalidateRemovesAndReports)
{
    Cache cache(tinyConfig());
    const LineKey key{0x80, Orientation::Column};
    cache.insert(key, MesiState::Modified);
    const auto victim = cache.invalidate(key);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->state, MesiState::Modified);
    EXPECT_EQ(cache.find(key), nullptr);
    EXPECT_EQ(cache.columnLines(), 0u);
    EXPECT_FALSE(cache.invalidate(key).has_value());
}

TEST(CacheTest, ProbeDoesNotTouchLru)
{
    Cache cache(tinyConfig());
    for (unsigned i = 0; i < 8; ++i) {
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared);
    }
    // Probing line 0 must NOT protect it from LRU eviction.
    EXPECT_NE(cache.probe(LineKey{0, Orientation::Row}), nullptr);
    const auto victim = cache.insert(LineKey{8 * 256,
                                             Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 0u);
}

TEST(CacheTest, ResetDropsEverything)
{
    Cache cache(tinyConfig());
    cache.insert(LineKey{0x40, Orientation::Row}, MesiState::Shared);
    cache.insert(LineKey{0x80, Orientation::Column},
                 MesiState::Shared);
    cache.reset();
    EXPECT_EQ(cache.find(LineKey{0x40, Orientation::Row}), nullptr);
    EXPECT_EQ(cache.rowLines(), 0u);
    EXPECT_EQ(cache.columnLines(), 0u);
}

// ---------------------------------------------------------------
// Directory sharer masks (kept by the shared L3 only)
// ---------------------------------------------------------------

TEST(SharerMaskTest, NewLineStartsWithEmptyMask)
{
    Cache cache(tinyConfig(), /*directory=*/true);
    // Fill one set, give every line a mask, then force each way to be
    // recycled: the newcomer must not inherit its slot's old mask.
    for (unsigned i = 0; i < 8; ++i) {
        CacheLine *line = nullptr;
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared, &line);
        ASSERT_NE(line, nullptr);
        EXPECT_EQ(cache.sharers(*line), 0u);
        cache.sharers(*line) = 0xffu;
    }
    for (unsigned i = 8; i < 16; ++i) {
        CacheLine *line = nullptr;
        const auto victim = cache.insert(
            LineKey{Addr{i} * 256, Orientation::Row},
            MesiState::Shared, &line);
        ASSERT_TRUE(victim.has_value());
        EXPECT_EQ(cache.sharers(*line), 0u);
    }
    // A reset orphans lines in place; their slots start empty too.
    cache.sharers(*cache.find(LineKey{8 * 256, Orientation::Row})) = 3;
    cache.reset();
    CacheLine *line = nullptr;
    cache.insert(LineKey{0, Orientation::Row}, MesiState::Shared, &line);
    EXPECT_EQ(cache.sharers(*line), 0u);
}

TEST(SharerMaskTest, VictimReportsItsMask)
{
    Cache cache(tinyConfig(), /*directory=*/true);
    for (unsigned i = 0; i < 8; ++i) {
        CacheLine *line = nullptr;
        cache.insert(LineKey{Addr{i} * 256, Orientation::Row},
                     MesiState::Shared, &line);
        cache.sharers(*line) = 1u << i;
    }
    // Line 0 is LRU: its mask leaves with it.
    const auto victim = cache.insert(LineKey{8 * 256, Orientation::Row},
                                     MesiState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->key.addr, 0u);
    EXPECT_EQ(victim->sharers, 1u);
}

TEST(SharerMaskTest, ReinsertOfLiveKeyKeepsMask)
{
    Cache cache(tinyConfig(), /*directory=*/true);
    const LineKey key{0x1000, Orientation::Column};
    CacheLine *first = nullptr;
    cache.insert(key, MesiState::Exclusive, &first);
    cache.sharers(*first) = 0x8005u;
    CacheLine *again = nullptr;
    EXPECT_FALSE(
        cache.insert(key, MesiState::Modified, &again).has_value());
    EXPECT_EQ(again, first);
    EXPECT_EQ(cache.sharers(*again), 0x8005u);
    EXPECT_EQ(again->state, MesiState::Modified);
}

TEST(CacheConfigTest, SetCountArithmetic)
{
    CacheConfig l1{"L1", 32 * 1024, 64, 8};
    EXPECT_EQ(l1.numSets(), 64u);
    CacheConfig l3{"L3", 8 * 1024 * 1024, 64, 8};
    EXPECT_EQ(l3.numSets(), 16384u);
}

// ---------------------------------------------------------------
// Synonym crossing geometry.
// ---------------------------------------------------------------

class SynonymFixture : public ::testing::Test
{
  protected:
    mem::AddressMap map_{mem::Geometry::rcNvm()};
    SynonymMapper synonym_{map_};
};

TEST_F(SynonymFixture, RowLineHasEightColumnPartners)
{
    mem::DecodedAddr d;
    d.row = 437;
    d.col = 176; // line-aligned (176 % 8 == 0)
    const LineKey key{map_.encode(d, Orientation::Row),
                      Orientation::Row};
    const auto crossings = synonym_.crossings(key);
    std::set<Addr> partners;
    for (const Crossing &c : crossings) {
        EXPECT_EQ(c.partner.orient, Orientation::Column);
        partners.insert(c.partner.addr);
        // The partner word index is the row within the partner's
        // 8-row span.
        EXPECT_EQ(c.partnerWord, 437u % 8);
    }
    EXPECT_EQ(partners.size(), 8u); // all distinct columns
}

TEST_F(SynonymFixture, CrossingIsSymmetric)
{
    mem::DecodedAddr d;
    d.row = 100;
    d.col = 40;
    const LineKey row_line{map_.encode(d, Orientation::Row) & ~63ull,
                           Orientation::Row};
    for (unsigned w = 0; w < 8; ++w) {
        const Crossing c = synonym_.crossingOfWord(row_line, w);
        // Crossing back from the partner at partnerWord must return
        // the original line and word.
        const Crossing back =
            synonym_.crossingOfWord(c.partner, c.partnerWord);
        EXPECT_EQ(back.partner, row_line);
        EXPECT_EQ(back.partnerWord, w);
    }
}

TEST_F(SynonymFixture, PartnersShareBankAndSubarray)
{
    mem::DecodedAddr d;
    d.channel = 1;
    d.rank = 2;
    d.bank = 4;
    d.subarray = 3;
    d.row = 99;
    d.col = 8;
    const LineKey key{map_.encode(d, Orientation::Row),
                      Orientation::Row};
    for (const Crossing &c : synonym_.crossings(key)) {
        const mem::DecodedAddr p =
            map_.decode(c.partner.addr, Orientation::Column);
        EXPECT_EQ(p.channel, d.channel);
        EXPECT_EQ(p.rank, d.rank);
        EXPECT_EQ(p.bank, d.bank);
        EXPECT_EQ(p.subarray, d.subarray);
    }
}

TEST_F(SynonymFixture, ColumnLinePartnersAreRowLines)
{
    mem::DecodedAddr d;
    d.row = 24; // aligned
    d.col = 7;
    const LineKey key{map_.encode(d, Orientation::Column),
                      Orientation::Column};
    const auto crossings = synonym_.crossings(key);
    for (unsigned w = 0; w < 8; ++w) {
        EXPECT_EQ(crossings[w].partner.orient, Orientation::Row);
        EXPECT_EQ(crossings[w].selfWord, w);
        // Partner word = our column within the row line's span.
        EXPECT_EQ(crossings[w].partnerWord, 7u % 8);
    }
}

TEST_F(SynonymFixture, PartnerAddressesAreLineAligned)
{
    mem::DecodedAddr d;
    d.row = 1023;
    d.col = 1016;
    const LineKey key{map_.encode(d, Orientation::Row),
                      Orientation::Row};
    for (const Crossing &c : synonym_.crossings(key))
        EXPECT_EQ(c.partner.addr % 64, 0u);
}

} // namespace
} // namespace rcnvm::cache
