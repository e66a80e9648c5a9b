/**
 * @file
 * Tests for the set-associative cache: orientation-aware tag match,
 * LRU replacement, pinning, crossing-bit storage, directory sharer
 * masks, a differential check against a per-way model, and the
 * synonym crossing geometry of Figure 8.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/synonym.hh"
#include "mem/geometry.hh"
#include "util/random.hh"

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

// ---------------------------------------------------------------
// Differential check of the tag-array layout against a per-way model
// ---------------------------------------------------------------

/**
 * The cache semantics spelled out one way at a time: each way keeps
 * its own tag, orientation, state, crossing bits, pin, LRU stamp and
 * sharer mask. Deliberately naive, so the packed layout of Cache can
 * be checked against it.
 */
class ReferenceCache
{
  public:
    struct Way {
        bool valid = false;
        Addr tag = 0;
        Orientation orient = Orientation::Row;
        MesiState state = MesiState::Invalid;
        std::uint8_t crossing = 0;
        bool pinned = false;
        std::uint64_t lru = 0;
        Cache::SharerMask sharers = 0;
    };

    explicit ReferenceCache(const CacheConfig &cfg)
        : sets_(cfg.numSets()), ways_(cfg.ways), way_(sets_ * ways_)
    {
    }

    Way *
    find(const LineKey &key)
    {
        Way *w = lookup(key);
        if (w)
            w->lru = ++clock_;
        return w;
    }

    Way *
    lookup(const LineKey &key)
    {
        for (unsigned i = 0; i < ways_; ++i) {
            Way &w = way_[setOf(key) * ways_ + i];
            if (w.valid && w.tag == key.addr && w.orient == key.orient)
                return &w;
        }
        return nullptr;
    }

    std::optional<Cache::Victim>
    insert(const LineKey &key, MesiState state)
    {
        if (Way *w = lookup(key)) {
            w->state = state;
            w->lru = ++clock_;
            return std::nullopt;
        }
        Way *target = nullptr;
        Way *lru_unpinned = nullptr;
        Way *lru_any = nullptr;
        for (unsigned i = 0; i < ways_; ++i) {
            Way &w = way_[setOf(key) * ways_ + i];
            if (!w.valid) {
                if (!target)
                    target = &w;
                continue;
            }
            if (!lru_any || w.lru < lru_any->lru)
                lru_any = &w;
            if (!w.pinned && (!lru_unpinned || w.lru < lru_unpinned->lru))
                lru_unpinned = &w;
        }
        std::optional<Cache::Victim> victim;
        if (!target) {
            target = lru_unpinned ? lru_unpinned : lru_any;
            if (!lru_unpinned)
                ++pinnedEvictions;
            victim = Cache::Victim{LineKey{target->tag, target->orient},
                                   target->state, target->crossing,
                                   target->sharers};
            count(target->orient, -1);
        }
        *target = Way{true, key.addr, key.orient, state, 0, false,
                      ++clock_, 0};
        count(key.orient, +1);
        return victim;
    }

    std::optional<Cache::Victim>
    invalidate(const LineKey &key)
    {
        Way *w = find(key);
        if (!w)
            return std::nullopt;
        const Cache::Victim v{key, w->state, w->crossing};
        count(w->orient, -1);
        w->valid = false;
        return v;
    }

    std::uint64_t rowLines = 0;
    std::uint64_t columnLines = 0;
    std::uint64_t pinnedEvictions = 0;

  private:
    unsigned setOf(const LineKey &key) const
    {
        return static_cast<unsigned>((key.addr / 64) % sets_);
    }

    void
    count(Orientation o, int delta)
    {
        (o == Orientation::Row ? rowLines : columnLines) +=
            static_cast<std::uint64_t>(delta);
    }

    unsigned sets_;
    unsigned ways_;
    std::vector<Way> way_;
    std::uint64_t clock_ = 0;
};

void
expectSameVictim(const std::optional<Cache::Victim> &got,
                 const std::optional<Cache::Victim> &want,
                 bool directory)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got)
        return;
    EXPECT_EQ(got->key, want->key);
    EXPECT_EQ(got->state, want->state);
    EXPECT_EQ(got->crossing, want->crossing);
    if (directory) {
        EXPECT_EQ(got->sharers, want->sharers);
    }
}

/** A found line must carry the model's state, crossing bits, pin and
 *  orientation (and, on a directory, its sharer mask). */
void
expectSameLine(Cache &cache, const CacheLine *got,
               const ReferenceCache::Way *want, bool directory)
{
    ASSERT_EQ(got != nullptr, want != nullptr);
    if (!got)
        return;
    EXPECT_EQ(got->orient, want->orient);
    EXPECT_EQ(got->state, want->state);
    EXPECT_EQ(got->crossing, want->crossing);
    EXPECT_EQ(got->pinned, want->pinned);
    if (directory) {
        EXPECT_EQ(cache.sharers(*got), want->sharers);
    }
}

/** Drive @p steps random operations on a cache and the model. Keys
 *  come from a pool about twice the cache's size, so hits, misses
 *  and evictions all occur; frequent pinning fills whole sets with
 *  pinned lines. */
void
runDifferential(const CacheConfig &cfg, bool directory,
                std::uint64_t seed, unsigned steps)
{
    Cache cache(cfg, directory);
    ReferenceCache ref(cfg);
    util::Random rng(seed);
    const std::uint64_t pool = 2ull * cfg.sizeBytes / cfg.lineBytes;
    const MesiState states[] = {MesiState::Shared, MesiState::Exclusive,
                                MesiState::Modified};
    unsigned fully_pinned = 0; // inserts that met an all-pinned set
    for (unsigned step = 0; step < steps; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const LineKey key{rng.nextBounded(pool) * 64,
                          rng.nextBool(0.5) ? Orientation::Column
                                            : Orientation::Row};
        const std::uint64_t op = rng.nextBounded(1000);
        if (op < 300) {
            // find, then write through the returned line as the
            // hierarchy does (state, crossing bits, sharer mask).
            CacheLine *got = cache.find(key);
            ReferenceCache::Way *want = ref.find(key);
            expectSameLine(cache, got, want, directory);
            if (got && want && rng.nextBool(0.5)) {
                const auto bit =
                    std::uint8_t(1u << rng.nextBounded(8));
                got->crossing |= bit;
                want->crossing |= bit;
                got->state = want->state = MesiState::Modified;
                if (directory) {
                    const auto mask =
                        static_cast<Cache::SharerMask>(rng.next());
                    cache.sharers(*got) = want->sharers = mask;
                }
            }
        } else if (op < 380) {
            expectSameLine(cache, cache.probe(key), ref.lookup(key),
                           directory);
        } else if (op < 730) {
            const MesiState st = states[rng.nextBounded(3)];
            const std::uint64_t forced = ref.pinnedEvictions;
            CacheLine *installed = nullptr;
            expectSameVictim(cache.insert(key, st, &installed),
                             ref.insert(key, st), directory);
            fully_pinned += ref.pinnedEvictions != forced;
            ASSERT_NE(installed, nullptr);
            EXPECT_EQ(installed, cache.probe(key));
        } else if (op < 780) {
            expectSameVictim(cache.invalidate(key), ref.invalidate(key),
                             directory);
        } else {
            const bool pin = rng.nextBounded(8) != 0;
            ReferenceCache::Way *want = ref.find(key);
            if (want)
                want->pinned = pin;
            EXPECT_EQ(cache.setPinned(key, pin), want != nullptr);
        }
        ASSERT_EQ(cache.pinnedEvictions(), ref.pinnedEvictions);
        ASSERT_EQ(cache.rowLines(), ref.rowLines);
        ASSERT_EQ(cache.columnLines(), ref.columnLines);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(fully_pinned, 0u);
}

TEST(CacheTest, MatchesReferenceLruModel)
{
    const CacheConfig two_way{"two-way", 1024, 64, 2}; // 8 sets
    for (const bool directory : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << "directory " << directory << " seed "
                         << seed);
            runDifferential(tinyConfig(), directory, seed, 20000);
            runDifferential(two_way, directory, seed, 20000);
        }
    }
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

TEST_F(SynonymFixture, ClosedFormMatchesPerWordDecode)
{
    // crossings() decodes partner 0 and strides to the rest; every
    // partner must match the full per-word decode, at the corners of
    // each field included. The Table-1 subarray is square, so a
    // 512 x 2048 one checks that each orientation strides by its own
    // field.
    mem::Geometry oblong = mem::Geometry::rcNvm();
    oblong.rowsPerSubarray = 512;
    oblong.colsPerSubarray = 2048;
    for (const mem::Geometry &g : {mem::Geometry::rcNvm(), oblong}) {
        const mem::AddressMap map(g);
        const SynonymMapper synonym(map);
        const unsigned rows[] = {0, 1, g.rowsPerSubarray - 8,
                                 g.rowsPerSubarray - 1};
        const unsigned cols[] = {0, 1, g.colsPerSubarray - 8,
                                 g.colsPerSubarray - 1};
        for (const Orientation o :
             {Orientation::Row, Orientation::Column}) {
            for (const unsigned hi : {0u, 1u}) {
                for (const unsigned row : rows) {
                    for (const unsigned col : cols) {
                        mem::DecodedAddr d;
                        d.channel = hi;
                        d.rank = hi * 3;
                        d.bank = hi * 7;
                        d.subarray = (row + col) % 8;
                        d.row = row;
                        d.col = col;
                        const LineKey key{map.encode(d, o) & ~Addr{63},
                                          o};
                        const auto all = synonym.crossings(key);
                        for (unsigned w = 0;
                             w < SynonymMapper::wordsPerLine; ++w) {
                            SCOPED_TRACE(::testing::Message()
                                         << "rows " << g.rowsPerSubarray
                                         << " key " << key.addr
                                         << " word " << w);
                            const Crossing one =
                                synonym.crossingOfWord(key, w);
                            EXPECT_EQ(all[w].partner.addr,
                                      one.partner.addr);
                            EXPECT_EQ(all[w].partner.orient,
                                      one.partner.orient);
                            EXPECT_EQ(all[w].selfWord, one.selfWord);
                            EXPECT_EQ(all[w].partnerWord,
                                      one.partnerWord);
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace rcnvm::cache
