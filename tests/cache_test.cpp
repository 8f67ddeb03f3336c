/**
 * @file
 * Unit tests for the set-associative cache model, and a differential
 * check of Cache and L2Overlay against a list-based true-LRU model.
 */

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mem/cache.h"
#include "mem/memory_system.h"

namespace jsmt {
namespace {

CacheConfig
smallCache()
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = 1024; // 4 sets x 4 ways x 64 B.
    config.lineBytes = 64;
    config.ways = 4;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x103F, 0)); // Same line.
    EXPECT_FALSE(cache.access(1, 0x1040, 0)); // Next line.
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, AsidIsolation)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(1, 0x1000, 0));
    // Same address, different address space: distinct line.
    EXPECT_FALSE(cache.access(2, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(2, 0x1000, 0));
}

TEST(Cache, LruEviction)
{
    Cache cache(smallCache());
    // Fill one set (set stride = 4 sets * 64 B = 256 B).
    for (Addr i = 0; i < 4; ++i)
        EXPECT_FALSE(cache.access(1, i * 256, 0));
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(cache.access(1, i * 256, 0));
    // Fifth way evicts the LRU line (address 0).
    EXPECT_FALSE(cache.access(1, 4 * 256, 0));
    EXPECT_FALSE(cache.access(1, 0, 0));
    // Address 2*256 is still resident.
    EXPECT_TRUE(cache.access(1, 2 * 256, 0));
}

TEST(Cache, LookupDoesNotFill)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
    EXPECT_FALSE(cache.access(1, 0x40, 0));
    EXPECT_TRUE(cache.lookup(1, 0x40, 0));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache(smallCache());
    cache.access(1, 0x40, 0);
    cache.flush();
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
}

TEST(Cache, PartitionSeparatesContexts)
{
    CacheConfig config = smallCache();
    config.sharing = Sharing::kPartitionedSets;
    Cache cache(config);
    // The same line filled by context 0 is not visible to
    // context 1 (it indexes the other half of the sets).
    EXPECT_FALSE(cache.access(1, 0x1000, 0));
    EXPECT_FALSE(cache.access(1, 0x1000, 1));
    EXPECT_TRUE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x1000, 1));
}

TEST(Cache, RepartitioningFlushes)
{
    Cache cache(smallCache());
    cache.access(1, 0x40, 0);
    cache.setPartitioned(true);
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
    EXPECT_TRUE(cache.partitioned());
}

TEST(Cache, PartitionHalvesReach)
{
    // Shared: 4 sets reachable; partitioned: 2 per context, so a
    // working set of 3 distinct sets for one context starts
    // conflicting.
    CacheConfig config = smallCache();
    config.sizeBytes = 256; // 4 sets, direct-mapped.
    config.ways = 1;
    Cache shared(config);
    config.sharing = Sharing::kPartitionedSets;
    Cache part(config);

    // Two lines mapping to sets 0 and 2 in the shared cache.
    shared.access(1, 0 * 64, 0);
    shared.access(1, 2 * 64, 0);
    EXPECT_TRUE(shared.lookup(1, 0 * 64, 0));
    EXPECT_TRUE(shared.lookup(1, 2 * 64, 0));

    // Partitioned (2 sets per context): lines 0 and 2 collide in
    // set 0 of the context's half.
    part.access(1, 0 * 64, 0);
    part.access(1, 2 * 64, 0);
    EXPECT_FALSE(part.lookup(1, 0 * 64, 0));
    EXPECT_TRUE(part.lookup(1, 2 * 64, 0));
}

/**
 * The executable reference: per set, its valid lines as (asid,
 * line address) pairs, most recently used first. A miss in a full
 * set evicts the back of the list.
 */
class LruModel
{
  public:
    LruModel(std::uint32_t sets, std::uint32_t ways, bool partitioned)
        : _ways(ways), _partitioned(partitioned), _sets(sets)
    {
    }

    bool
    access(Asid asid, Addr addr, ContextId ctx)
    {
        const Addr line = addr / 64;
        std::list<std::pair<Asid, Addr>>& set = _sets[setOf(line, ctx)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == std::pair{asid, line}) {
                set.splice(set.begin(), set, it);
                return true;
            }
        }
        ++misses;
        if (set.size() == _ways) {
            ++evictions;
            crossAsidEvictions += set.back().first != asid;
            set.pop_back();
            --validLines;
        }
        set.emplace_front(asid, line);
        ++validLines;
        return false;
    }

    void
    flush()
    {
        for (auto& set : _sets)
            set.clear();
        validLines = 0;
    }

    void
    setPartitioned(bool partitioned)
    {
        if (partitioned != _partitioned)
            flush();
        _partitioned = partitioned;
    }

    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t crossAsidEvictions = 0;
    std::uint64_t validLines = 0;

  private:
    std::size_t
    setOf(Addr line, ContextId ctx) const
    {
        if (!_partitioned)
            return line % _sets.size();
        const std::size_t half = _sets.size() / 2;
        return line % half + ctx * half;
    }

    std::uint32_t _ways;
    bool _partitioned;
    std::vector<std::list<std::pair<Asid, Addr>>> _sets;
};

/** A 64-byte-line cache of @p sets sets and @p ways ways. */
CacheConfig
geometry(std::uint32_t sets, std::uint32_t ways, bool partitioned)
{
    CacheConfig config;
    config.sizeBytes = std::uint64_t{sets} * ways * 64;
    config.ways = ways;
    config.sharing =
        partitioned ? Sharing::kPartitionedSets : Sharing::kShared;
    return config;
}

struct RandomAccess
{
    Asid asid;
    Addr addr;
    ContextId ctx;
};

/**
 * A random access over a footprint of three times @p lines, so hits,
 * misses and evictions all occur, from one of three asids (0, the
 * kernel's, included) on either context.
 */
RandomAccess
randomAccess(Rng& rng, std::uint64_t lines)
{
    return {static_cast<Asid>(rng.below(3)),
            rng.below(3 * lines) * 64 + rng.below(64),
            static_cast<ContextId>(rng.below(kNumContexts))};
}

TEST(CacheReference, MatchesTrueLruOnRandomStreams)
{
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
        for (const bool partitioned : {false, true}) {
            const std::string where = std::to_string(ways) + " ways, " +
                                      (partitioned ? "partitioned" : "shared");
            Cache cache(geometry(8, ways, partitioned));
            LruModel model(8, ways, partitioned);
            Rng rng(ways * 2 + partitioned);
            for (int i = 0; i < 20'000; ++i) {
                if (rng.chance(0.001)) {
                    cache.flush();
                    model.flush();
                }
                if (rng.chance(0.001)) {
                    const bool split = rng.chance(0.5);
                    cache.setPartitioned(split);
                    model.setPartitioned(split);
                }
                const RandomAccess a = randomAccess(rng, 8 * ways);
                ASSERT_EQ(cache.access(a.asid, a.addr, a.ctx),
                          model.access(a.asid, a.addr, a.ctx))
                    << where << ", access " << i;
            }
            EXPECT_EQ(cache.misses(), model.misses) << where;
            EXPECT_EQ(cache.evictions(), model.evictions) << where;
            EXPECT_EQ(cache.crossAsidEvictions(), model.crossAsidEvictions)
                << where;
            EXPECT_EQ(cache.validLines(), model.validLines) << where;
            EXPECT_GT(model.crossAsidEvictions, 0u) << where;
        }
    }
}

// A chip slice walks its quantum through an overlay of the shared L2,
// and the barrier then replays the quantum on the shared L2 itself.
// Both must see what the same accesses made directly see, quantum
// after quantum.
TEST(CacheReference, OverlayQuantumThenReplayEqualsDirectAccesses)
{
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
        const std::string where = std::to_string(ways) + " ways";
        Cache shared(geometry(16, ways, false));
        Cache direct(geometry(16, ways, false));
        L2Overlay overlay(shared);
        Rng rng(ways);
        for (int quantum = 0; quantum < 50; ++quantum) {
            std::vector<std::pair<RandomAccess, bool>> log;
            overlay.begin();
            for (std::uint64_t n = rng.below(300); n > 0; --n) {
                const RandomAccess a = randomAccess(rng, 16 * ways);
                const bool hit = direct.access(a.asid, a.addr, a.ctx);
                ASSERT_EQ(overlay.access(a.asid, a.addr), hit)
                    << where << ", quantum " << quantum;
                log.emplace_back(a, hit);
            }
            for (const auto& [a, hit] : log) {
                ASSERT_EQ(shared.access(a.asid, a.addr, a.ctx), hit)
                    << where << ", replay of quantum " << quantum;
            }
        }
        EXPECT_EQ(shared.accesses(), direct.accesses()) << where;
        EXPECT_EQ(shared.evictions(), direct.evictions()) << where;
        EXPECT_EQ(shared.crossAsidEvictions(), direct.crossAsidEvictions())
            << where;
        EXPECT_EQ(shared.validLines(), direct.validLines()) << where;
    }
}

TEST(CacheDeath, RejectsBadGeometry)
{
    CacheConfig config = smallCache();
    config.lineBytes = 48; // Not a power of two.
    EXPECT_EXIT(Cache{config}, testing::ExitedWithCode(1), "line");
}

} // namespace
} // namespace jsmt
