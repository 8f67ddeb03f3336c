/**
 * @file
 * Unit tests for the memory hierarchy facade.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"

namespace jsmt {
namespace {

TEST(MemorySystem, TranslateIsDeterministicAndPageGranular)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    const Addr a = mem.translate(1, 0x12345678);
    EXPECT_EQ(a, mem.translate(1, 0x12345678));
    // Offsets within a page are preserved.
    EXPECT_EQ(mem.translate(1, 0x12345000) + 0x678, a);
    // Different address spaces map differently (almost surely).
    EXPECT_NE(mem.translate(2, 0x12345678), a);
}

TEST(MemorySystem, TraceCacheHitHasZeroLatency)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    const auto miss = mem.fetchLine(1, 0x400000, 0x400000, 0, 0);
    EXPECT_FALSE(miss.traceCacheHit);
    EXPECT_GT(miss.latency, 0u);
    const auto hit = mem.fetchLine(1, 0x400000, 0x400000, 0, 10);
    EXPECT_TRUE(hit.traceCacheHit);
    EXPECT_EQ(hit.latency, 0u);
}

TEST(MemorySystem, ForceRebuildTakesMissPath)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    mem.fetchLine(1, 0x400000, 0x400000, 0, 0);
    const auto rebuilt =
        mem.fetchLine(1, 0x400000, 0x400000, 0, 10, true);
    EXPECT_FALSE(rebuilt.traceCacheHit);
    EXPECT_GT(rebuilt.latency, 0u);
    EXPECT_EQ(pmu.rawTotal(EventId::kTraceCacheMiss), 2u);
}

TEST(MemorySystem, HtSeparatesTraceCacheContexts)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    mem.setHyperThreading(true);
    mem.fetchLine(1, 0x400000, 0x400000, 0, 0);
    // Same line from the other context misses: per-LP tagging.
    const auto other = mem.fetchLine(1, 0x400000, 0x400000, 1, 50);
    EXPECT_FALSE(other.traceCacheHit);
    // HT off: contexts share traces.
    mem.setHyperThreading(false);
    mem.fetchLine(1, 0x400000, 0x400000, 0, 100);
    const auto shared =
        mem.fetchLine(1, 0x400000, 0x400000, 1, 150);
    EXPECT_TRUE(shared.traceCacheHit);
}

TEST(MemorySystem, DataAccessLatencyTiers)
{
    Pmu pmu;
    MemConfig config;
    MemorySystem mem(config, pmu);
    // Cold: DTLB walk + L1 + L2 + DRAM.
    const auto cold = mem.dataAccess(1, 0x10000000, 0, false, 0);
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_FALSE(cold.l2Hit);
    EXPECT_GE(cold.latency, config.dramCycles);
    // Warm: L1 hit at the configured hit latency.
    const auto warm =
        mem.dataAccess(1, 0x10000000, 0, false, 1000);
    EXPECT_TRUE(warm.l1Hit);
    EXPECT_EQ(warm.latency, config.l1dHitCycles);
}

TEST(MemorySystem, PageWalkRecordedOnTlbMiss)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    mem.dataAccess(1, 0x10000000, 0, false, 0);
    EXPECT_EQ(pmu.rawTotal(EventId::kDtlbMiss), 1u);
    EXPECT_EQ(pmu.rawTotal(EventId::kPageWalk), 1u);
    // Second access to the same page: translation cached.
    mem.dataAccess(1, 0x10000040, 0, false, 100);
    EXPECT_EQ(pmu.rawTotal(EventId::kDtlbMiss), 1u);
}

TEST(MemorySystem, StoresFillCachesToo)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    mem.dataAccess(1, 0x20000000, 0, true, 0);
    const auto after = mem.dataAccess(1, 0x20000000, 0, false, 500);
    EXPECT_TRUE(after.l1Hit);
}

TEST(MemorySystem, FsbQueueingDelaysBackToBackDramAccesses)
{
    Pmu pmu;
    MemConfig config;
    MemorySystem mem(config, pmu);
    // Two cold misses in the same cycle: the second queues on the
    // front-side bus.
    const auto first = mem.dataAccess(1, 0x30000000, 0, false, 0);
    const auto second =
        mem.dataAccess(1, 0x31000000, 1, false, 0);
    EXPECT_GT(second.latency, first.latency);
    EXPECT_GT(pmu.rawTotal(EventId::kFsbBusyCycles), 0u);
}

TEST(MemorySystem, EventAccounting)
{
    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    mem.dataAccess(1, 0x10000000, 0, false, 0);
    EXPECT_EQ(pmu.rawTotal(EventId::kL1dAccess), 1u);
    EXPECT_EQ(pmu.rawTotal(EventId::kL1dMiss), 1u);
    // L2 accesses: one for the data line, one for the page-table
    // entry of the walk.
    EXPECT_EQ(pmu.rawTotal(EventId::kL2Access), 2u);
    EXPECT_EQ(pmu.rawTotal(EventId::kDramAccess),
              pmu.rawTotal(EventId::kL2Miss));
}

} // namespace
} // namespace jsmt
