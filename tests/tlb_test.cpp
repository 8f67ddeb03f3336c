/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include "mem/tlb.h"

namespace jsmt {
namespace {

TlbConfig
smallTlb()
{
    TlbConfig config;
    config.name = "test-tlb";
    config.entries = 8;
    config.ways = 2;
    config.pageBytes = 4096;
    return config;
}

TEST(Tlb, MissThenHitWithinPage)
{
    Tlb tlb(smallTlb());
    EXPECT_FALSE(tlb.access(1, 0x1000, 0));
    EXPECT_TRUE(tlb.access(1, 0x1000, 0));
    EXPECT_TRUE(tlb.access(1, 0x1FFF, 0)); // Same page.
    EXPECT_FALSE(tlb.access(1, 0x2000, 0)); // Next page.
}

TEST(Tlb, SeparateAddressSpaces)
{
    Tlb tlb(smallTlb());
    EXPECT_FALSE(tlb.access(1, 0x1000, 0));
    EXPECT_FALSE(tlb.access(2, 0x1000, 0));
    EXPECT_TRUE(tlb.access(1, 0x1000, 0));
}

TEST(Tlb, PartitionHidesOtherContextEntries)
{
    TlbConfig config = smallTlb();
    config.sharing = Sharing::kPartitionedSets;
    Tlb tlb(config);
    EXPECT_FALSE(tlb.access(1, 0x1000, 0));
    // Context 1 indexes its own half: the translation installed by
    // context 0 is invisible.
    EXPECT_FALSE(tlb.access(1, 0x1000, 1));
    EXPECT_TRUE(tlb.access(1, 0x1000, 0));
    EXPECT_TRUE(tlb.access(1, 0x1000, 1));
}

TEST(Tlb, PartitionHalvesReach)
{
    // 8 entries 2-way = 4 sets shared; 2 sets per context when
    // partitioned. A working set of 3 pages mapping to distinct
    // shared sets fits shared but conflicts when partitioned.
    TlbConfig config = smallTlb();
    config.ways = 1; // 8 sets shared, 4 per context partitioned.
    Tlb shared(config);
    config.sharing = Sharing::kPartitionedSets;
    Tlb part(config);
    // Pages 0 and 4 collide only in the partitioned halves.
    shared.access(1, 0 * 4096, 0);
    shared.access(1, 4 * 4096, 0);
    EXPECT_TRUE(shared.access(1, 0 * 4096, 0));
    part.access(1, 0 * 4096, 0);
    part.access(1, 4 * 4096, 0);
    EXPECT_FALSE(part.access(1, 0 * 4096, 0));
}

TEST(Tlb, SetPartitionedFlushes)
{
    Tlb tlb(smallTlb());
    tlb.access(1, 0x1000, 0);
    tlb.setPartitioned(true);
    EXPECT_TRUE(tlb.partitioned());
    EXPECT_FALSE(tlb.access(1, 0x1000, 0));
}

TEST(Tlb, StatsAccumulate)
{
    Tlb tlb(smallTlb());
    tlb.access(1, 0, 0);
    tlb.access(1, 0, 0);
    EXPECT_EQ(tlb.accesses(), 2u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbDeath, RejectsZeroEntries)
{
    TlbConfig config = smallTlb();
    config.entries = 0;
    EXPECT_EXIT(Tlb{config}, testing::ExitedWithCode(1), "entry");
}

} // namespace
} // namespace jsmt
