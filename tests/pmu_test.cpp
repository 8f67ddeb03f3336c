/**
 * @file
 * Unit tests for the performance-monitoring unit and event
 * catalogue.
 */

#include <gtest/gtest.h>

#include "pmu/events.h"
#include "pmu/pmu.h"

namespace jsmt {
namespace {

TEST(Events, NamesRoundTrip)
{
    for (std::size_t e = 0; e < kNumEventIds; ++e) {
        const auto id = static_cast<EventId>(e);
        const auto name = eventName(id);
        EXPECT_FALSE(name.empty());
        const auto back = eventByName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, id);
    }
}

TEST(Events, NamesAreUnique)
{
    for (std::size_t a = 0; a < kNumEventIds; ++a) {
        for (std::size_t b = a + 1; b < kNumEventIds; ++b) {
            EXPECT_NE(eventName(static_cast<EventId>(a)),
                      eventName(static_cast<EventId>(b)));
        }
    }
}

TEST(Events, UnknownNameRejected)
{
    EXPECT_FALSE(eventByName("definitely_not_an_event"));
    EXPECT_EQ(eventName(EventId::kNumEvents), "invalid");
}

TEST(Pmu, RawCountsPerContext)
{
    Pmu pmu;
    pmu.record(EventId::kL1dMiss, 0);
    pmu.record(EventId::kL1dMiss, 1, 3);
    EXPECT_EQ(pmu.raw(EventId::kL1dMiss, 0), 1u);
    EXPECT_EQ(pmu.raw(EventId::kL1dMiss, 1), 3u);
    EXPECT_EQ(pmu.rawTotal(EventId::kL1dMiss), 4u);
    EXPECT_EQ(pmu.rawTotal(EventId::kL2Miss), 0u);
}

TEST(Pmu, CountsDeltaSubtractsEveryLine)
{
    Pmu pmu;
    pmu.record(EventId::kCycles, 0, 100);
    const EventCounts before = pmu.counts();
    pmu.record(EventId::kCycles, 0, 40);
    pmu.record(EventId::kL1dMiss, 1, 3);
    const EventCounts delta = countsDelta(pmu.counts(), before);
    const auto cycles = static_cast<std::size_t>(EventId::kCycles);
    const auto l1d = static_cast<std::size_t>(EventId::kL1dMiss);
    EXPECT_EQ(delta[0][cycles], 40u);
    EXPECT_EQ(delta[1][cycles], 0u);
    EXPECT_EQ(delta[1][l1d], 3u);
    EXPECT_EQ(delta[0][l1d], 0u);
}

TEST(Pmu, ConsecutiveSnapshotDeltasPartitionTheLines)
{
    Pmu pmu;
    pmu.record(EventId::kCycles, 0, 100); // Before the first snapshot.
    EventCounts previous = pmu.counts();
    pmu.record(EventId::kCycles, 0, 40);
    pmu.record(EventId::kL1dMiss, 1, 3);
    const EventCounts first = countsDelta(pmu.counts(), previous);
    previous = pmu.counts();
    pmu.record(EventId::kCycles, 0, 60);
    const EventCounts second = countsDelta(pmu.counts(), previous);

    const auto cycles = static_cast<std::size_t>(EventId::kCycles);
    const auto l1d = static_cast<std::size_t>(EventId::kL1dMiss);
    EXPECT_EQ(first[0][cycles], 40u);
    EXPECT_EQ(first[1][l1d], 3u);
    EXPECT_EQ(second[0][cycles], 60u);
    EXPECT_EQ(second[1][l1d], 0u);
    EXPECT_EQ(first[0][cycles] + second[0][cycles] + 100u,
              pmu.raw(EventId::kCycles, 0));
}

} // namespace
} // namespace jsmt
