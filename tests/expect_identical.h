/**
 * @file
 * The one bit-identity comparator of the test suite: two runs that
 * must agree (fast-forward vs plain loop, parallel vs serial
 * stepping, traced vs untraced, replayed vs simulated) are compared
 * field by field, and the first differing event is named.
 */

#ifndef JSMT_TESTS_EXPECT_IDENTICAL_H
#define JSMT_TESTS_EXPECT_IDENTICAL_H

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/run_result.h"
#include "os/allocation/multi_core.h"

namespace jsmt {

/**
 * Expect @p a and @p b to be the same run: cycles, completion,
 * cancellation, every event on every context, and each process's
 * benchmark, completion cycle, duration, GC runs and allocated
 * bytes. @p label prefixes every failure message.
 */
inline void
expectIdentical(const RunResult& a, const RunResult& b,
                const std::string& label = "")
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.allComplete, b.allComplete) << label;
    EXPECT_EQ(a.cancelled, b.cancelled) << label;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            ASSERT_EQ(a.events[ctx][e], b.events[ctx][e])
                << label << " event "
                << eventName(static_cast<EventId>(e))
                << " on context " << static_cast<int>(ctx);
        }
    }
    ASSERT_EQ(a.processes.size(), b.processes.size()) << label;
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
        EXPECT_EQ(a.processes[i].benchmark, b.processes[i].benchmark)
            << label << " process " << i;
        EXPECT_EQ(a.processes[i].completionCycle,
                  b.processes[i].completionCycle)
            << label << " process " << i;
        EXPECT_EQ(a.processes[i].durationCycles,
                  b.processes[i].durationCycles)
            << label << " process " << i;
        EXPECT_EQ(a.processes[i].gcRuns, b.processes[i].gcRuns)
            << label << " process " << i;
        EXPECT_EQ(a.processes[i].allocatedBytes,
                  b.processes[i].allocatedBytes)
            << label << " process " << i;
    }
}

/**
 * Expect two chip runs to be the same: the allocation counters,
 * every event on every core and context, each process's completion
 * cycle, final core and migration count, and the migration log.
 */
inline void
expectIdentical(const MultiRunResult& a, const MultiRunResult& b,
                const std::string& label = "")
{
    ASSERT_EQ(a.cycles, b.cycles) << label;
    ASSERT_EQ(a.allComplete, b.allComplete) << label;
    ASSERT_EQ(a.epochs, b.epochs) << label;
    ASSERT_EQ(a.migrations, b.migrations) << label;
    ASSERT_EQ(a.steals, b.steals) << label;
    ASSERT_EQ(a.coreEvents.size(), b.coreEvents.size()) << label;
    for (std::size_t core = 0; core < a.coreEvents.size(); ++core) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                ASSERT_EQ(a.coreEvents[core][ctx][e],
                          b.coreEvents[core][ctx][e])
                    << label << " core " << core << " ctx " << ctx
                    << " event "
                    << eventName(static_cast<EventId>(e));
            }
        }
    }
    ASSERT_EQ(a.processes.size(), b.processes.size()) << label;
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
        EXPECT_EQ(a.processes[i].completionCycle,
                  b.processes[i].completionCycle)
            << label << " process " << i;
        EXPECT_EQ(a.processes[i].finalCore, b.processes[i].finalCore)
            << label << " process " << i;
        EXPECT_EQ(a.processes[i].migrations,
                  b.processes[i].migrations)
            << label << " process " << i;
    }
    ASSERT_EQ(a.migrationLog.size(), b.migrationLog.size()) << label;
    for (std::size_t i = 0; i < a.migrationLog.size(); ++i) {
        EXPECT_EQ(a.migrationLog[i].epoch, b.migrationLog[i].epoch)
            << label;
        EXPECT_EQ(a.migrationLog[i].process,
                  b.migrationLog[i].process)
            << label;
        EXPECT_EQ(a.migrationLog[i].from, b.migrationLog[i].from)
            << label;
        EXPECT_EQ(a.migrationLog[i].to, b.migrationLog[i].to)
            << label;
        EXPECT_EQ(a.migrationLog[i].steal, b.migrationLog[i].steal)
            << label;
    }
}

} // namespace jsmt

#endif // JSMT_TESTS_EXPECT_IDENTICAL_H
