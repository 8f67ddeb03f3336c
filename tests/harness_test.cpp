/**
 * @file
 * Tests for the measurement harness: solo runs, the Tuck & Tullsen
 * repeat-relaunch pair runner and the combined-speedup math.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/multiprogram.h"
#include "harness/solo.h"
#include "harness/table.h"

namespace jsmt {
namespace {

constexpr double kSmallScale = 0.05;

TEST(Harness, DroppedMeanDropsFirstAndLast)
{
    EXPECT_DOUBLE_EQ(droppedMean({10.0, 2.0, 4.0, 100.0}), 3.0);
    // Too few samples: plain mean.
    EXPECT_DOUBLE_EQ(droppedMean({4.0, 6.0}), 5.0);
    EXPECT_DOUBLE_EQ(droppedMean({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(droppedMean({}), 0.0);
}

TEST(Harness, SoloDurationPositiveAndHtSensitive)
{
    SystemConfig config;
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = kSmallScale;
    const double off =
        soloDurationCyclesCached(config, "compress", false, options);
    const double on =
        soloDurationCyclesCached(config, "compress", true, options);
    EXPECT_GT(off, 0.0);
    EXPECT_GT(on, 0.0);
    // The static partition makes the HT-on solo run no faster.
    EXPECT_GE(on, off * 0.99);
}

TEST(Harness, MeasureSoloRunsWarmupIteration)
{
    SystemConfig config;
    SoloOptions warm;
    warm.threads = 1;
    warm.lengthScale = kSmallScale;
    warm.warmup = true;
    SoloOptions cold = warm;
    cold.warmup = false;
    const RunResult with_warm =
        measureSolo(config, "compress", true, warm);
    const RunResult no_warm =
        measureSolo(config, "compress", true, cold);
    // A warmed iteration sees fewer L2 misses than a cold one.
    EXPECT_LT(with_warm.total(EventId::kL2Miss),
              no_warm.total(EventId::kL2Miss));
}

TEST(Harness, PairRunnerProducesRequestedRuns)
{
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 4);
    const PairResult pair = runner.runPair("compress", "jess");
    EXPECT_EQ(pair.a, "compress");
    EXPECT_EQ(pair.b, "jess");
    // 4 completions minus first and last.
    EXPECT_GE(pair.runsA, 2u);
    EXPECT_GE(pair.runsB, 2u);
    EXPECT_GT(pair.meanDurationA, 0.0);
    EXPECT_GT(pair.combinedSpeedup, 0.0);
    // An SMT machine cannot beat a perfect dual processor.
    EXPECT_LT(pair.combinedSpeedup, 2.05);
    EXPECT_NEAR(pair.combinedSpeedup,
                pair.speedupA + pair.speedupB, 1e-9);
}

TEST(Harness, SoloBaselineIsCached)
{
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 3);
    const double first = runner.soloDuration("db");
    const double second = runner.soloDuration("db");
    EXPECT_DOUBLE_EQ(first, second);
}

TEST(Harness, IdenticalPairSlotsAreTrackedSeparately)
{
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 3);
    const PairResult pair = runner.runPair("jess", "jess");
    EXPECT_GT(pair.speedupA, 0.0);
    EXPECT_GT(pair.speedupB, 0.0);
    // Symmetric programs: per-slot speedups should be similar.
    EXPECT_NEAR(pair.speedupA, pair.speedupB,
                0.5 * pair.speedupA);
}

TEST(Harness, TextTableFormats)
{
    TextTable table({"a", "bb"});
    table.addRow({"x", "1.50"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a  bb"), std::string::npos);
    EXPECT_NE(out.find("x  1.50"), std::string::npos);
    EXPECT_EQ(TextTable::fmt(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
}

TEST(HarnessDeath, PairRunnerNeedsThreeRuns)
{
    SystemConfig config;
    EXPECT_EXIT(MultiprogramRunner(config, 1.0, 2),
                testing::ExitedWithCode(1), "at least 3");
}

} // namespace
} // namespace jsmt
