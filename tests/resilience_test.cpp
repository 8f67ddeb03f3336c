/**
 * @file
 * Tests for failure handling around the task pool: deadline and
 * report semantics of TaskPool::run, simulator cancellation,
 * trace-sink degradation, the manifest round trip and the pair
 * runner's failure report. The store's file-fault cases live in
 * exec_test; the resumable, deadline-bounded sweep is the CLI's
 * (cli_test).
 *
 * Faults come from two test seams, never from the environment: the
 * pool's before-task hook fails named tasks, and the trace sink's
 * allocation hook fails its ring allocation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "core/simulation.h"
#include "exec/result_store.h"
#include "exec/task_pool.h"
#include "expect_identical.h"
#include "harness/multiprogram.h"
#include "harness/solo.h"
#include "jvm/benchmarks.h"
#include "trace/trace_sink.h"

namespace jsmt {
namespace {

using exec::BatchReport;
using exec::FailureKind;
using exec::ResultStore;
using exec::TaskContext;
using exec::TaskPool;

constexpr double kTinyScale = 0.02;

// ----------------------------------------------------------------
// TaskPool::run: deadline, report
// ----------------------------------------------------------------

TEST(TaskPool, PermanentExceptionIsNotRetried)
{
    TaskPool pool(1);
    std::atomic<int> attempts{0};
    const BatchReport report = pool.run(
        1, [](std::size_t) { return "thrower"; },
        [&](TaskContext&) {
            attempts.fetch_add(1);
            throw std::runtime_error("permanent damage");
        });
    EXPECT_EQ(attempts.load(), 1);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kException);
    EXPECT_EQ(report.failures[0].message, "permanent damage");
    EXPECT_EQ(report.timeouts, 0u);
}

TEST(TaskPool, DeadlineCancelsWedgedTaskAndReportsTimeout)
{
    TaskPool pool(2);
    const BatchReport report = pool.run(
        1, [](std::size_t) { return "wedged"; },
        [](TaskContext& ctx) {
            // Cooperative wedge: spin until the deadline passes.
            while (!ctx.token->cancelled())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            throw TaskCancelledError("wedged task observed cancel");
        },
        0.05);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kTimeout);
    EXPECT_GE(report.timeouts, 1u);
}

// Deadline cancellation is final: the task's body runs exactly
// once and the task is reported once, as a timeout.
TEST(TaskPool, DeadlineCancelledTaskRunsItsBodyOnce)
{
    TaskPool pool(1);
    std::atomic<int> runs{0};
    const BatchReport report = pool.run(
        1, [](std::size_t) { return "slow"; },
        [&](TaskContext& ctx) {
            runs.fetch_add(1);
            while (!ctx.token->cancelled())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            throw TaskCancelledError("slow task observed cancel");
        },
        0.05);
    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(report.succeeded, 0u);
    EXPECT_EQ(report.timeouts, 1u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kTimeout);
}

// A deadline too far out to represent means no deadline, not one
// already in the past.
TEST(TaskPool, UnrepresentableTimeoutMeansNoDeadline)
{
    EXPECT_EQ(CancellationToken::deadlineAfter(1e10),
              CancellationToken::Clock::time_point::max());
    TaskPool pool(2);
    for (const double timeout :
         {1e10, std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(timeout);
        const BatchReport report = pool.run(
            2, nullptr,
            [](TaskContext& ctx) {
                SoloOptions options;
                options.lengthScale = kTinyScale;
                options.cancel = ctx.token;
                EXPECT_FALSE(ctx.token->cancelled());
                EXPECT_TRUE(measureSolo(SystemConfig(), "jess",
                                        ctx.index == 1, options)
                                .allComplete);
            },
            timeout);
        EXPECT_TRUE(report.ok()) << report.summary();
        EXPECT_EQ(report.succeeded, 2u);
    }
}

TEST(TaskPool, CountersSumAcrossEightJobs)
{
    std::atomic<std::size_t> hooked{0};
    TaskPool::setBeforeTaskHook(
        [&](const std::string&, const CancellationToken&) {
            hooked.fetch_add(1);
        });
    TaskPool pool(8);
    const std::uint64_t failures_before = TaskPool::totalFailures();
    const std::size_t count = 32;
    const BatchReport report = pool.run(
        count,
        [](std::size_t i) { return "j" + std::to_string(i); },
        [](TaskContext& ctx) {
            if (ctx.index % 2 == 1)
                throw std::runtime_error("odd task");
        });
    TaskPool::setBeforeTaskHook(nullptr);
    // Every task passed the hook once and every odd one failed; the
    // per-report, per-hook and process-wide counters must agree.
    EXPECT_EQ(report.succeeded, count / 2);
    ASSERT_EQ(report.failures.size(), count / 2);
    for (std::size_t i = 0; i < report.failures.size(); ++i)
        EXPECT_EQ(report.failures[i].index, 2 * i + 1);
    EXPECT_EQ(hooked.load(), count);
    EXPECT_EQ(TaskPool::totalFailures(), failures_before + count / 2);
}

// ----------------------------------------------------------------
// Simulator cancellation
// ----------------------------------------------------------------

TEST(Cancellation, PreCancelledTokenStopsBeforeTheFirstCycle)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "jess";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);

    CancellationToken token;
    token.cancel();
    Simulation::RunOptions options;
    options.cancellation = &token;
    const RunResult result = sim.run(options);
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.allComplete);
    EXPECT_EQ(result.cycles, 0u);
}

TEST(Cancellation, StopsOnTheCheckLatticeIdenticallyWithAndWithoutFastForward)
{
    const auto cancelledRun = [](bool fast_forward) {
        SystemConfig config;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = "jess";
        spec.lengthScale = kTinyScale;
        sim.addProcess(spec);

        CancellationToken token;
        Simulation::RunOptions options;
        options.fastForward = fast_forward;
        options.cancellation = &token;
        options.cancelCheckIntervalCycles = 4096;
        options.sampleIntervalCycles = 8192;
        options.onSample = [&](Simulation&, Cycle now) {
            if (now >= 16384)
                token.cancel();
        };
        return sim.run(options);
    };
    const RunResult with_ff = cancelledRun(true);
    const RunResult without_ff = cancelledRun(false);
    EXPECT_TRUE(with_ff.cancelled);
    EXPECT_TRUE(without_ff.cancelled);
    EXPECT_FALSE(with_ff.allComplete);
    expectIdentical(with_ff, without_ff);
}

TEST(Cancellation, MeasureSoloThrowsTaskCancelledError)
{
    SystemConfig config;
    CancellationToken token;
    token.cancel();
    SoloOptions options;
    options.lengthScale = kTinyScale;
    options.cancel = &token;
    EXPECT_THROW(measureSolo(config, "jess", false, options),
                 TaskCancelledError);
}

TEST(Cancellation, UncancelledTokenDoesNotPerturbTheRun)
{
    SystemConfig config;
    SoloOptions plain;
    plain.lengthScale = kTinyScale;
    const RunResult baseline =
        measureSolo(config, "jess", true, plain);

    CancellationToken token;
    SoloOptions watched = plain;
    watched.cancel = &token;
    const RunResult supervised =
        measureSolo(config, "jess", true, watched);
    expectIdentical(baseline, supervised);
}

// ----------------------------------------------------------------
// Trace-sink degradation
// ----------------------------------------------------------------

std::atomic<int> g_failedAllocations{0};

void
failAllocation(std::size_t)
{
    g_failedAllocations.fetch_add(1);
    throw std::bad_alloc();
}

TEST(SinkDegradation, InjectedAllocationFailureDegradesGracefully)
{
    trace::TraceSink sink(1u << 12, failAllocation);
    EXPECT_TRUE(sink.degraded());
    EXPECT_EQ(g_failedAllocations.load(), 1);

    // Enable requests are ignored; emits are no-ops, not crashes.
    sink.setEnabled(true);
    EXPECT_FALSE(sink.enabled());
    sink.instant(trace::Track::kSim, "ignored", 1);
    EXPECT_EQ(sink.size(), 0u);

    // A run traced through a degraded sink is still correct.
    SystemConfig config;
    Machine machine(config);
    machine.setTraceSink(&sink);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "db";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    const RunResult traced = sim.run();
    EXPECT_TRUE(traced.allComplete);

    Machine plain_machine(config);
    Simulation plain_sim(plain_machine);
    plain_sim.addProcess(spec);
    expectIdentical(traced, plain_sim.run());
}

TEST(SinkDegradation, HealthySinkIsUnaffectedByEmptyPlan)
{
    trace::TraceSink sink(1u << 12);
    EXPECT_FALSE(sink.degraded());
    sink.setEnabled(true);
    EXPECT_TRUE(sink.enabled());
}

// ----------------------------------------------------------------
// Checkpoint/resume
// ----------------------------------------------------------------

RunResult
tinyResult(const std::string& benchmark, bool ht)
{
    SystemConfig config;
    SoloOptions options;
    options.lengthScale = kTinyScale;
    return measureSoloCached(config, benchmark, ht, options);
}

TEST(SweepCheckpoint, RoundTripsEntriesThroughTheManifest)
{
    const std::string path =
        testing::TempDir() + "jsmt_resilience_roundtrip.json";
    std::remove(path.c_str());
    const RunResult a = tinyResult("jess", false);
    const RunResult b = tinyResult("db", true);
    {
        ResultStore checkpoint(path);
        checkpoint.record("key/a", a);
        checkpoint.record("key/b", b);
        EXPECT_TRUE(checkpoint.flush());
        EXPECT_EQ(checkpoint.resumed(), 0u);
    }
    ResultStore resumed(path);
    EXPECT_EQ(resumed.resumed(), 2u);
    RunResult back;
    ASSERT_TRUE(resumed.lookup("key/a", &back));
    expectIdentical(a, back);
    ASSERT_TRUE(resumed.lookup("key/b", &back));
    expectIdentical(b, back);
    EXPECT_FALSE(resumed.lookup("key/missing", nullptr));
    std::remove(path.c_str());
}

TEST(SweepResume, SupervisedPairBatchReportsInsteadOfThrowing)
{
    // One cell throws; the batch reports it and the other cell
    // still runs.
    TaskPool::setBeforeTaskHook(
        [](const std::string& name, const CancellationToken&) {
            if (name == "pair/jess+db")
                throw std::runtime_error("injected pair failure");
        });
    MultiprogramRunner runner(SystemConfig{}, kTinyScale,
                              /*min_runs=*/3, /*jobs=*/2);
    BatchReport report;
    const std::vector<PairResult> results = runner.runPairs(
        {{"jess", "db"}, {"jess", "jess"}}, &report);
    TaskPool::setBeforeTaskHook(nullptr);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].name, "pair/jess+db");
    EXPECT_EQ(report.failures[0].kind, FailureKind::kException);
    EXPECT_EQ(report.failures[0].message, "injected pair failure");
    // The failed cell stays default-initialized; the other is real.
    EXPECT_EQ(results[0].combinedSpeedup, 0.0);
    EXPECT_GT(results[1].combinedSpeedup, 0.0);
}

} // namespace
} // namespace jsmt
