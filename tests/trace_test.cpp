/**
 * @file
 * Tests for the observability layer: TraceSink ring semantics and
 * Chrome trace_event export, and the CounterSeries behind
 * --sample-interval and --metrics, which must not perturb the run.
 * That tracing leaves every result bit-identical (with and without
 * fast-forward, serially and on a task pool) is the equivalence
 * harness's (equivalence_test.cpp).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/simulation.h"
#include "expect_identical.h"
#include "trace/metrics.h"
#include "trace/trace_sink.h"

namespace jsmt {
namespace {

using trace::CounterSeries;
using trace::TraceSink;
using trace::Track;

constexpr double kTinyScale = 0.02;

/** One solo run; optionally traced, optionally cycle-by-cycle. */
RunResult
runSolo(const std::string& benchmark, bool hyper_threading,
        bool fast_forward, TraceSink* sink)
{
    SystemConfig config;
    config.hyperThreading = hyper_threading;
    Machine machine(config);
    if (sink != nullptr)
        machine.setTraceSink(sink);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    Simulation::RunOptions options;
    options.fastForward = fast_forward;
    return sim.run(options);
}

// ----------------------------------------------------------------
// TraceSink mechanics
// ----------------------------------------------------------------

TEST(TraceSink, DisabledSinkCapturesNothing)
{
    TraceSink sink(8);
    ASSERT_FALSE(sink.enabled());
    sink.instant(Track::kSim, "a", 1);
    sink.instantArg(Track::kSim, "b", 2, "x", 3);
    sink.instantText(Track::kSim, "c", 3, "s", "text");
    sink.complete(Track::kMachine, "d", 4, 9);
    sink.span(Track::kContext0, "e", 5, 6);
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingOverwritesOldestAndCountsDrops)
{
    TraceSink sink(4);
    sink.setEnabled(true);
    for (Cycle ts = 0; ts < 10; ++ts)
        sink.instantArg(Track::kSim, "tick", ts, "i", ts);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    const std::vector<trace::TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: the surviving window is the most recent one.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].ts, 6 + i);
}

TEST(TraceSink, SpanMergesContiguousSameTrackSameName)
{
    TraceSink sink;
    sink.setEnabled(true);
    sink.span(Track::kContext0, "fetch_stall", 5, 6);
    sink.span(Track::kContext0, "fetch_stall", 6, 7);
    sink.span(Track::kContext0, "fetch_stall", 7, 10);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.events()[0].ts, 5u);
    EXPECT_EQ(sink.events()[0].dur, 5u);

    // A gap, a different name or a different track breaks the merge.
    sink.span(Track::kContext0, "fetch_stall", 12, 13);
    sink.span(Track::kContext0, "rob_full", 13, 14);
    sink.span(Track::kContext1, "rob_full", 14, 15);
    EXPECT_EQ(sink.size(), 4u);
}

TEST(TraceSink, ClearDropsEventsButKeepsCapacity)
{
    TraceSink sink(16);
    sink.setEnabled(true);
    sink.instant(Track::kSim, "a", 1);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.capacity(), 16u);
    sink.instant(Track::kSim, "b", 2);
    EXPECT_EQ(sink.size(), 1u);
}

// ----------------------------------------------------------------
// Chrome trace_event export
// ----------------------------------------------------------------

TEST(TraceExport, RealRunProducesValidMonotonicChromeTrace)
{
    TraceSink sink;
    sink.setEnabled(true);
    runSolo("compress", true, true, &sink);
    ASSERT_GT(sink.size(), 0u);

    std::ostringstream out;
    sink.writeChromeTrace(out);
    json::Value root;
    ASSERT_TRUE(json::parse(out.str(), &root))
        << "export is not valid JSON";
    ASSERT_TRUE(root.isObject());
    const json::Value* events = root.field("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->items.size(), 0u);

    std::uint64_t last_ts = 0;
    std::set<std::string> names;
    for (const json::Value& event : events->items) {
        ASSERT_TRUE(event.isObject());
        const std::string phase =
            json::asString(event.field("ph"));
        ASSERT_FALSE(phase.empty());
        ASSERT_NE(event.field("name"), nullptr);
        ASSERT_NE(event.field("pid"), nullptr);
        ASSERT_NE(event.field("tid"), nullptr);
        if (phase == "M")
            continue; // Metadata carries no timestamp ordering.
        const json::Value* ts = event.field("ts");
        ASSERT_NE(ts, nullptr);
        ASSERT_TRUE(ts->isNumber());
        EXPECT_GE(ts->number, last_ts) << "timestamps not sorted";
        last_ts = ts->number;
        names.insert(json::asString(event.field("name")));
        if (phase == "X") {
            ASSERT_NE(event.field("dur"), nullptr);
        }
    }
    // The instrumented landmarks of any solo run.
    EXPECT_TRUE(names.count("process_launch"));
    EXPECT_TRUE(names.count("process_exit"));
    EXPECT_TRUE(names.count("run"));
    EXPECT_TRUE(names.count("fast_forward"));
    EXPECT_TRUE(names.count("fetch_stall"));

    const json::Value* metadata = root.field("metadata");
    ASSERT_NE(metadata, nullptr);
    EXPECT_EQ(json::asNumber(metadata->field("dropped_events")),
              sink.dropped());
}

// ----------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------

/** A fresh machine set up to run @p benchmark at the tiny scale. */
struct TinyRun
{
    explicit TinyRun(const std::string& benchmark)
        : machine(SystemConfig{}), sim(machine)
    {
        WorkloadSpec spec;
        spec.benchmark = benchmark;
        spec.lengthScale = kTinyScale;
        sim.addProcess(spec);
    }

    Machine machine;
    Simulation sim;
};

/** @return the --metrics document of @p series. */
json::Value
metricsJson(const CounterSeries& series)
{
    std::ostringstream out;
    trace::writeMetricsJson(out, &series, nullptr);
    json::Value root;
    EXPECT_TRUE(json::parse(out.str(), &root)) << out.str();
    return root;
}

TEST(Metrics, SeriesBaselinesAtConstruction)
{
    // A series constructed mid-run measures only what follows: the
    // exported totals are the last row minus the baseline, and each
    // snapshot's counters are the deltas from the row before.
    TinyRun run("jess");
    Simulation::RunOptions first_half;
    first_half.maxCycles = 50'000;
    run.sim.run(first_half);
    ASSERT_GT(run.machine.pmu().rawTotal(EventId::kCycles), 0u);

    CounterSeries series(run.machine, run.sim.now());
    Simulation::RunOptions rest;
    rest.sampleIntervalCycles = 20'000;
    rest.onSample = [&](Simulation&, Cycle now) { series.record(now); };
    const RunResult result = run.sim.run(rest);
    ASSERT_TRUE(result.allComplete);
    series.record(run.sim.now());

    const json::Value root = metricsJson(series);
    const json::Value* metrics = root.field("metrics");
    const json::Value* snapshots = root.field("snapshots");
    ASSERT_NE(metrics, nullptr);
    ASSERT_NE(snapshots, nullptr);
    const std::vector<trace::SeriesRow>& rows = series.rows();
    ASSERT_EQ(snapshots->items.size(), rows.size() - 1);
    // The catalogue opens with each tracked event on lcpu0, lcpu1.
    const std::vector<EventId>& events = CounterSeries::trackedEvents();
    for (std::size_t e = 0; e < events.size(); ++e) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            const std::size_t id = e * kNumContexts + ctx;
            const json::Value& metric = metrics->items.at(id);
            ASSERT_EQ(json::asString(metric.field("name")),
                      eventName(events[e]));
            EXPECT_EQ(json::asNumber(metric.field("total")),
                      result.event(events[e], ctx))
                << eventName(events[e]) << " on context "
                << static_cast<int>(ctx);
            const auto line = static_cast<std::size_t>(events[e]);
            for (std::size_t i = 1; i < rows.size(); ++i) {
                const json::Value* counters =
                    snapshots->items[i - 1].field("counters");
                ASSERT_NE(counters, nullptr);
                EXPECT_EQ(json::asNumber(&counters->items.at(id)),
                          rows[i].counts[ctx][line] -
                              rows[i - 1].counts[ctx][line]);
            }
        }
    }
}

TEST(Metrics, SnapshotDeltasSumToRunResultTotals)
{
    TinyRun run("MolDyn");
    // Constructed immediately before run(): the baseline row lines
    // up with the RunResult's own PMU snapshot.
    CounterSeries series(run.machine, run.sim.now());
    Simulation::RunOptions options;
    options.sampleIntervalCycles = 10'000;
    options.onSample = [&](Simulation&, Cycle now) { series.record(now); };
    const RunResult result = run.sim.run(options);
    ASSERT_TRUE(result.allComplete);
    series.record(run.sim.now());

    const std::vector<trace::SeriesRow>& rows = series.rows();
    ASSERT_GT(rows.size(), 2u);
    EventCounts summed{};
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_LE(rows[i - 1].cycle, rows[i].cycle);
        const EventCounts delta =
            countsDelta(rows[i].counts, rows[i - 1].counts);
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            for (std::size_t e = 0; e < kNumEventIds; ++e)
                summed[ctx][e] += delta[ctx][e];
        }
    }
    for (std::size_t e = 0; e < kNumEventIds; ++e) {
        const auto event = static_cast<EventId>(e);
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            EXPECT_EQ(summed[ctx][e], result.event(event, ctx))
                << "event " << eventName(event) << " on context "
                << static_cast<int>(ctx);
        }
    }
}

TEST(Metrics, CollectionDoesNotPerturbTheRun)
{
    const RunResult bare = runSolo("RayTracer", true, true, nullptr);

    TinyRun run("RayTracer");
    CounterSeries series(run.machine, run.sim.now());
    Simulation::RunOptions options;
    options.sampleIntervalCycles = 5'000;
    options.onSample = [&](Simulation&, Cycle now) { series.record(now); };
    const RunResult measured = run.sim.run(options);
    expectIdentical(bare, measured);
}

TEST(Metrics, JsonExportParsesWithTheSharedParser)
{
    TinyRun run("compress");
    CounterSeries series(run.machine, run.sim.now());
    run.sim.run();
    series.record(run.sim.now());

    const json::Value root = metricsJson(series);
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(json::asNumber(root.field("version")), 1u);
    const json::Value* metrics = root.field("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isArray());
    EXPECT_GT(metrics->items.size(), 60u);
    const json::Value* snapshots = root.field("snapshots");
    ASSERT_NE(snapshots, nullptr);
    ASSERT_TRUE(snapshots->isArray());
    ASSERT_EQ(snapshots->items.size(), 1u);
    const json::Value* derived = root.field("derived");
    ASSERT_NE(derived, nullptr);
    ASSERT_TRUE(derived->isObject());
    EXPECT_NE(derived->field("ipc"), nullptr);
    EXPECT_GT(json::asReal(derived->field("ipc")), 0.0);
    EXPECT_NE(derived->field("l1d_mpki"), nullptr);
    EXPECT_NE(derived->field("task_pool_tasks_run"), nullptr);
}

} // namespace
} // namespace jsmt
