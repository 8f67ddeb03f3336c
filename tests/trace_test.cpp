/**
 * @file
 * Tests for the observability layer: TraceSink ring semantics and
 * Chrome trace_event export, and MetricsRegistry/MetricsCollector
 * accounting, which must not perturb the run. That tracing leaves
 * every result bit-identical (with and without fast-forward,
 * serially and on a task pool) is the equivalence harness's
 * (equivalence_test.cpp).
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

using trace::MetricsCollector;
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

TEST(Metrics, RegistryBaselinesCountersOnFirstSet)
{
    trace::MetricsRegistry registry;
    const std::size_t id = registry.addCounter("core", "c");
    registry.setCounter(id, 1000); // Baseline.
    EXPECT_EQ(registry.counterTotal(id), 0u);
    registry.setCounter(id, 1250);
    EXPECT_EQ(registry.counterTotal(id), 250u);
    registry.snapshot(10);
    registry.setCounter(id, 1300);
    registry.snapshot(20);
    const auto& rows = registry.snapshots();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].counterDeltas[0], 250u);
    EXPECT_EQ(rows[1].counterDeltas[0], 50u);
}

TEST(Metrics, SnapshotDeltasSumToRunResultTotals)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "MolDyn";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);

    // Constructed immediately before run(): counter baselines line
    // up with the RunResult's own PMU snapshot.
    MetricsCollector collector(machine);
    Simulation::RunOptions options;
    options.sampleIntervalCycles = 10'000;
    options.onSample = [&](Simulation&, Cycle now) {
        collector.collect(now);
    };
    const RunResult result = sim.run(options);
    ASSERT_TRUE(result.allComplete);
    collector.finish(sim.now());

    const auto& rows = collector.registry().snapshots();
    ASSERT_GT(rows.size(), 1u);
    for (const EventId event : MetricsCollector::trackedEvents()) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            const std::size_t id =
                collector.counterIdOf(event, ctx);
            std::uint64_t summed = 0;
            for (const auto& row : rows)
                summed += row.counterDeltas[id];
            EXPECT_EQ(summed, result.event(event, ctx))
                << "event " << eventName(event) << " on context "
                << static_cast<int>(ctx);
            EXPECT_EQ(collector.registry().counterTotal(id),
                      result.event(event, ctx));
        }
    }
}

TEST(Metrics, CollectionDoesNotPerturbTheRun)
{
    const RunResult bare = runSolo("RayTracer", true, true, nullptr);

    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "RayTracer";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    MetricsCollector collector(machine);
    Simulation::RunOptions options;
    options.sampleIntervalCycles = 5'000;
    options.onSample = [&](Simulation&, Cycle now) {
        collector.collect(now);
    };
    const RunResult measured = sim.run(options);
    expectIdentical(bare, measured);
}

TEST(Metrics, JsonExportParsesWithTheSharedParser)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    MetricsCollector collector(machine);
    sim.run();
    collector.finish(sim.now());

    std::ostringstream out;
    collector.writeJson(out);
    json::Value root;
    ASSERT_TRUE(json::parse(out.str(), &root));
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
