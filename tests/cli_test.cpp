/**
 * @file
 * End-to-end contract tests of the jsmt_run CLI, driven through the
 * installed binary (path injected as JSMT_RUN_BIN): usage errors
 * exit with code 2 and print the valid sets, malformed JSMT_*
 * environment values warn and fall back to defaults, and a sweep
 * resumed from a checkpoint manifest prints bit-identical stdout.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "common/json.h"

namespace jsmt {
namespace {

constexpr int kUsageError = 2;

struct CommandResult
{
    int status = -1;
    std::string output;
};

/** Run @p command through the shell, capturing its output. */
CommandResult
runCommand(const std::string& command)
{
    CommandResult result;
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0)
        result.output.append(buffer, n);
    const int rc = pclose(pipe);
    if (WIFEXITED(rc))
        result.status = WEXITSTATUS(rc);
    return result;
}

std::string
binary()
{
    return std::string("\"") + JSMT_RUN_BIN + "\"";
}

bool
contains(const std::string& haystack, const std::string& needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(CliUsage, UnknownFlagExitsTwoAndListsFlags)
{
    const CommandResult r =
        runCommand(binary() + " --no-such-flag 2>&1");
    EXPECT_EQ(r.status, kUsageError);
    EXPECT_TRUE(contains(r.output, "unknown option")) << r.output;
    // The valid flag set is printed so the user can self-correct.
    EXPECT_TRUE(contains(r.output, "--benchmark")) << r.output;
    EXPECT_TRUE(contains(r.output, "--task-timeout")) << r.output;
    EXPECT_TRUE(contains(r.output, "--resume")) << r.output;
}

TEST(CliUsage, UnknownBenchmarkExitsTwoAndListsBenchmarks)
{
    const CommandResult r = runCommand(
        binary() + " --benchmark not_a_benchmark 2>&1");
    EXPECT_EQ(r.status, kUsageError);
    EXPECT_TRUE(contains(r.output, "unknown benchmark"))
        << r.output;
    EXPECT_TRUE(contains(r.output, "compress")) << r.output;
    EXPECT_TRUE(contains(r.output, "PseudoJBB")) << r.output;
}

TEST(CliUsage, UnknownEventExitsTwoAndListsEvents)
{
    const CommandResult r = runCommand(
        binary() +
        " --benchmark compress --events not_an_event 2>&1");
    EXPECT_EQ(r.status, kUsageError);
    EXPECT_TRUE(contains(r.output, "unknown event")) << r.output;
    EXPECT_TRUE(contains(r.output, "cycles")) << r.output;
}

TEST(CliUsage, EmptyEventListExitsTwoAndListsEvents)
{
    const CommandResult r = runCommand(
        binary() + " --benchmark compress --scale 0.01 --events , 2>&1");
    EXPECT_EQ(r.status, kUsageError) << r.output;
    EXPECT_TRUE(contains(r.output, "--events needs at least one"))
        << r.output;
    EXPECT_TRUE(contains(r.output, "uops_retired")) << r.output;
}

TEST(CliUsage, MalformedNumericValueExitsTwo)
{
    EXPECT_EQ(runCommand(binary() +
                         " --benchmark compress --scale abc 2>&1")
                  .status,
              kUsageError);
    EXPECT_EQ(runCommand(binary() +
                         " --benchmark compress --task-timeout "
                         "soon 2>&1")
                  .status,
              kUsageError);
}

TEST(CliUsage, NegativeTaskTimeoutExitsTwo)
{
    const CommandResult r = runCommand(
        binary() + " --sweep jess --scale 0.02 --task-timeout -1 2>&1");
    EXPECT_EQ(r.status, kUsageError) << r.output;
    EXPECT_TRUE(contains(r.output, "--task-timeout")) << r.output;
}

TEST(CliUsage, MissingFlagValueExitsTwo)
{
    const CommandResult r =
        runCommand(binary() + " --benchmark 2>&1");
    EXPECT_EQ(r.status, kUsageError);
}

TEST(CliEnv, MalformedJobsWarnsAndStillRuns)
{
    // Sweep mode consumes JSMT_JOBS (the worker pool); the
    // malformed value must warn and fall back, not abort.
    const CommandResult r = runCommand(
        "JSMT_JOBS=abc " + binary() +
        " --sweep jess --scale 0.02 2>&1");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_TRUE(contains(r.output, "JSMT_JOBS")) << r.output;
}

TEST(CliSweep, SupervisionFlagsAreAccepted)
{
    const CommandResult r = runCommand(
        binary() +
        " --sweep jess --scale 0.02 --task-timeout 300 2>&1");
    EXPECT_EQ(r.status, 0) << r.output;
    // Failed tasks are reported, never re-run: there is no retry
    // count to set.
    EXPECT_EQ(runCommand(binary() +
                         " --sweep jess --scale 0.02 --retries 2 2>&1")
                  .status,
              kUsageError);
}

TEST(CliSweep, UnrepresentableTaskTimeoutMeansNoDeadline)
{
    // Seconds beyond the clock's range must disable the deadline,
    // not wrap it into the past and time out every task.
    const CommandResult r = runCommand(
        binary() + " --sweep jess --scale 0.02 --task-timeout 1e10 2>&1");
    EXPECT_EQ(r.status, 0) << r.output;
    EXPECT_TRUE(contains(r.output, "2/2 tasks succeeded")) << r.output;
}

TEST(CliSweep, DeadlineThatFiresExitsOneAndResumeCompletes)
{
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_deadline_manifest.json";
    std::remove(manifest.c_str());
    const std::string sweep = binary() + " --sweep jess,db --scale 0.02";
    const CommandResult cold = runCommand(sweep + " 2>/dev/null");
    ASSERT_EQ(cold.status, 0) << cold.output;

    // A nanosecond deadline has passed before the simulator's first
    // cancellation check, so every point times out.
    const CommandResult timed_out = runCommand(
        sweep + " --task-timeout 1e-9 --resume \"" + manifest +
        "\" 2>&1 1>/dev/null");
    EXPECT_EQ(timed_out.status, 1) << timed_out.output;
    EXPECT_TRUE(contains(timed_out.output,
                         "0/4 tasks succeeded, 4 timeouts"))
        << timed_out.output;

    // Nothing timed out was recorded: the same manifest with no
    // deadline measures every point and prints the cold table.
    const CommandResult resumed = runCommand(
        sweep + " --resume \"" + manifest + "\" 2>/dev/null");
    EXPECT_EQ(resumed.status, 0) << resumed.output;
    EXPECT_EQ(cold.output, resumed.output);
    std::remove(manifest.c_str());
}

TEST(CliSweep, GarbageManifestStartsColdWithIdenticalStdout)
{
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_garbage_manifest.json";
    const std::string sweep = binary() + " --sweep jess,db --scale 0.02";
    const CommandResult cold = runCommand(sweep + " 2>/dev/null");
    ASSERT_EQ(cold.status, 0) << cold.output;

    std::ofstream(manifest, std::ios::trunc | std::ios::binary)
        << "{\"version\":2,\x01garbage\x02";
    const CommandResult damaged = runCommand(
        sweep + " --resume \"" + manifest + "\" 2>/dev/null");
    EXPECT_EQ(damaged.status, 0) << damaged.output;
    EXPECT_EQ(cold.output, damaged.output);
    std::remove(manifest.c_str());
}

TEST(CliSweep, TruncatedTmpBesideManifestResumesEveryPoint)
{
    // What a crash between write() and rename() leaves behind: the
    // published manifest plus a half-written .tmp sibling.
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_truncated_manifest.json";
    const std::string tmp = manifest + ".tmp";
    std::remove(manifest.c_str());
    const std::string sweep = binary() +
                              " --sweep jess,db --scale 0.02"
                              " --resume \"" +
                              manifest + "\"";
    const CommandResult cold = runCommand(sweep + " 2>/dev/null");
    ASSERT_EQ(cold.status, 0) << cold.output;

    std::ifstream in(manifest, std::ios::binary);
    const std::string published((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    ASSERT_FALSE(published.empty());
    std::ofstream(tmp, std::ios::trunc | std::ios::binary)
        << published.substr(0, published.size() / 2);

    const CommandResult resumed =
        runCommand(sweep + " 2>&1 1>/dev/null");
    EXPECT_EQ(resumed.status, 0) << resumed.output;
    EXPECT_TRUE(contains(resumed.output,
                         "resumed 4 completed measurement(s)"))
        << resumed.output;
    EXPECT_EQ(runCommand(sweep + " 2>/dev/null").output, cold.output);
    std::remove(tmp.c_str());
    std::remove(manifest.c_str());
}

TEST(CliSweep, ResumedSweepPrintsBitIdenticalStdout)
{
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_sweep_manifest.json";
    std::remove(manifest.c_str());
    const std::string sweep =
        binary() + " --sweep jess,db --scale 0.02 --resume \"" +
        manifest + "\" 2>/dev/null";

    const CommandResult cold = runCommand(sweep);
    ASSERT_EQ(cold.status, 0) << cold.output;
    EXPECT_TRUE(std::ifstream(manifest).good())
        << "manifest not written";

    // Second invocation replays every point from the manifest; the
    // measurement table must be byte-identical.
    const CommandResult resumed = runCommand(sweep);
    ASSERT_EQ(resumed.status, 0) << resumed.output;
    EXPECT_EQ(cold.output, resumed.output);

    // The resumed-entry count is reported on stderr, never stdout.
    const CommandResult chatty = runCommand(
        binary() + " --sweep jess,db --scale 0.02 --resume \"" +
        manifest + "\" 2>&1 1>/dev/null");
    EXPECT_EQ(chatty.status, 0);
    EXPECT_TRUE(contains(chatty.output, "resumed")) << chatty.output;
    std::remove(manifest.c_str());
}

TEST(CliUsage, AllocationFlagsAreValidated)
{
    const CommandResult policy = runCommand(
        binary() + " --cores 2 --alloc not_a_policy 2>&1");
    EXPECT_EQ(policy.status, kUsageError);
    EXPECT_TRUE(contains(policy.output, "unknown allocation"))
        << policy.output;
    // The valid policy set is printed so the user can self-correct.
    EXPECT_TRUE(contains(policy.output, "static-pin"))
        << policy.output;
    EXPECT_TRUE(contains(policy.output, "ipc-symbiosis"))
        << policy.output;

    EXPECT_EQ(runCommand(binary() + " --cores 0 2>&1").status,
              kUsageError);
    EXPECT_EQ(runCommand(binary() + " --alloc-epoch 0 2>&1").status,
              kUsageError);
    // Interval sampling and stage profiling are single-core-only.
    EXPECT_EQ(runCommand(binary() +
                         " --cores 2 --sample-interval 1000 2>&1")
                  .status,
              kUsageError);
    // ... and need a --benchmark run, which sweeps are not.
    EXPECT_EQ(runCommand(binary() +
                         " --sweep jess --scale 0.01"
                         " --sample-interval 1000 --profile 2>&1")
                  .status,
              kUsageError);
    EXPECT_EQ(runCommand(binary() +
                         " --pair-matrix --scale 0.01 --profile 2>&1")
                  .status,
              kUsageError);
    // The pair matrix runs a fixed workload list.
    EXPECT_EQ(runCommand(binary() +
                         " --pair-matrix --benchmark jess 2>&1")
                  .status,
              kUsageError);
    EXPECT_EQ(runCommand(binary() +
                         " --pair-matrix --resume m.json 2>&1")
                  .status,
              kUsageError);
}

TEST(CliUsage, StepThreadsFlagIsValidated)
{
    // Out of range: the flag caps at 64 workers (0 = auto).
    const CommandResult range = runCommand(
        binary() + " --cores 2 --step-threads 65 2>&1");
    EXPECT_EQ(range.status, kUsageError);
    EXPECT_TRUE(contains(range.output, "--step-threads"))
        << range.output;
    EXPECT_TRUE(contains(range.output, "[0, 64]")) << range.output;
    // Malformed and missing values follow the numeric-flag
    // contract.
    EXPECT_EQ(runCommand(binary() +
                         " --cores 2 --step-threads many 2>&1")
                  .status,
              kUsageError);
    EXPECT_EQ(
        runCommand(binary() + " --step-threads 2>&1").status,
        kUsageError);
}

/** @return the whole of file @p path ("" when unreadable). */
std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(CliRun, MultiCoreTraceAndMetricsAreWritten)
{
    // A chip run writes --trace and --metrics through the same
    // writers as a single-core run, and the metrics' alloc totals
    // are the counts the alloc line prints.
    const std::string trace_path =
        testing::TempDir() + "jsmt_cli_chip_trace.json";
    const std::string metrics_path =
        testing::TempDir() + "jsmt_cli_chip_metrics.json";
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
    const CommandResult r = runCommand(
        binary() +
        " --benchmark jess --benchmark db --cores 2"
        " --alloc round-robin --alloc-epoch 20000 --scale 0.02"
        " --trace \"" + trace_path + "\" --metrics \"" +
        metrics_path + "\" 2>&1");
    ASSERT_EQ(r.status, 0) << r.output;

    json::Value trace;
    ASSERT_TRUE(json::parse(readFile(trace_path), &trace));
    const json::Value* events = trace.field("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_FALSE(events->items.empty());

    const std::size_t line = r.output.find("alloc: ");
    ASSERT_NE(line, std::string::npos) << r.output;
    unsigned long long epochs = 0;
    unsigned long long migrations = 0;
    unsigned long long steals = 0;
    ASSERT_EQ(std::sscanf(r.output.c_str() + line,
                          "alloc: %llu epoch(s), %llu migration(s), "
                          "%llu steal(s)",
                          &epochs, &migrations, &steals),
              3)
        << r.output;
    EXPECT_GT(epochs, 0u) << r.output;

    json::Value metrics;
    ASSERT_TRUE(json::parse(readFile(metrics_path), &metrics));
    const json::Value* list = metrics.field("metrics");
    ASSERT_NE(list, nullptr);
    std::size_t found = 0;
    for (const json::Value& metric : list->items) {
        if (json::asString(metric.field("module")) != "alloc")
            continue;
        const std::string name =
            json::asString(metric.field("name"));
        const unsigned long long total =
            json::asNumber(metric.field("total"));
        ++found;
        if (name == "epochs")
            EXPECT_EQ(total, epochs);
        else if (name == "migrations")
            EXPECT_EQ(total, migrations);
        else if (name == "steals")
            EXPECT_EQ(total, steals);
        else
            ADD_FAILURE() << "unexpected alloc metric " << name;
    }
    EXPECT_EQ(found, 3u);
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST(CliRun, SampleIntervalSeriesCoversTheRun)
{
    const CommandResult r = runCommand(
        binary() + " --benchmark compress --scale 0.02"
                   " --sample-interval 10000"
                   " --events cycles,uops_retired,gc_uops 2>&1");
    ASSERT_EQ(r.status, 0) << r.output;
    unsigned long long run_cycles = 0;
    const std::size_t run = r.output.find("run: ");
    ASSERT_NE(run, std::string::npos) << r.output;
    ASSERT_EQ(std::sscanf(r.output.c_str() + run, "run: %llu cycles",
                          &run_cycles),
              1);

    // The counters table gives each event's total; every series row
    // is "cycle cycles uops_retired gc_uops".
    const std::vector<std::string> columns = {"cycles", "uops_retired",
                                              "gc_uops"};
    std::vector<unsigned long long> totals(columns.size(), 0);
    std::vector<unsigned long long> sums(columns.size(), 0);
    std::size_t rows = 0;
    bool in_series = false;
    std::istringstream lines(r.output);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("time series", 0) == 0) {
            in_series = true;
            continue;
        }
        std::istringstream fields(line);
        std::string first;
        fields >> first;
        if (!in_series) {
            for (std::size_t c = 0; c < columns.size(); ++c) {
                unsigned long long lcpu0 = 0;
                unsigned long long lcpu1 = 0;
                if (first == columns[c])
                    fields >> lcpu0 >> lcpu1 >> totals[c];
            }
        } else if (!first.empty() && std::isdigit(first[0])) {
            ++rows;
            for (std::size_t c = 0; c < columns.size(); ++c) {
                unsigned long long cell = 0;
                ASSERT_TRUE(fields >> cell) << line;
                if (c == 0) {
                    EXPECT_EQ(cell, 10'000u) << line;
                }
                sums[c] += cell;
            }
        }
    }
    EXPECT_EQ(rows, run_cycles / 10'000) << r.output;
    for (std::size_t c = 0; c < columns.size(); ++c)
        EXPECT_LE(sums[c], totals[c]) << columns[c];
    EXPECT_GT(totals[1], 0u) << r.output;
    EXPECT_GE(sums[1], totals[1] * 9 / 10) << r.output;
}

/** @return the data rows of @p output's time-series table. */
std::vector<std::vector<unsigned long long>>
seriesRows(const std::string& output)
{
    std::vector<std::vector<unsigned long long>> rows;
    std::istringstream lines(output.substr(output.find("time series")));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || !std::isdigit(line[0]))
            continue;
        std::istringstream fields(line);
        std::vector<unsigned long long> row;
        unsigned long long cell = 0;
        while (fields >> cell)
            row.push_back(cell);
        rows.push_back(row);
    }
    return rows;
}

TEST(CliRun, SampleTableAndMetricsRenderOneSeries)
{
    // The --sample-interval table and the --metrics snapshots are
    // rendered from one recorded series: each table row is the
    // matching snapshot's two context deltas summed, and the file
    // has one more snapshot, the run end.
    const std::string metrics_path =
        testing::TempDir() + "jsmt_cli_series_metrics.json";
    std::remove(metrics_path.c_str());
    // gc_uops is not a --metrics event; the table still shows it.
    const std::vector<std::string> events = {
        "cycles", "uops_retired", "l1d_miss", "gc_uops",
        "context_switches"};
    const CommandResult r = runCommand(
        binary() + " --benchmark MolDyn:2 --scale 0.02"
                   " --sample-interval 20000 --events"
                   " cycles,uops_retired,l1d_miss,gc_uops,"
                   "context_switches --metrics \"" +
        metrics_path + "\" 2>&1");
    ASSERT_EQ(r.status, 0) << r.output;
    const auto table = seriesRows(r.output);
    ASSERT_GT(table.size(), 2u) << r.output;

    json::Value metrics;
    ASSERT_TRUE(json::parse(readFile(metrics_path), &metrics));
    const json::Value* list = metrics.field("metrics");
    const json::Value* snapshots = metrics.field("snapshots");
    ASSERT_NE(list, nullptr);
    ASSERT_NE(snapshots, nullptr);
    ASSERT_EQ(snapshots->items.size(), table.size() + 1);

    // Counters lead the catalogue, so an event's catalogue position
    // on a context is its index in each snapshot's counters.
    std::size_t tracked = 0;
    for (std::size_t c = 0; c < events.size(); ++c) {
        std::vector<std::size_t> ids;
        for (std::size_t id = 0; id < list->items.size(); ++id) {
            const json::Value& metric = list->items[id];
            if (json::asString(metric.field("kind")) == "counter" &&
                json::asString(metric.field("name")) == events[c] &&
                !json::asString(metric.field("context")).empty())
                ids.push_back(id);
        }
        if (ids.empty())
            continue;
        ASSERT_EQ(ids.size(), 2u) << events[c];
        ++tracked;
        for (std::size_t i = 0; i < table.size(); ++i) {
            const json::Value& snapshot = snapshots->items[i];
            ASSERT_EQ(table[i].size(), events.size() + 1);
            EXPECT_EQ(table[i][0],
                      json::asNumber(snapshot.field("cycle")));
            const json::Value* counters = snapshot.field("counters");
            ASSERT_NE(counters, nullptr);
            EXPECT_EQ(table[i][c + 1],
                      json::asNumber(&counters->items.at(ids[0])) +
                          json::asNumber(&counters->items.at(ids[1])))
                << events[c] << " at row " << i;
        }
    }
    EXPECT_EQ(tracked, events.size() - 1);
    std::remove(metrics_path.c_str());
}

TEST(CliRun, BatchMetricsHoldOnlyWhatTheBatchMeasured)
{
    // A batch probes no one machine: its --metrics file has no
    // machine metrics and no snapshots, only the exec figures and,
    // for the pair matrix, the alloc totals the aggregate prints.
    const std::string metrics_path =
        testing::TempDir() + "jsmt_cli_batch_metrics.json";
    std::remove(metrics_path.c_str());
    const CommandResult sweep = runCommand(
        binary() + " --sweep jess --scale 0.02 --metrics \"" +
        metrics_path + "\" 2>&1");
    ASSERT_EQ(sweep.status, 0) << sweep.output;
    json::Value doc;
    ASSERT_TRUE(json::parse(readFile(metrics_path), &doc));
    ASSERT_NE(doc.field("metrics"), nullptr);
    EXPECT_TRUE(doc.field("metrics")->items.empty());
    ASSERT_NE(doc.field("snapshots"), nullptr);
    EXPECT_TRUE(doc.field("snapshots")->items.empty());
    const json::Value* derived = doc.field("derived");
    ASSERT_NE(derived, nullptr);
    EXPECT_EQ(derived->field("ipc"), nullptr);
    EXPECT_EQ(derived->field("horizon_skip_pct"), nullptr);
    EXPECT_EQ(json::asNumber(derived->field("task_pool_tasks_run")),
              2u);

    std::remove(metrics_path.c_str());
    const CommandResult matrix = runCommand(
        binary() +
        " --pair-matrix --cores 2 --alloc ipc-symbiosis"
        " --alloc-epoch 20000 --scale 0.01 --metrics \"" +
        metrics_path + "\" 2>&1");
    ASSERT_EQ(matrix.status, 0) << matrix.output;
    const std::size_t line = matrix.output.find("aggregate: ");
    ASSERT_NE(line, std::string::npos) << matrix.output;
    double throughput = 0.0;
    unsigned long long migrations = 0;
    unsigned long long steals = 0;
    ASSERT_EQ(std::sscanf(matrix.output.c_str() + line,
                          "aggregate: mean throughput %lf uops/cycle,"
                          " %llu migration(s), %llu steal(s)",
                          &throughput, &migrations, &steals),
              3)
        << matrix.output;
    EXPECT_GT(migrations, 0u) << matrix.output;
    json::Value alloc;
    ASSERT_TRUE(json::parse(readFile(metrics_path), &alloc));
    ASSERT_NE(alloc.field("metrics"), nullptr);
    std::vector<std::string> names;
    for (const json::Value& metric : alloc.field("metrics")->items) {
        EXPECT_EQ(json::asString(metric.field("module")), "alloc");
        const std::string name = json::asString(metric.field("name"));
        names.push_back(name);
        const unsigned long long total =
            json::asNumber(metric.field("total"));
        if (name == "migrations") {
            EXPECT_EQ(total, migrations);
        } else if (name == "steals") {
            EXPECT_EQ(total, steals);
        }
    }
    EXPECT_EQ(names, (std::vector<std::string>{"epochs", "migrations",
                                               "steals"}));
    ASSERT_NE(alloc.field("snapshots"), nullptr);
    EXPECT_TRUE(alloc.field("snapshots")->items.empty());
    ASSERT_NE(alloc.field("derived"), nullptr);
    EXPECT_EQ(alloc.field("derived")->field("ipc"), nullptr);
    std::remove(metrics_path.c_str());
}

TEST(CliSweep, ResumeAcrossStepThreadCountsIsBitIdentical)
{
    // Sweep entries are invariant to the stepping engine's worker
    // count, so a manifest recorded under --step-threads 4 must
    // resume a --step-threads 1 sweep bit-identically (and the
    // topology check must not see the two as different chips).
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_stepthreads_manifest.json";
    std::remove(manifest.c_str());
    const std::string sweep_args =
        " --sweep jess --scale 0.02 --cores 2 --alloc round-robin"
        " --resume \"" + manifest + "\"";

    const CommandResult cold = runCommand(
        binary() + sweep_args + " --step-threads 4 2>/dev/null");
    ASSERT_EQ(cold.status, 0) << cold.output;

    const CommandResult resumed = runCommand(
        binary() + sweep_args + " --step-threads 1 2>&1");
    ASSERT_EQ(resumed.status, 0) << resumed.output;
    EXPECT_TRUE(contains(resumed.output, "resumed"))
        << resumed.output;

    const CommandResult replay = runCommand(
        binary() + sweep_args + " --step-threads 1 2>/dev/null");
    ASSERT_EQ(replay.status, 0) << replay.output;
    EXPECT_EQ(cold.output, replay.output);

    // Legacy manifests predate the step-threads topology field:
    // strip it from the recorded topology and the manifest must
    // still resume (the identity comparison ignores the field).
    runCommand("sed -i 's/;step-threads=any//' \"" + manifest +
               "\"");
    const CommandResult legacy = runCommand(
        binary() + sweep_args + " 2>/dev/null");
    ASSERT_EQ(legacy.status, 0) << legacy.output;
    EXPECT_EQ(cold.output, legacy.output);
    std::remove(manifest.c_str());
}

TEST(CliSweep, StepThreadsStdoutIdenticalAcrossJobCounts)
{
    // One job passes --step-threads 4 through to every point; four
    // jobs step each point serially. The table must not notice.
    const std::string args =
        " --sweep jess --scale 0.02 --cores 2 --step-threads 4"
        " 2>/dev/null";
    const CommandResult one =
        runCommand("JSMT_JOBS=1 " + binary() + args);
    ASSERT_EQ(one.status, 0) << one.output;
    const CommandResult four =
        runCommand("JSMT_JOBS=4 " + binary() + args);
    ASSERT_EQ(four.status, 0) << four.output;
    EXPECT_EQ(one.output, four.output);
}

TEST(CliProfile, StageSharesSumToOneHundredPercent)
{
    // The residue row is signed, so the six shares add up to the
    // wall time even when the sampled stages over-count it.
    const CommandResult r = runCommand(
        binary() + " --benchmark compress --scale 0.02 --profile "
                   "2>&1 >/dev/null");
    ASSERT_EQ(r.status, 0) << r.output;
    const std::vector<std::string> rows = {
        "retire",     "fetch+alloc",  "memory walk",
        "accounting", "fast_forward", "driver/other"};
    std::istringstream lines(r.output);
    std::string line;
    std::size_t found = 0;
    double sum = 0.0;
    while (std::getline(lines, line)) {
        for (const std::string& row : rows) {
            if (line.rfind("  " + row + ' ', 0) != 0)
                continue;
            const std::size_t pct = line.find('%');
            ASSERT_NE(pct, std::string::npos) << line;
            const std::size_t start = line.rfind(' ', pct) + 1;
            sum += std::stod(line.substr(start, pct - start));
            ++found;
        }
    }
    ASSERT_EQ(found, rows.size()) << r.output;
    EXPECT_NEAR(sum, 100.0, 0.5) << r.output;
}

TEST(CliSweep, ResumeRefusesMismatchedTopology)
{
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_topology_manifest.json";
    std::remove(manifest.c_str());

    // Write the manifest with the default single-core topology.
    const CommandResult cold = runCommand(
        binary() + " --sweep jess --scale 0.02 --resume \"" +
        manifest + "\" 2>&1");
    ASSERT_EQ(cold.status, 0) << cold.output;

    // Resuming it on a different chip must refuse with exit 2 and
    // name both topologies, not silently mix the measurements.
    const CommandResult mismatch = runCommand(
        binary() + " --sweep jess --scale 0.02 --cores 2 "
                   "--alloc round-robin --resume \"" +
        manifest + "\" 2>&1");
    EXPECT_EQ(mismatch.status, kUsageError) << mismatch.output;
    EXPECT_TRUE(contains(mismatch.output, "topology"))
        << mismatch.output;
    EXPECT_TRUE(contains(mismatch.output,
                         "cores=1;alloc=static-pin"))
        << mismatch.output;
    EXPECT_TRUE(contains(mismatch.output,
                         "cores=2;alloc=round-robin"))
        << mismatch.output;

    // The refused invocation must leave the manifest intact: the
    // original topology still resumes from it bit-identically.
    const CommandResult resumed = runCommand(
        binary() + " --sweep jess --scale 0.02 --resume \"" +
        manifest + "\" 2>/dev/null");
    EXPECT_EQ(resumed.status, 0) << resumed.output;
    std::remove(manifest.c_str());
}

TEST(CliSweep, MultiCoreSweepCheckpointsItsTopology)
{
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_cores2_manifest.json";
    std::remove(manifest.c_str());
    const std::string sweep =
        binary() + " --sweep compress --scale 0.02 --cores 2 "
                   "--alloc ipc-symbiosis --resume \"" +
        manifest + "\"";

    const CommandResult cold = runCommand(sweep + " 2>/dev/null");
    ASSERT_EQ(cold.status, 0) << cold.output;

    // The manifest records the chip shape it was measured on.
    std::ifstream in(manifest);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_TRUE(contains(text, "cores=2;alloc=ipc-symbiosis"))
        << text;

    // Same topology resumes bit-identically.
    const CommandResult resumed =
        runCommand(sweep + " 2>/dev/null");
    ASSERT_EQ(resumed.status, 0) << resumed.output;
    EXPECT_EQ(cold.output, resumed.output);

    // The single-core default refuses it.
    const CommandResult mismatch = runCommand(
        binary() + " --sweep compress --scale 0.02 --resume \"" +
        manifest + "\" 2>&1");
    EXPECT_EQ(mismatch.status, kUsageError) << mismatch.output;
    EXPECT_TRUE(contains(mismatch.output, "topology"))
        << mismatch.output;
    std::remove(manifest.c_str());
}

TEST(CliSweep, ResumeRefusesAManifestFromAnotherL2Contract)
{
    // A chip manifest records its shared-L2 contract. One written
    // before the quantum barrier carries no l2 field; resuming it
    // would mix two models in one table, so it must be refused.
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_l2_contract_manifest.json";
    std::remove(manifest.c_str());
    const std::string sweep =
        binary() + " --sweep jess --scale 0.02 --cores 2 "
                   "--alloc round-robin --resume \"" +
        manifest + "\"";
    const CommandResult cold = runCommand(sweep + " 2>/dev/null");
    ASSERT_EQ(cold.status, 0) << cold.output;
    std::ifstream in(manifest);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_TRUE(contains(text, "cores=2;alloc=round-robin;l2=quantum"))
        << text;

    runCommand("sed -i 's/;l2=quantum//' \"" + manifest + "\"");
    const CommandResult mismatch = runCommand(sweep + " 2>&1");
    EXPECT_EQ(mismatch.status, kUsageError) << mismatch.output;
    EXPECT_TRUE(contains(mismatch.output, "topology"))
        << mismatch.output;
    EXPECT_TRUE(contains(mismatch.output, "l2=quantum"))
        << mismatch.output;
    std::remove(manifest.c_str());
}

TEST(CliSweep, SigkilledSweepResumesBitIdentically)
{
    const std::string manifest =
        testing::TempDir() + "jsmt_cli_kill_manifest.json";
    std::remove(manifest.c_str());
    // Large enough that the whole sweep takes a few seconds, so
    // the SIGKILL below lands while measurements are in flight.
    const std::string sweep_args = " --sweep jess,db --scale 0.5";

    // Uninterrupted golden run, no checkpoint.
    const CommandResult baseline =
        runCommand(binary() + sweep_args + " 2>/dev/null");
    ASSERT_EQ(baseline.status, 0);

    // Start the checkpointed sweep and SIGKILL the driver mid-run;
    // completed points are already in the manifest (flushed on
    // every completion through the atomic-rename protocol).
    runCommand("JSMT_JOBS=2 " + binary() + sweep_args +
               " --resume \"" + manifest +
               "\" >/dev/null 2>&1 & CPID=$!; sleep 1.2;"
               " kill -9 $CPID 2>/dev/null; wait $CPID 2>/dev/null");

    // Resume: replay the manifest, simulate only the remainder.
    // The measurement table must match the golden run byte for
    // byte (covers both benchmarks in both HT modes).
    const CommandResult resumed = runCommand(
        binary() + sweep_args + " --resume \"" + manifest +
        "\" 2>/dev/null");
    ASSERT_EQ(resumed.status, 0);
    EXPECT_EQ(baseline.output, resumed.output);
    std::remove(manifest.c_str());
}

} // namespace
} // namespace jsmt
