/**
 * @file
 * jsmt_run — general-purpose command-line driver for the simulator.
 *
 * Runs any mix of the registered Java benchmarks on the modelled
 * Hyper-Threading Pentium 4, with full control over machine mode,
 * workload scale, counter selection and interval sampling.
 *
 * A --benchmark run takes one path whatever the topology: one core
 * runs a Simulation, --cores N a MultiCoreSimulation, and both
 * report from one folded RunResult (a chip adds its allocation
 * summary). One helper builds the machine of every mode. One
 * counter series of the probed machine feeds both the
 * --sample-interval table and the --metrics file, and one writer
 * exports --metrics for all four modes (run, chip run, --sweep,
 * --pair-matrix).
 *
 * Usage:
 *   jsmt_run [options]
 *     --benchmark NAME[:THREADS]   workload to run (repeatable; a
 *                                  second one makes the run
 *                                  multiprogrammed)
 *     --ht on|off                  Hyper-Threading (default on)
 *     --cores N                    physical cores of the chip
 *                                  (default 1; N > 1 shares the L2
 *                                  across cores and enables process
 *                                  migration between them)
 *     --alloc POLICY               core-allocation policy:
 *                                  static-pin | round-robin |
 *                                  ipc-symbiosis | l2-footprint
 *                                  (default static-pin)
 *     --alloc-epoch N              allocation epoch in cycles
 *                                  (default 200000); cores run
 *                                  independently for one epoch, then
 *                                  rebalance
 *     --step-threads N             worker threads stepping the core
 *                                  slices inside each epoch
 *                                  (default 1 = serial reference;
 *                                  0 = one per host hardware
 *                                  thread; max 64; at most one per
 *                                  core). --sweep and --pair-matrix
 *                                  honour it only with one job
 *                                  (JSMT_JOBS=1); with more, each
 *                                  point steps serially. Results are
 *                                  bit-identical for every value —
 *                                  this is purely a wall-clock knob
 *     --pair-matrix                run the canonical pair matrix
 *                                  (the ten identical benchmark
 *                                  pairs, 2 x cores processes per
 *                                  cell) under --alloc and print the
 *                                  per-cell throughput table
 *     --pair-matrix-full           like --pair-matrix but all 55
 *                                  unordered benchmark combinations
 *     --dynamic-partition          use the paper's SS4.3 proposal
 *                                  instead of the P4's static split
 *     --scale S                    length multiplier (default 0.5)
 *     --seed N                     master seed (default 42)
 *     --events a,b,c               PMU events to report (default:
 *                                  headline set)
 *     --sample-interval N          also print a time series sampled
 *                                  every N cycles (this flag and
 *                                  --profile need a single-core
 *                                  --benchmark run)
 *     --no-fast-forward            simulate every stalled cycle
 *                                  (cross-check for the fast-forward
 *                                  optimisation; results must be
 *                                  identical)
 *     --profile                    print a per-stage wall-time
 *                                  breakdown of the simulator hot
 *                                  path (retire / fetch+alloc /
 *                                  memory walk / accounting) to
 *                                  stderr after the run, sampled
 *                                  from one executed cycle in 127,
 *                                  and the probe's own overhead
 *                                  against an unprofiled re-run;
 *                                  the results are unchanged
 *     --trace FILE                 capture a Chrome trace_event JSON
 *                                  timeline of the run (open in
 *                                  Perfetto / chrome://tracing)
 *     --metrics FILE               export the counter series as
 *                                  JSON: run totals, gauges,
 *                                  histograms and one snapshot per
 *                                  sample edge (every
 *                                  --sample-interval cycles, else
 *                                  every 1M) and at the run end;
 *                                  --sweep and --pair-matrix export
 *                                  only the exec figures (and the
 *                                  pair matrix's alloc counters)
 *     --list-benchmarks            print the registry and exit
 *     --list-events                print the event catalogue, exit
 *     --sweep NAMES                solo sweep of the
 *                                  comma-separated benchmarks, each
 *                                  measured HT-off and HT-on
 *     --resume MANIFEST            checkpoint the sweep to MANIFEST
 *                                  and resume completed points from
 *                                  it (created if missing); the
 *                                  manifest records the chip
 *                                  topology (--cores/--alloc), and
 *                                  resuming under a different
 *                                  topology is refused (exit 2)
 *     --task-timeout SEC           per-task wall-clock deadline for
 *                                  --sweep points (0 = none; negative
 *                                  exits 2); a task past it is
 *                                  reported as failed
 *
 * Invalid usage (unknown flag, malformed value, unknown benchmark
 * or event) exits with code 2 after printing the valid set.
 * Malformed JSMT_* environment values warn and fall back to their
 * defaults instead of silently misconfiguring the run.
 *
 * When JSMT_RUN_CACHE names a file, non-sampled runs are memoized
 * there: repeating an invocation replays the cached RunResult
 * instead of re-simulating. Traced runs bypass the memo — a cached
 * replay skips the simulation, so it cannot produce a timeline.
 *
 * Examples:
 *   jsmt_run --benchmark PseudoJBB:4
 *   jsmt_run --benchmark jack --benchmark jess --events \
 *       trace_cache_miss,l1d_miss
 *   jsmt_run --sweep jess,MolDyn --resume sweep.json \
 *       --task-timeout 300
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "core/simulation.h"
#include "exec/result_store.h"
#include "exec/task_pool.h"
#include "harness/solo.h"
#include "harness/table.h"
#include "jvm/benchmarks.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"
#include "os/allocation/pair_matrix.h"
#include "trace/metrics.h"
#include "trace/trace_sink.h"
#include "uarch/stage_profiler.h"

namespace {

using namespace jsmt;

/** Exit code for invalid usage (distinct from runtime failure 1). */
constexpr int kUsageError = 2;

struct Options
{
    std::vector<WorkloadSpec> workloads;
    bool hyperThreading = true;
    bool dynamicPartition = false;
    double scale = 0.5;
    std::uint64_t seed = 42;
    std::vector<std::string> eventNames = {
        "cycles",     "instr_retired",     "l1d_miss",
        "l2_miss",    "trace_cache_miss",  "itlb_miss",
        "btb_miss",   "branch_mispredict", "os_cycles"};
    Cycle sampleInterval = 0;
    bool fastForward = true;
    bool profile = false;
    std::string traceFile;
    std::string metricsFile;
    /** Physical cores (>1 routes through the multi-core driver). */
    std::uint32_t cores = 1;
    /** Core-allocation policy. */
    AllocPolicyKind alloc = AllocPolicyKind::kStaticPin;
    /** Allocation epoch in cycles (0 = MultiCoreConfig default). */
    Cycle allocEpoch = 0;
    /** Pair-matrix sweep mode (canonical ten identical pairs). */
    bool pairMatrix = false;
    /** Pair-matrix over all 55 unordered combinations. */
    bool pairMatrixFull = false;
    /** In-epoch stepping workers (1 = serial ref, 0 = auto). */
    std::uint32_t stepThreads = 1;
    /** Benchmarks of a --sweep run (empty = single-run mode). */
    std::vector<std::string> sweep;
    /** Checkpoint manifest for --sweep (empty = no checkpoint). */
    std::string resumePath;
    /** Per-task deadline of --sweep points in seconds (0 = none). */
    double taskTimeout = 0.0;
};

/** Flags accepted by jsmt_run (printed on invalid usage). */
constexpr const char* kFlagSummary =
    "usage: jsmt_run [--benchmark NAME[:THREADS]]... "
    "[--ht on|off]\n"
    "                [--dynamic-partition] [--scale S] "
    "[--seed N]\n"
    "                [--cores N] [--alloc POLICY] "
    "[--alloc-epoch N]\n"
    "                [--step-threads N]\n"
    "                [--pair-matrix] [--pair-matrix-full]\n"
    "                [--events a,b,c] "
    "[--sample-interval N]\n"
    "                [--no-fast-forward] [--profile]\n"
    "                [--trace FILE] [--metrics FILE]\n"
    "                [--sweep NAMES] [--resume MANIFEST]\n"
    "                [--task-timeout SEC]\n"
    "                [--list-benchmarks] "
    "[--list-events]\n";

[[noreturn]] void
usage(int code)
{
    std::cerr << kFlagSummary;
    std::exit(code);
}

[[noreturn]] void
unknownBenchmark(const std::string& name)
{
    std::cerr << "unknown benchmark '" << name
              << "'; valid benchmarks:";
    for (const auto& valid : benchmarkNames())
        std::cerr << ' ' << valid;
    std::cerr << '\n';
    std::exit(kUsageError);
}

[[noreturn]] void
unknownPolicy(const std::string& name)
{
    std::cerr << "unknown allocation policy '" << name
              << "'; valid policies:";
    for (const auto& valid : allocPolicyNames())
        std::cerr << ' ' << valid;
    std::cerr << '\n';
    std::exit(kUsageError);
}

[[noreturn]] void
badEvents(const std::string& problem)
{
    std::cerr << problem << "; valid events:";
    for (std::size_t e = 0; e < kNumEventIds; ++e)
        std::cerr << ' ' << eventName(static_cast<EventId>(e));
    std::cerr << '\n';
    std::exit(kUsageError);
}

std::uint64_t
uintArg(const std::string& flag, const std::string& value)
{
    std::uint64_t out = 0;
    if (!parseUint(value, &out)) {
        std::cerr << "invalid value '" << value << "' for " << flag
                  << " (expected an unsigned integer)\n";
        std::exit(kUsageError);
    }
    return out;
}

double
doubleArg(const std::string& flag, const std::string& value)
{
    double out = 0.0;
    if (!parseDouble(value, &out)) {
        std::cerr << "invalid value '" << value << "' for " << flag
                  << " (expected a number)\n";
        std::exit(kUsageError);
    }
    return out;
}

std::vector<std::string>
splitCommas(const std::string& csv)
{
    std::vector<std::string> out;
    std::stringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

Options
parseArgs(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << '\n';
                usage(kUsageError);
            }
            return argv[++i];
        };
        if (arg == "--benchmark") {
            const std::string value = next();
            WorkloadSpec spec;
            const auto colon = value.find(':');
            spec.benchmark = value.substr(0, colon);
            if (colon != std::string::npos) {
                spec.threads = static_cast<std::uint32_t>(uintArg(
                    "--benchmark THREADS",
                    value.substr(colon + 1)));
            }
            options.workloads.push_back(spec);
        } else if (arg == "--ht") {
            const std::string value = next();
            if (value != "on" && value != "off") {
                std::cerr << "invalid value '" << value
                          << "' for --ht (expected on|off)\n";
                std::exit(kUsageError);
            }
            options.hyperThreading = value == "on";
        } else if (arg == "--dynamic-partition") {
            options.dynamicPartition = true;
        } else if (arg == "--scale") {
            options.scale = doubleArg(arg, next());
        } else if (arg == "--seed") {
            options.seed = uintArg(arg, next());
        } else if (arg == "--cores") {
            const std::uint64_t cores = uintArg(arg, next());
            if (cores < 1 || cores > 64) {
                std::cerr << "--cores must be in [1, 64]\n";
                std::exit(kUsageError);
            }
            options.cores = static_cast<std::uint32_t>(cores);
        } else if (arg == "--alloc") {
            const std::string value = next();
            const auto kind = allocPolicyFromName(value);
            if (!kind)
                unknownPolicy(value);
            options.alloc = *kind;
        } else if (arg == "--alloc-epoch") {
            options.allocEpoch =
                static_cast<Cycle>(uintArg(arg, next()));
            if (options.allocEpoch == 0) {
                std::cerr << "--alloc-epoch must be positive\n";
                std::exit(kUsageError);
            }
        } else if (arg == "--step-threads") {
            const std::uint64_t n = uintArg(arg, next());
            if (n > 64) {
                std::cerr
                    << "--step-threads must be in [0, 64] "
                       "(0 = auto)\n";
                std::exit(kUsageError);
            }
            options.stepThreads = static_cast<std::uint32_t>(n);
        } else if (arg == "--pair-matrix") {
            options.pairMatrix = true;
        } else if (arg == "--pair-matrix-full") {
            options.pairMatrix = true;
            options.pairMatrixFull = true;
        } else if (arg == "--events") {
            options.eventNames = splitCommas(next());
            if (options.eventNames.empty())
                badEvents("--events needs at least one event");
        } else if (arg == "--sample-interval") {
            options.sampleInterval =
                static_cast<Cycle>(uintArg(arg, next()));
        } else if (arg == "--sweep") {
            options.sweep = splitCommas(next());
            if (options.sweep.empty()) {
                std::cerr << "--sweep needs at least one "
                             "benchmark name\n";
                std::exit(kUsageError);
            }
        } else if (arg == "--resume") {
            options.resumePath = next();
        } else if (arg == "--task-timeout") {
            options.taskTimeout = doubleArg(arg, next());
            if (!(options.taskTimeout >= 0.0)) {
                std::cerr << "--task-timeout must be >= 0 (0 = no "
                             "deadline)\n";
                std::exit(kUsageError);
            }
        } else if (arg == "--no-fast-forward") {
            options.fastForward = false;
        } else if (arg == "--profile") {
            options.profile = true;
        } else if (arg == "--trace") {
            options.traceFile = next();
        } else if (arg == "--metrics") {
            options.metricsFile = next();
        } else if (arg == "--list-benchmarks") {
            for (const auto& name : benchmarkNames()) {
                const WorkloadProfile& profile =
                    benchmarkProfile(name);
                std::cout << name << " (default "
                          << profile.defaultThreads
                          << " thread(s), "
                          << profile.uopsPerThread
                          << " uops/thread)\n";
            }
            std::exit(0);
        } else if (arg == "--list-events") {
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                std::cout << eventName(static_cast<EventId>(e))
                          << '\n';
            }
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown option '" << arg
                      << "'; valid flags:\n";
            usage(kUsageError);
        }
    }
    if (options.pairMatrix) {
        if (!options.workloads.empty() ||
            !options.sweep.empty()) {
            std::cerr << "--pair-matrix runs the fixed pairing "
                         "list; it cannot be combined with "
                         "--benchmark or --sweep\n";
            std::exit(kUsageError);
        }
        if (!options.resumePath.empty()) {
            std::cerr << "--resume is not supported with "
                         "--pair-matrix\n";
            std::exit(kUsageError);
        }
    }
    // Only a single-core --benchmark run samples or profiles.
    const bool batch = options.pairMatrix || !options.sweep.empty();
    if ((batch || options.cores > 1) &&
        (options.sampleInterval > 0 || options.profile)) {
        std::cerr << "--sample-interval and --profile require "
                  << (batch ? "a --benchmark run" : "--cores 1")
                  << '\n';
        std::exit(kUsageError);
    }
    if (options.workloads.empty()) {
        WorkloadSpec spec;
        spec.benchmark = "PseudoJBB";
        options.workloads.push_back(spec);
    }
    if (options.scale <= 0.0) {
        std::cerr << "scale must be positive\n";
        std::exit(kUsageError);
    }
    return options;
}

/** The machine of every mode: --ht, --seed, --dynamic-partition. */
SystemConfig
systemConfig(const Options& options)
{
    SystemConfig config;
    config.hyperThreading = options.hyperThreading;
    config.seed = options.seed;
    if (options.dynamicPartition)
        config.core.partitionPolicy = PartitionPolicy::kDynamic;
    return config;
}

/** The chip of --cores N: --alloc and --alloc-epoch on top. */
MultiCoreConfig
multiCoreConfig(const Options& options)
{
    MultiCoreConfig chip;
    chip.system = systemConfig(options);
    chip.cores = options.cores;
    chip.policy = options.alloc;
    if (options.allocEpoch > 0)
        chip.epochCycles = options.allocEpoch;
    return chip;
}

/** Add @p run's allocation activity to @p totals. */
void
addAlloc(trace::AllocTotals& totals, const MultiRunResult& run)
{
    totals.epochs += run.epochs;
    totals.migrations += run.migrations;
    totals.steals += run.steals;
}

/**
 * Write the --metrics file of every mode from @p series (null in a
 * batch mode), with a chip's @p alloc totals as alloc counters.
 *
 * @return false (after saying why) when @p path cannot be written.
 */
bool
writeMetrics(const std::string& path,
             const trace::CounterSeries* series,
             const trace::AllocTotals* alloc)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "cannot write metrics file '" << path << "'\n";
        return false;
    }
    trace::writeMetricsJson(out, series, alloc);
    return true;
}

/**
 * Measure one sweep point on a multi-core chip: the benchmark runs
 * solo (one process) on an N-core chip under the selected policy,
 * and the chip-wide measurement is folded into the single-machine
 * RunResult shape so it flows through the same checkpoint and
 * reporting paths as a single-core sweep.
 */
RunResult
measureMultiSolo(const Options& options, const std::string& benchmark,
                 bool ht, std::uint32_t step_threads,
                 const CancellationToken* cancel)
{
    MultiCoreConfig chip = multiCoreConfig(options);
    chip.system.hyperThreading = ht;
    MultiCoreSystem system(chip);
    MultiCoreSimulation sim(system);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.lengthScale = options.scale;
    sim.addProcess(spec);
    MultiCoreSimulation::RunOptions run_options;
    run_options.fastForward = options.fastForward;
    run_options.cancellation = cancel;
    run_options.stepThreads = step_threads;
    return sim.run(run_options).toRunResult();
}

/**
 * --sweep mode: measure each named benchmark HT-off and HT-on under
 * a per-task deadline, optionally checkpointed to --resume MANIFEST. The
 * stdout table is a pure function of the completed measurements, so
 * a killed-and-resumed sweep prints bit-identical output to an
 * uninterrupted one. The manifest records the chip topology;
 * resuming under a different --cores/--alloc is refused so two
 * incomparable machine shapes can never mix in one table.
 */
int
runSweep(const Options& options,
         const std::vector<EventId>& events)
{
    // Every point sets HT itself; the config keeps the default so
    // --ht never changes a point's key, and so which manifest
    // entries resume.
    SystemConfig config = systemConfig(options);
    config.hyperThreading = SystemConfig{}.hyperThreading;

    const std::string topology =
        exec::ResultStore::describeTopology(
            options.cores, allocPolicyName(options.alloc));
    const bool multi_core = options.cores > 1;

    exec::TaskPool pool;
    std::unique_ptr<exec::ResultStore> checkpoint;
    if (!options.resumePath.empty()) {
        checkpoint = std::make_unique<exec::ResultStore>(
            options.resumePath, 1, topology);
        if (checkpoint->topologyMismatch()) {
            std::cerr << "sweep: manifest " << options.resumePath
                      << " was written for topology '"
                      << checkpoint->manifestTopology()
                      << "' but this run is '" << topology
                      << "'; use a fresh --resume manifest\n";
            return kUsageError;
        }
        if (checkpoint->resumed() > 0) {
            std::cerr << "sweep: resumed "
                      << checkpoint->resumed()
                      << " completed measurement(s) from "
                      << options.resumePath << '\n';
        }
    }

    const std::size_t tasks = options.sweep.size() * 2;
    std::vector<RunResult> results(tasks);
    // Points already fan out over the pool's jobs; stepping them in
    // parallel too would multiply the two.
    const std::uint32_t step_threads =
        pool.jobs() > 1 ? 1 : options.stepThreads;
    const auto name_of = [&](std::size_t k) {
        return options.sweep[k / 2] +
               ((k % 2) == 1 ? "/ht" : "/st");
    };
    const exec::BatchReport report = pool.run(
        tasks, name_of,
        [&](exec::TaskContext& ctx) {
            const std::string& benchmark =
                options.sweep[ctx.index / 2];
            const bool ht = (ctx.index % 2) == 1;
            SoloOptions solo;
            solo.lengthScale = options.scale;
            // Multi-core keys embed the topology so a chip
            // measurement can never replay a single-core memo.
            const std::string key =
                soloRunKey(config, benchmark, ht, solo) +
                (multi_core ? "|topo=" + topology : "");
            if (checkpoint != nullptr &&
                checkpoint->lookup(key, &results[ctx.index])) {
                return;
            }
            solo.cancel = ctx.token;
            results[ctx.index] =
                multi_core
                    ? measureMultiSolo(options, benchmark, ht,
                                       step_threads, ctx.token)
                    : measureSoloCached(config, benchmark, ht,
                                        solo);
            if (checkpoint != nullptr)
                checkpoint->insert(key, results[ctx.index]);
        },
        options.taskTimeout);

    std::vector<std::string> headers = {"benchmark", "ht", "cycles",
                                        "IPC"};
    for (const EventId event : events)
        headers.push_back(std::string(eventName(event)));
    TextTable table(headers);
    for (std::size_t k = 0; k < tasks; ++k) {
        const RunResult& result = results[k];
        std::vector<std::string> row = {
            options.sweep[k / 2], (k % 2) == 1 ? "on" : "off",
            TextTable::fmt(result.cycles),
            TextTable::fmt(result.ipc(), 3)};
        for (const EventId event : events)
            row.push_back(TextTable::fmt(result.total(event)));
        table.addRow(row);
    }
    table.print(std::cout);

    // Batch totals go to stderr so stdout stays a pure function
    // of the measurements (bit-identical across resumes).
    std::cerr << "sweep: " << report.summary() << "; "
              << exec::TaskPool::totalDeadlineCancels()
              << " deadline cancels process-wide\n";

    if (!options.metricsFile.empty() &&
        !writeMetrics(options.metricsFile, nullptr, nullptr))
        return 1;
    return report.ok() ? 0 : 1;
}

/**
 * --pair-matrix mode: co-schedule every pairing of the workload
 * profiles (2 x cores processes per cell) on the configured chip
 * under the selected policy and print per-cell chip throughput plus
 * the aggregate. The cell list and every cell are deterministic, so
 * the table is bit-identical across runs and job counts.
 */
int
runPairMatrixMode(const Options& options)
{
    const SystemConfig config = systemConfig(options);

    PairMatrixOptions matrix;
    matrix.cores = options.cores;
    matrix.policy = options.alloc;
    matrix.lengthScale = options.scale;
    matrix.epochCycles = options.allocEpoch;
    matrix.identicalOnly = !options.pairMatrixFull;
    matrix.stepThreads = options.stepThreads;

    const std::vector<PairMatrixCell> cells =
        runPairMatrix(config, matrix);

    std::cout << "pair-matrix: " << cells.size()
              << " pairing(s), " << options.cores << " core(s), "
              << "policy " << allocPolicyName(options.alloc)
              << ", HT "
              << (options.hyperThreading ? "on" : "off")
              << ", scale " << options.scale << ", seed "
              << options.seed << "\n\n";

    TextTable table({"pair", "cycles", "uops", "uops/cycle", "IPC",
                     "epochs", "migrations", "steals"});
    double throughput_sum = 0.0;
    trace::AllocTotals alloc;
    bool all_complete = true;
    for (const PairMatrixCell& cell : cells) {
        const MultiRunResult& result = cell.result;
        all_complete = all_complete && result.allComplete;
        throughput_sum += cell.uopThroughput;
        addAlloc(alloc, result);
        table.addRow(
            {cell.a + "+" + cell.b, TextTable::fmt(result.cycles),
             TextTable::fmt(result.total(EventId::kUopsRetired)),
             TextTable::fmt(cell.uopThroughput, 3),
             TextTable::fmt(result.ipc(), 3),
             TextTable::fmt(result.epochs),
             TextTable::fmt(result.migrations),
             TextTable::fmt(result.steals)});
    }
    table.print(std::cout);
    std::cout << "\naggregate: mean throughput "
              << TextTable::fmt(
                     cells.empty()
                         ? 0.0
                         : throughput_sum /
                               static_cast<double>(cells.size()),
                     3)
              << " uops/cycle, " << alloc.migrations
              << " migration(s), " << alloc.steals << " steal(s)"
              << (all_complete ? "" : "  [INCOMPLETE]") << '\n';

    if (!options.metricsFile.empty() &&
        !writeMetrics(options.metricsFile, nullptr, &alloc))
        return 1;
    return all_complete ? 0 : 1;
}

/**
 * Wall seconds of the single-core workload run again on a fresh
 * machine with no profiler, tracer or metrics attached: the
 * reference --profile measures its own overhead against.
 */
double
plainRunSeconds(const SystemConfig& config, const Options& options)
{
    Machine machine(config);
    Simulation sim(machine);
    for (const auto& spec : options.workloads)
        sim.addProcess(spec);
    Simulation::RunOptions run_options;
    run_options.fastForward = options.fastForward;
    const auto start = std::chrono::steady_clock::now();
    sim.run(run_options);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Print the --profile stage breakdown of a single-core run that
 * took @p run_wall seconds to stderr — wall time is host noise, so
 * stdout stays a pure function of the measurements — followed by
 * the probe's overhead against an unprofiled re-run.
 */
void
printProfile(const StageProfiler& profiler, double run_wall,
             Cycle cycles, std::uint64_t ff_cycles,
             double plain_wall)
{
    // fetchAllocSeconds includes the memory walks performed
    // from inside the stage; report them exclusively. The
    // fast_forward bucket (horizon probes + clock jumps +
    // skipped-window accounting) is accumulated by the driver
    // loop, so it is disjoint from the core stages.
    const double memory = profiler.memorySeconds;
    const double fetch_alloc = profiler.fetchAllocSeconds - memory;
    const double staged = profiler.retireSeconds +
                          profiler.fetchAllocSeconds +
                          profiler.accountSeconds +
                          profiler.fastForwardSeconds;
    // Signed: a negative residue is the probe's over-count
    // (sampled stages summing past the wall time), not zero.
    const double driver = run_wall - staged;
    const auto pct = [&](double s) {
        return run_wall > 0.0 ? s / run_wall * 100.0 : 0.0;
    };
    const double skip_pct =
        cycles > 0 ? 100.0 * static_cast<double>(ff_cycles) /
                         static_cast<double>(cycles)
                   : 0.0;
    std::fprintf(
        stderr,
        "profile: %llu cycles simulated in %.3f s wall "
        "(%llu total incl. fast-forwarded)\n"
        "  retire           %8.3f s  %5.1f%%\n"
        "  fetch+alloc      %8.3f s  %5.1f%%  (excl. memory)\n"
        "  memory walk      %8.3f s  %5.1f%%\n"
        "  accounting       %8.3f s  %5.1f%%\n"
        "  fast_forward     %8.3f s  %5.1f%%\n"
        "  driver/other     %+8.3f s  %+5.1f%%\n"
        "horizon skip: %llu of %llu cycles fast-forwarded "
        "(horizon_skip_pct %.2f)\n",
        static_cast<unsigned long long>(profiler.cycles), run_wall,
        static_cast<unsigned long long>(cycles),
        profiler.retireSeconds, pct(profiler.retireSeconds),
        fetch_alloc, pct(fetch_alloc), memory, pct(memory),
        profiler.accountSeconds, pct(profiler.accountSeconds),
        profiler.fastForwardSeconds,
        pct(profiler.fastForwardSeconds), driver, pct(driver),
        static_cast<unsigned long long>(ff_cycles),
        static_cast<unsigned long long>(cycles), skip_pct);
    if (driver < 0.0) {
        std::fprintf(stderr,
                     "note: sampled stages over-count wall time "
                     "by %.1f%%; driver/other is negative\n",
                     -pct(driver));
    }
    std::fprintf(
        stderr,
        "probe overhead: %+.1f%% (profiled %.3f s vs unprofiled "
        "re-run %.3f s; %llu of %llu cycles timed)\n",
        plain_wall > 0.0 ? (run_wall - plain_wall) / plain_wall * 100.0
                         : 0.0,
        run_wall, plain_wall,
        static_cast<unsigned long long>(profiler.sampledCycles),
        static_cast<unsigned long long>(profiler.cycles));
}

/**
 * --benchmark mode: the requested workloads run together on one
 * core (Simulation) or on an N-core chip under the selected policy
 * (MultiCoreSimulation). Both report from one folded RunResult; a
 * chip adds its summary: the alloc line, each process's cores and
 * migrations, and counters summed across cores. Only single-core
 * runs sample, profile or replay from the JSMT_RUN_CACHE memo.
 */
int
runBenchmarks(const Options& options,
              const std::vector<EventId>& events)
{
    const MultiCoreConfig chip_config = multiCoreConfig(options);
    const SystemConfig& config = chip_config.system;
    const bool on_chip = options.cores > 1;
    const bool tracing = !options.traceFile.empty();
    const bool metrics = !options.metricsFile.empty();

    // One core is a plain Machine; more are the slices of one chip.
    // The tracer must be attached before addProcess so the launch
    // instants land in the timeline.
    trace::TraceSink sink;
    if (tracing)
        sink.setEnabled(true);
    std::optional<Machine> machine;
    std::optional<Simulation> sim;
    std::optional<MultiCoreSystem> system;
    std::optional<MultiCoreSimulation> chip_sim;
    if (on_chip) {
        system.emplace(chip_config);
        if (tracing)
            system->setTraceSink(&sink);
        chip_sim.emplace(*system);
        for (const auto& spec : options.workloads)
            chip_sim->addProcess(spec);
    } else {
        machine.emplace(config);
        if (tracing)
            machine->setTraceSink(&sink);
        sim.emplace(*machine);
        for (const auto& spec : options.workloads)
            sim->addProcess(spec);
    }

    // The series and profiler read one machine: on a chip that is
    // slice 0, and the chip-wide PMU picture comes from the folded
    // RunResult.
    Machine& probed = on_chip ? system->machine(0) : *machine;
    trace::CounterSeries series(probed, 0);
    StageProfiler profiler;
    if (options.profile)
        probed.core().setProfiler(&profiler);

    RunResult result;
    std::optional<MultiRunResult> chip;
    Cycle end = 0;
    const auto run_start = std::chrono::steady_clock::now();
    if (on_chip) {
        MultiCoreSimulation::RunOptions run_options;
        run_options.fastForward = options.fastForward;
        run_options.trace = tracing ? &sink : nullptr;
        run_options.stepThreads = options.stepThreads;
        chip = chip_sim->run(run_options);
        result = chip->toRunResult();
        end = chip_sim->now();
    } else {
        Simulation::RunOptions run_options;
        run_options.fastForward = options.fastForward;
        // Without an explicit interval a metrics run still gets a
        // coarse series.
        Cycle interval = options.sampleInterval;
        if (metrics && interval == 0)
            interval = 1'000'000;
        if (interval > 0) {
            run_options.sampleIntervalCycles = interval;
            run_options.onSample = [&](Simulation&, Cycle now) {
                series.record(now);
            };
        }
        if (options.sampleInterval == 0 && !tracing && !metrics &&
            !options.profile) {
            // Non-sampled runs are fully described by their
            // RunResult, so they can replay from the memo (spilled
            // to $JSMT_RUN_CACHE across invocations). Traced and
            // metered runs must actually simulate.
            std::ostringstream key;
            key << "runcli|" << exec::describeSystemConfig(config);
            for (const auto& spec : options.workloads)
                key << '|' << spec.benchmark << ':' << spec.threads;
            key << "|scale=" << options.scale
                << "|ff=" << (options.fastForward ? 1 : 0);
            result = exec::ResultStore::global().getOrCompute(
                key.str(), [&] { return sim->run(run_options); });
        } else {
            result = sim->run(run_options);
        }
        end = sim->now();
    }
    const double run_wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - run_start)
            .count();
    series.record(end);
    if (options.profile) {
        printProfile(profiler, run_wall, result.cycles,
                     probed.core().fastForwardedCycles(),
                     plainRunSeconds(config, options));
    }

    if (tracing) {
        std::ofstream out(options.traceFile, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write trace file '"
                      << options.traceFile << "'\n";
            return 1;
        }
        sink.writeChromeTrace(out);
    }
    if (metrics) {
        trace::AllocTotals alloc;
        if (chip)
            addAlloc(alloc, *chip);
        if (!writeMetrics(options.metricsFile, &series,
                          chip ? &alloc : nullptr))
            return 1;
    }

    std::cout << "machine: ";
    if (chip)
        std::cout << options.cores << " cores (shared L2), ";
    std::cout << "HT " << (options.hyperThreading ? "on" : "off")
              << (options.dynamicPartition
                      ? ", dynamic partitioning"
                      : ", static partitioning (P4)");
    if (chip) {
        std::cout << ", alloc " << allocPolicyName(options.alloc)
                  << " (epoch " << chip_config.epochCycles
                  << " cycles)";
    }
    std::cout << ", seed " << options.seed;
    if (tracing) {
        std::cout << ", tracing on -> " << options.traceFile << " ("
                  << sink.size() << " events";
        if (sink.dropped() > 0)
            std::cout << ", " << sink.dropped() << " dropped";
        std::cout << ')';
    } else {
        std::cout << ", tracing off";
    }
    if (metrics)
        std::cout << ", metrics -> " << options.metricsFile;
    // A chip's IPC is per lockstep cycle, not per summed PMU cycle.
    std::cout << "\n"
              << "run: " << result.cycles << " cycles, "
              << result.total(EventId::kUopsRetired)
              << " uops retired, IPC "
              << TextTable::fmt(chip ? chip->ipc() : result.ipc(), 3);
    if (chip) {
        std::cout << ", throughput "
                  << TextTable::fmt(chip->uopThroughput(), 3)
                  << " uops/cycle";
    }
    std::cout << (result.allComplete ? "" : "  [INCOMPLETE]") << '\n';
    if (chip) {
        std::cout << "alloc: " << chip->epochs << " epoch(s), "
                  << chip->migrations << " migration(s), "
                  << chip->steals << " steal(s)\n";
    }
    std::cout << '\n';

    std::vector<std::string> headers = {"pid", "benchmark"};
    if (chip)
        headers.insert(headers.end(), {"cores", "migrations"});
    headers.insert(headers.end(), {"complete", "duration (cycles)"});
    if (!chip)
        headers.push_back("GC runs");
    TextTable processes(headers);
    for (std::size_t i = 0; i < result.processes.size(); ++i) {
        const ProcessResult& pr = result.processes[i];
        std::vector<std::string> row = {std::to_string(pr.pid),
                                        pr.benchmark};
        if (chip) {
            const MultiProcessRecord& placed = chip->processes[i];
            row.push_back(
                placed.initialCore == placed.finalCore
                    ? std::to_string(placed.initialCore)
                    : std::to_string(placed.initialCore) + "->" +
                          std::to_string(placed.finalCore));
            row.push_back(TextTable::fmt(placed.migrations));
        }
        row.push_back(pr.complete ? "yes" : "no");
        row.push_back(TextTable::fmt(pr.durationCycles));
        if (!chip)
            row.push_back(TextTable::fmt(pr.gcRuns));
        processes.addRow(row);
    }
    processes.print(std::cout);

    std::cout << (chip ? "\ncounters (summed across cores):\n"
                       : "\ncounters:\n");
    TextTable counters({"event", "lcpu0", "lcpu1", "total",
                        "/1K instr"});
    const auto instr =
        static_cast<double>(result.total(EventId::kInstrRetired));
    for (const EventId event : events) {
        counters.addRow(
            {std::string(eventName(event)),
             TextTable::fmt(result.event(event, 0)),
             TextTable::fmt(result.event(event, 1)),
             TextTable::fmt(result.total(event)),
             TextTable::fmt(
                 instr > 0
                     ? 1000.0 *
                           static_cast<double>(
                               result.total(event)) /
                           instr
                     : 0.0,
                 3)});
    }
    counters.print(std::cout);

    if (options.sampleInterval > 0) {
        // Each row is the difference between the series rows of two
        // consecutive sample edges, summed over both logical CPUs;
        // the series' last row is the run end, not an edge.
        std::vector<std::string> series_headers = {"cycle"};
        for (const EventId event : events)
            series_headers.push_back(std::string(eventName(event)));
        TextTable table(series_headers);
        const std::vector<trace::SeriesRow>& rows = series.rows();
        for (std::size_t i = 1; i + 1 < rows.size(); ++i) {
            const EventCounts delta =
                countsDelta(rows[i].counts, rows[i - 1].counts);
            std::vector<std::string> row = {
                TextTable::fmt(rows[i].cycle)};
            for (const EventId event : events) {
                const auto e = static_cast<std::size_t>(event);
                row.push_back(TextTable::fmt(delta[0][e] + delta[1][e]));
            }
            table.addRow(row);
        }
        std::cout << "\ntime series (interval "
                  << options.sampleInterval << " cycles):\n";
        table.print(std::cout);
    }
    // A chip run that did not complete fails; a single-core run
    // reports [INCOMPLETE] and exits 0.
    return chip && !result.allComplete ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    setVerbose(false);
    Options options = parseArgs(argc, argv);

    // Every counter table reads the requested events from a
    // RunResult, and the --sample-interval series from PMU snapshot
    // deltas.
    std::vector<EventId> events;
    for (const auto& name : options.eventNames) {
        const auto id = eventByName(name);
        if (!id)
            badEvents("unknown event '" + name + "'");
        events.push_back(*id);
    }

    if (options.pairMatrix)
        return runPairMatrixMode(options);

    if (!options.sweep.empty()) {
        for (const std::string& name : options.sweep) {
            if (!isBenchmark(name))
                unknownBenchmark(name);
        }
        return runSweep(options, events);
    }

    for (auto& spec : options.workloads) {
        if (!isBenchmark(spec.benchmark))
            unknownBenchmark(spec.benchmark);
        spec.lengthScale = options.scale;
    }
    return runBenchmarks(options, events);
}
