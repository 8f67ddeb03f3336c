/**
 * @file
 * jsmt_run — general-purpose command-line driver for the simulator.
 *
 * Runs any mix of the registered Java benchmarks on the modelled
 * Hyper-Threading Pentium 4, with full control over machine mode,
 * workload scale, counter selection and interval sampling.
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
 *                                  0 = auto-size to what the thread
 *                                  budget left free after --jobs;
 *                                  max 64). Results are
 *                                  bit-identical for every value —
 *                                  this is purely a wall-clock knob
 *                                  (also JSMT_STEP_THREADS)
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
 *                                  every N cycles
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
 *                                  Perfetto / chrome://tracing); the
 *                                  JSMT_TRACE environment variable
 *                                  sets the same output path
 *     --metrics FILE               export the metrics registry
 *                                  (counters, gauges, histograms and
 *                                  interval snapshots) as JSON
 *     --list-benchmarks            print the registry and exit
 *     --list-events                print the event catalogue, exit
 *     --sweep NAMES                supervised solo sweep of the
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
 *                                  supervised runs (0 = none; also
 *                                  JSMT_TASK_TIMEOUT)
 *     --retries N                  attempts per supervised task
 *                                  (also JSMT_TASK_RETRIES)
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
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "core/simulation.h"
#include "exec/run_cache.h"
#include "harness/solo.h"
#include "harness/table.h"
#include "jvm/benchmarks.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"
#include "os/allocation/pair_matrix.h"
#include "pmu/abyss.h"
#include "pmu/sampler.h"
#include "resilience/checkpoint.h"
#include "resilience/supervisor.h"
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
    /** Whether --step-threads was given (beats the env var). */
    bool stepThreadsSet = false;
    /** Benchmarks of a --sweep run (empty = single-run mode). */
    std::vector<std::string> sweep;
    /** Checkpoint manifest for --sweep (empty = no checkpoint). */
    std::string resumePath;
    /** Supervision policy (env defaults, flags override). */
    resilience::SupervisorOptions supervision =
        resilience::SupervisorOptions::fromEnvironment();
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
    "                [--task-timeout SEC] [--retries N]\n"
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
unknownEvent(const std::string& name)
{
    std::cerr << "unknown event '" << name << "'; valid events:";
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
            options.stepThreadsSet = true;
        } else if (arg == "--pair-matrix") {
            options.pairMatrix = true;
        } else if (arg == "--pair-matrix-full") {
            options.pairMatrix = true;
            options.pairMatrixFull = true;
        } else if (arg == "--events") {
            options.eventNames = splitCommas(next());
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
            options.supervision.taskTimeoutSeconds =
                doubleArg(arg, next());
        } else if (arg == "--retries") {
            const std::uint64_t attempts = uintArg(arg, next());
            if (attempts == 0) {
                std::cerr << "--retries must be at least 1\n";
                std::exit(kUsageError);
            }
            options.supervision.maxAttempts =
                static_cast<int>(attempts);
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
    if (options.traceFile.empty())
        options.traceFile = envPath("JSMT_TRACE");
    if (!options.stepThreadsSet && envIsSet("JSMT_STEP_THREADS")) {
        // Same warn-and-default hardening as every JSMT_* knob: a
        // malformed or out-of-range value must never silently
        // change how a run executes.
        const std::uint64_t n = envUint("JSMT_STEP_THREADS", 1, 0);
        if (n > 64) {
            warn("JSMT_STEP_THREADS=" + std::to_string(n) +
                 " above 64; using 1");
        } else {
            options.stepThreads = static_cast<std::uint32_t>(n);
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
    if (options.cores > 1 &&
        (options.sampleInterval > 0 || options.profile)) {
        std::cerr << "--sample-interval and --profile require "
                     "--cores 1\n";
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

/**
 * Measure one sweep point on a multi-core chip: the benchmark runs
 * solo (one process) on an N-core chip under the selected policy,
 * and the chip-wide measurement is folded into the single-machine
 * RunResult shape so it flows through the same checkpoint and
 * reporting paths as a single-core sweep.
 */
RunResult
measureMultiSolo(const Options& options, SystemConfig config,
                 const std::string& benchmark, bool ht,
                 const resilience::CancellationToken* cancel)
{
    config.hyperThreading = ht;
    MultiCoreConfig chip;
    chip.system = config;
    chip.cores = options.cores;
    chip.policy = options.alloc;
    if (options.allocEpoch > 0)
        chip.epochCycles = options.allocEpoch;
    MultiCoreSystem system(chip);
    MultiCoreSimulation sim(system);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.lengthScale = options.scale;
    sim.addProcess(spec);
    MultiCoreSimulation::RunOptions run_options;
    run_options.fastForward = options.fastForward;
    run_options.cancellation = cancel;
    // Sweep points may already be fanned out over --jobs; explicit
    // step-thread requests degrade to budget-polite auto so the two
    // layers share the host instead of multiplying on it.
    run_options.stepThreads = options.stepThreads == 1 ? 1 : 0;
    return sim.run(run_options).toRunResult();
}

/**
 * --sweep mode: measure each named benchmark HT-off and HT-on under
 * a Supervisor, optionally checkpointed to --resume MANIFEST. The
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
    SystemConfig config;
    config.seed = options.seed;
    if (options.dynamicPartition)
        config.core.partitionPolicy = PartitionPolicy::kDynamic;

    const std::string topology =
        resilience::SweepCheckpoint::describeTopology(
            options.cores, allocPolicyName(options.alloc));
    const bool multi_core = options.cores > 1;

    resilience::Supervisor supervisor(options.supervision);
    std::unique_ptr<resilience::SweepCheckpoint> checkpoint;
    if (!options.resumePath.empty()) {
        checkpoint = std::make_unique<resilience::SweepCheckpoint>(
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
    const auto name_of = [&](std::size_t k) {
        return options.sweep[k / 2] +
               ((k % 2) == 1 ? "/ht" : "/st");
    };
    const resilience::BatchReport report = supervisor.run(
        tasks, name_of, [&](resilience::TaskContext& ctx) {
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
                    ? measureMultiSolo(options, config, benchmark,
                                       ht, ctx.token)
                    : measureSoloCached(config, benchmark, ht,
                                        solo);
            if (checkpoint != nullptr)
                checkpoint->record(key, results[ctx.index]);
        });

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

    // Supervision/fault totals go to stderr so stdout stays a pure
    // function of the measurements (bit-identical across resumes).
    std::cerr << "sweep: " << report.summary() << "; "
              << resilience::Supervisor::totalRetries()
              << " retries, "
              << resilience::Supervisor::totalDeadlineCancels()
              << " deadline cancels and "
              << resilience::FaultPlan::totalInjectedAll()
              << " injected fault(s) process-wide\n";

    if (!options.metricsFile.empty()) {
        Machine machine(config);
        trace::MetricsCollector collector(machine);
        collector.collect(0);
        std::ofstream out(options.metricsFile, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write metrics file '"
                      << options.metricsFile << "'\n";
            return 1;
        }
        collector.writeJson(out);
    }
    return report.ok() ? 0 : 1;
}

/**
 * Register the allocation counters on @p collector's registry and
 * baseline them at zero, so the exported totals are exactly the
 * run's epoch/migration/steal counts.
 */
struct AllocCounterIds
{
    std::size_t epochs = 0;
    std::size_t migrations = 0;
    std::size_t steals = 0;
};

AllocCounterIds
registerAllocCounters(trace::MetricsCollector& collector)
{
    trace::MetricsRegistry& registry = collector.registry();
    AllocCounterIds ids;
    ids.epochs = registry.addCounter("alloc", "epochs");
    ids.migrations = registry.addCounter("alloc", "migrations");
    ids.steals = registry.addCounter("alloc", "steals");
    registry.setCounter(ids.epochs, 0);
    registry.setCounter(ids.migrations, 0);
    registry.setCounter(ids.steals, 0);
    return ids;
}

void
setAllocCounters(trace::MetricsCollector& collector,
                 const AllocCounterIds& ids, std::uint64_t epochs,
                 std::uint64_t migrations, std::uint64_t steals)
{
    trace::MetricsRegistry& registry = collector.registry();
    registry.setCounter(ids.epochs, epochs);
    registry.setCounter(ids.migrations, migrations);
    registry.setCounter(ids.steals, steals);
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
    SystemConfig config;
    config.hyperThreading = options.hyperThreading;
    config.seed = options.seed;
    if (options.dynamicPartition)
        config.core.partitionPolicy = PartitionPolicy::kDynamic;

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
    std::uint64_t epochs = 0;
    std::uint64_t migrations = 0;
    std::uint64_t steals = 0;
    bool all_complete = true;
    for (const PairMatrixCell& cell : cells) {
        const MultiRunResult& result = cell.result;
        all_complete = all_complete && result.allComplete;
        throughput_sum += cell.uopThroughput;
        epochs += result.epochs;
        migrations += result.migrations;
        steals += result.steals;
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
              << " uops/cycle, " << migrations << " migration(s), "
              << steals << " steal(s)"
              << (all_complete ? "" : "  [INCOMPLETE]") << '\n';

    if (!options.metricsFile.empty()) {
        Machine machine(config);
        trace::MetricsCollector collector(machine);
        const AllocCounterIds ids =
            registerAllocCounters(collector);
        setAllocCounters(collector, ids, epochs, migrations,
                         steals);
        collector.collect(0);
        std::ofstream out(options.metricsFile, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write metrics file '"
                      << options.metricsFile << "'\n";
            return 1;
        }
        collector.writeJson(out);
    }
    return all_complete ? 0 : 1;
}

/**
 * --cores N single-run mode: the requested workloads run together
 * on an N-core chip under the selected policy. Reporting mirrors
 * the single-core path (folded counters table) plus the allocation
 * counters and per-process placement. Multi-core runs always
 * simulate (no run-cache memo).
 */
int
runMulti(const Options& options,
         const std::vector<EventId>& events)
{
    MultiCoreConfig chip;
    chip.system.hyperThreading = options.hyperThreading;
    chip.system.seed = options.seed;
    if (options.dynamicPartition)
        chip.system.core.partitionPolicy =
            PartitionPolicy::kDynamic;
    chip.cores = options.cores;
    chip.policy = options.alloc;
    if (options.allocEpoch > 0)
        chip.epochCycles = options.allocEpoch;

    MultiCoreSystem system(chip);

    const bool tracing = !options.traceFile.empty();
    trace::TraceSink sink;
    if (tracing) {
        sink.setEnabled(true);
        system.setTraceSink(&sink);
    }

    MultiCoreSimulation sim(system);
    for (const auto& spec : options.workloads)
        sim.addProcess(spec);

    // The collector is bound to slice 0; the chip-wide PMU picture
    // comes from the folded RunResult below, while the registry
    // carries the allocation counters.
    std::unique_ptr<trace::MetricsCollector> collector;
    AllocCounterIds alloc_ids;
    if (!options.metricsFile.empty()) {
        collector = std::make_unique<trace::MetricsCollector>(
            system.machine(0));
        alloc_ids = registerAllocCounters(*collector);
    }

    MultiCoreSimulation::RunOptions run_options;
    run_options.fastForward = options.fastForward;
    run_options.trace = tracing ? &sink : nullptr;
    run_options.stepThreads = options.stepThreads;
    const MultiRunResult multi = sim.run(run_options);
    const RunResult result = multi.toRunResult();

    if (tracing) {
        std::ofstream out(options.traceFile, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write trace file '"
                      << options.traceFile << "'\n";
            return 1;
        }
        sink.writeChromeTrace(out);
    }
    if (collector) {
        setAllocCounters(*collector, alloc_ids, multi.epochs,
                         multi.migrations, multi.steals);
        collector->collect(sim.now());
        std::ofstream out(options.metricsFile, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write metrics file '"
                      << options.metricsFile << "'\n";
            return 1;
        }
        collector->writeJson(out);
    }

    std::cout << "machine: " << options.cores
              << " cores (shared L2), HT "
              << (options.hyperThreading ? "on" : "off")
              << (options.dynamicPartition
                      ? ", dynamic partitioning"
                      : ", static partitioning (P4)")
              << ", alloc " << allocPolicyName(options.alloc)
              << " (epoch " << chip.epochCycles << " cycles)"
              << ", seed " << options.seed;
    if (tracing) {
        std::cout << ", tracing on -> " << options.traceFile << " ("
                  << sink.size() << " events";
        if (sink.dropped() > 0)
            std::cout << ", " << sink.dropped() << " dropped";
        std::cout << ')';
    } else {
        std::cout << ", tracing off";
    }
    if (collector)
        std::cout << ", metrics -> " << options.metricsFile;
    std::cout << "\n"
              << "run: " << multi.cycles << " cycles, "
              << multi.total(EventId::kUopsRetired)
              << " uops retired, IPC "
              << TextTable::fmt(multi.ipc(), 3) << ", throughput "
              << TextTable::fmt(multi.uopThroughput(), 3)
              << " uops/cycle"
              << (multi.allComplete ? "" : "  [INCOMPLETE]")
              << "\n"
              << "alloc: " << multi.epochs << " epoch(s), "
              << multi.migrations << " migration(s), "
              << multi.steals << " steal(s)\n\n";

    TextTable processes({"pid", "benchmark", "cores", "migrations",
                         "complete", "duration (cycles)"});
    for (const auto& pr : multi.processes) {
        const std::string cores_cell =
            pr.initialCore == pr.finalCore
                ? std::to_string(pr.initialCore)
                : std::to_string(pr.initialCore) + "->" +
                      std::to_string(pr.finalCore);
        processes.addRow({std::to_string(pr.pid), pr.benchmark,
                          cores_cell, TextTable::fmt(pr.migrations),
                          pr.complete ? "yes" : "no",
                          TextTable::fmt(pr.durationCycles)});
    }
    processes.print(std::cout);

    std::cout << "\ncounters (summed across cores):\n";
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
    return multi.allComplete ? 0 : 1;
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

} // namespace

int
main(int argc, char** argv)
{
    setVerbose(false);
    Options options = parseArgs(argc, argv);

    // Live counters through the Abyss session (as the paper did);
    // fall back to raw totals when more events than counters were
    // requested.
    std::vector<EventId> events;
    for (const auto& name : options.eventNames) {
        const auto id = eventByName(name);
        if (!id)
            unknownEvent(name);
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

    if (options.cores > 1)
        return runMulti(options, events);

    SystemConfig config;
    config.hyperThreading = options.hyperThreading;
    config.seed = options.seed;
    if (options.dynamicPartition) {
        config.core.partitionPolicy = PartitionPolicy::kDynamic;
    }
    Machine machine(config);

    const bool tracing = !options.traceFile.empty();
    const bool metrics = !options.metricsFile.empty();

    // The tracer must be attached before addProcess so the launch
    // instants land in the timeline.
    trace::TraceSink sink;
    if (tracing) {
        sink.setEnabled(true);
        machine.setTraceSink(&sink);
    }

    Simulation sim(machine);
    for (const auto& spec : options.workloads)
        sim.addProcess(spec);

    std::unique_ptr<trace::MetricsCollector> collector;
    if (metrics)
        collector = std::make_unique<trace::MetricsCollector>(
            machine);

    // Per-stage hot-path profile (--profile): wall time is host
    // noise, so it goes to stderr, keeping stdout a pure function
    // of the measurements.
    StageProfiler profiler;
    if (options.profile)
        machine.core().setProfiler(&profiler);

    AbyssSampler sampler(machine.pmu(), events);
    Simulation::RunOptions run_options;
    run_options.fastForward = options.fastForward;
    // Metrics snapshots ride the same sample edge as the counter
    // time series; without an explicit interval a metrics run still
    // gets a coarse series.
    Cycle interval = options.sampleInterval;
    if (metrics && interval == 0)
        interval = 1'000'000;
    if (interval > 0) {
        run_options.sampleIntervalCycles = interval;
        run_options.onSample = [&](Simulation&, Cycle now) {
            if (options.sampleInterval > 0)
                sampler.sample(now);
            if (collector)
                collector->collect(now);
        };
    }

    RunResult result;
    const auto run_start = std::chrono::steady_clock::now();
    if (options.sampleInterval == 0 && !tracing && !metrics &&
        !options.profile) {
        // Non-sampled runs are fully described by their RunResult,
        // so they can replay from the memo (spilled to
        // $JSMT_RUN_CACHE across invocations). Traced and metered
        // runs must actually simulate.
        std::string key =
            "runcli|" + exec::describeSystemConfig(config);
        for (const auto& spec : options.workloads) {
            key += '|' + spec.benchmark + ':' +
                   std::to_string(spec.threads);
        }
        {
            std::ostringstream tail;
            tail << "|scale=" << options.scale
                 << "|ff=" << (options.fastForward ? 1 : 0);
            key += tail.str();
        }
        result = exec::RunCache::global().getOrCompute(
            key, [&] { return sim.run(run_options); });
    } else {
        result = sim.run(run_options);
    }
    const double run_wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - run_start)
            .count();

    if (options.profile) {
        // fetchAllocSeconds includes the memory walks performed
        // from inside the stage; report them exclusively. The
        // fast_forward bucket (horizon probes + clock jumps +
        // skipped-window accounting) is accumulated by the driver
        // loop, so it is disjoint from the core stages.
        const double memory = profiler.memorySeconds;
        const double fetch_alloc =
            profiler.fetchAllocSeconds - memory;
        const double staged = profiler.retireSeconds +
                              profiler.fetchAllocSeconds +
                              profiler.accountSeconds +
                              profiler.fastForwardSeconds;
        const double driver = run_wall > staged ? run_wall - staged
                                                : 0.0;
        const auto pct = [&](double s) {
            return run_wall > 0.0 ? s / run_wall * 100.0 : 0.0;
        };
        const std::uint64_t ff_cycles =
            machine.core().fastForwardedCycles();
        const double skip_pct =
            result.cycles > 0
                ? 100.0 * static_cast<double>(ff_cycles) /
                      static_cast<double>(result.cycles)
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
            "  driver/other     %8.3f s  %5.1f%%\n"
            "horizon skip: %llu of %llu cycles fast-forwarded "
            "(horizon_skip_pct %.2f)\n",
            static_cast<unsigned long long>(profiler.cycles),
            run_wall,
            static_cast<unsigned long long>(result.cycles),
            profiler.retireSeconds, pct(profiler.retireSeconds),
            fetch_alloc, pct(fetch_alloc), memory, pct(memory),
            profiler.accountSeconds, pct(profiler.accountSeconds),
            profiler.fastForwardSeconds,
            pct(profiler.fastForwardSeconds), driver, pct(driver),
            static_cast<unsigned long long>(ff_cycles),
            static_cast<unsigned long long>(result.cycles),
            skip_pct);
        const double plain_wall = plainRunSeconds(config, options);
        std::fprintf(
            stderr,
            "probe overhead: %+.1f%% (profiled %.3f s vs unprofiled "
            "re-run %.3f s; %llu of %llu cycles timed)\n",
            plain_wall > 0.0
                ? (run_wall - plain_wall) / plain_wall * 100.0
                : 0.0,
            run_wall, plain_wall,
            static_cast<unsigned long long>(profiler.sampledCycles),
            static_cast<unsigned long long>(profiler.cycles));
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
    if (collector) {
        collector->collect(sim.now());
        std::ofstream out(options.metricsFile, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write metrics file '"
                      << options.metricsFile << "'\n";
            return 1;
        }
        collector->writeJson(out);
    }

    std::cout << "machine: HT "
              << (options.hyperThreading ? "on" : "off")
              << (options.dynamicPartition
                      ? ", dynamic partitioning"
                      : ", static partitioning (P4)")
              << ", seed " << options.seed;
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
    std::cout << "\n"
              << "run: " << result.cycles << " cycles, "
              << result.total(EventId::kUopsRetired)
              << " uops retired, IPC "
              << TextTable::fmt(result.ipc(), 3)
              << (result.allComplete ? "" : "  [INCOMPLETE]")
              << "\n\n";

    TextTable processes(
        {"pid", "benchmark", "complete", "duration (cycles)",
         "GC runs"});
    for (const auto& pr : result.processes) {
        processes.addRow({std::to_string(pr.pid), pr.benchmark,
                          pr.complete ? "yes" : "no",
                          TextTable::fmt(pr.durationCycles),
                          TextTable::fmt(pr.gcRuns)});
    }
    processes.print(std::cout);

    std::cout << "\ncounters:\n";
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
        std::cout << "\ntime series (interval "
                  << options.sampleInterval << " cycles):\n";
        std::vector<std::string> headers = {"cycle"};
        for (const EventId event : events)
            headers.push_back(std::string(eventName(event)));
        TextTable series(headers);
        for (const auto& point : sampler.samples()) {
            std::vector<std::string> row = {
                TextTable::fmt(point.cycle)};
            for (const std::uint64_t delta : point.deltas)
                row.push_back(TextTable::fmt(delta));
            series.addRow(row);
        }
        series.print(std::cout);
    }
    return 0;
}
