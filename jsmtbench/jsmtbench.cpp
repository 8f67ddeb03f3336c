/**
 * @file
 * jsmt benchmark program: runs one workload as a closed loop of
 * trials for a fixed host-time window and prints one JSON document
 * (set-up samples, per-trial wall time and simulated cycles,
 * correctness totals, host-time spans) for jsmtbench/run.py to
 * reduce into metrics.
 *
 *   jsmtbench --workload W --seed N --seconds S --trace 0|1
 *             --scratch DIR
 *
 * Workloads (every one uses at most hardware_concurrency threads):
 *   solo-sweep    all ten benchmarks solo, HT off and on, a fresh
 *                 Machine per run, one thread;
 *   pair-matrix   the 9x9 single-threaded cross product through
 *                 MultiprogramRunner::runCrossProduct, jobs = nproc,
 *                 every trial cold (fresh runner, cleared RunCache);
 *   chip4-pinned  4-core chip, 8 processes, static-pin, epoch
 *                 50 000 cycles, step-threads = nproc;
 *   chip4-migrate the same chip under round-robin. Its one effective
 *                 stepping thread makes its wall time follow per-CPU
 *                 host drift, so BENCHMARK.json leaves it out and the
 *                 traced pass of the other workloads probes it.
 *
 * Host time is the simulator's own wall time; simulated statistics
 * are deterministic for a seed, so they serve as correctness digests
 * and exact per-layer counts only. With --trace 1 the trials
 * alternate untraced and traced; traced trials wrap this program's own
 * calls into each layer's public functions in spans (no probe inside
 * the simulator), and fixed probes cover the layers the workload does
 * not reach.
 */

#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/simulation.h"
#include "exec/run_cache.h"
#include "exec/task_pool.h"
#include "harness/multiprogram.h"
#include "harness/solo.h"
#include "jvm/benchmarks.h"
#include "jvm/code_walker.h"
#include "jvm/data_model.h"
#include "mem/cache.h"
#include "os/allocation/multi_core.h"
#include "resilience/checkpoint.h"
#include "trace/trace_sink.h"
#include "uarch/stage_profiler.h"

namespace {

using namespace jsmt;
using Clock = std::chrono::steady_clock;

// Work per trial. Each is fixed, so a trial's wall time is what a
// user waits for that amount of simulation.
constexpr double kSoloScale = 0.1;
constexpr double kPairScale = 0.02;
constexpr std::size_t kPairMinRuns = 3;
constexpr double kChipScale = 0.2;
constexpr std::uint32_t kChipCores = 4;
constexpr std::size_t kChipProcesses = 8;
constexpr Cycle kChipEpochCycles = 50'000;

// Set-up repetitions (median taken by run.py), discarded warm-up
// trials, and the floor on timed trials however long each takes.
constexpr int kSetupReps = 16;
constexpr int kWarmupTrials = 1;
constexpr int kMinTimedTrials = 6;
// Repetitions of each fixed layer probe in the traced pass.
constexpr int kProbeReps = 8;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Peak resident memory of this process image. VmHWM starts afresh at
 * exec, unlike getrusage's ru_maxrss, which keeps the launching
 * process's peak.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/**
 * Moves the calling thread round-robin over the CPUs it may use, one
 * CPU per call, until destroyed (which restores the original mask, so
 * threads created afterwards are unpinned). On a shared host each CPU
 * runs at its own, drifting speed; a single-threaded section that
 * visits every CPU in turn measures their average instead of
 * whichever CPU the scheduler happened to pick.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof(_allowed), &_allowed) != 0)
            throw std::runtime_error("sched_getaffinity failed");
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &_allowed))
                _cpus.push_back(cpu);
        }
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof(_allowed), &_allowed); }

    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void
    next()
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[s_next++ % _cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t _allowed{};
    std::vector<int> _cpus;
    // Shared by every rotation (all on the main thread), so the run
    // that lands on a given CPU changes from trial to trial.
    static inline std::size_t s_next = 0;
};

// ---------------------------------------------------------------
// Host-time spans, kept in memory and written out at the end.

struct Span
{
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    std::vector<std::pair<std::string, double>> args;
};

class Tracer
{
  public:
    int
    open(const char* name, int parent)
    {
        const double start = secondsSince(_origin);
        std::lock_guard<std::mutex> lock(_mutex);
        _spans.push_back(Span{name, parent, start, start, {}});
        return static_cast<int>(_spans.size()) - 1;
    }

    void
    close(int id, std::vector<std::pair<std::string, double>> args)
    {
        const double end = secondsSince(_origin);
        std::lock_guard<std::mutex> lock(_mutex);
        Span& span = _spans[static_cast<std::size_t>(id)];
        span.end = end;
        span.args = std::move(args);
    }

    const std::vector<Span>& spans() const { return _spans; }

  private:
    const Clock::time_point _origin = Clock::now();
    std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span; a null tracer makes every call a no-op. */
class SpanScope
{
  public:
    SpanScope(Tracer* tracer, const char* name, int parent = -1)
        : _tracer(tracer),
          _id(tracer != nullptr ? tracer->open(name, parent) : -1)
    {
    }

    ~SpanScope()
    {
        if (_tracer != nullptr)
            _tracer->close(_id, std::move(_args));
    }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    bool active() const { return _tracer != nullptr; }
    int id() const { return _id; }

    void
    arg(const char* key, double value)
    {
        if (_tracer != nullptr)
            _args.emplace_back(key, value);
    }

  private:
    Tracer* _tracer;
    int _id;
    std::vector<std::pair<std::string, double>> _args;
};

// ---------------------------------------------------------------
// Correctness digests.

struct Digest
{
    std::uint64_t value = 1469598103934665603ULL;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            value ^= (word >> (8 * i)) & 0xffU;
            value *= 1099511628211ULL;
        }
    }

    void add(double real) { add(std::bit_cast<std::uint64_t>(real)); }

    void
    add(const std::string& text)
    {
        for (const char c : text)
            add(static_cast<std::uint64_t>(c));
    }
};

std::uint64_t
digestOf(const RunResult& result)
{
    Digest d;
    d.add(std::uint64_t{result.cycles});
    d.add(std::uint64_t{result.allComplete});
    d.add(std::uint64_t{result.cancelled});
    for (const auto& per_ctx : result.events) {
        for (const std::uint64_t count : per_ctx)
            d.add(count);
    }
    for (const ProcessResult& p : result.processes) {
        d.add(std::uint64_t{p.durationCycles});
        d.add(p.gcRuns);
        d.add(p.allocatedBytes);
    }
    return d.value;
}

std::uint64_t
digestOf(const MultiRunResult& result)
{
    Digest d;
    d.add(std::uint64_t{result.cycles});
    d.add(std::uint64_t{result.allComplete});
    d.add(std::uint64_t{result.cancelled});
    d.add(result.epochs);
    d.add(result.migrations);
    d.add(result.steals);
    for (const auto& core : result.coreEvents) {
        for (const auto& per_ctx : core) {
            for (const std::uint64_t count : per_ctx)
                d.add(count);
        }
    }
    for (const MultiProcessRecord& p : result.processes) {
        d.add(std::uint64_t{p.durationCycles});
        d.add(std::uint64_t{p.finalCore});
        d.add(p.migrations);
    }
    return d.value;
}

std::uint64_t
digestOf(const PairResult& cell)
{
    Digest d;
    d.add(cell.a);
    d.add(cell.b);
    d.add(cell.soloA);
    d.add(cell.soloB);
    d.add(cell.meanDurationA);
    d.add(cell.meanDurationB);
    d.add(std::uint64_t{cell.runsA});
    d.add(std::uint64_t{cell.runsB});
    d.add(cell.coRunCycles);
    return d.value;
}

// ---------------------------------------------------------------
// Workloads.

/**
 * Outcome of one trial: a digest per simulation run it made, and
 * whether that run completed (not cancelled, not cut short).
 */
struct Trial
{
    double cycles = 0.0;
    std::vector<std::uint64_t> digests;
    std::vector<bool> complete;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/** The 20 (benchmark, HT) points of the solo sweep. */
std::vector<std::pair<std::string, bool>>
soloPoints()
{
    std::vector<std::pair<std::string, bool>> points;
    for (const std::string& name : benchmarkNames()) {
        for (const bool ht : {false, true})
            points.emplace_back(name, ht);
    }
    return points;
}

/** A solo machine with its process launched (cycle 0). */
struct SoloSystem
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Simulation> sim;
};

SoloSystem
buildSolo(std::uint64_t seed, const std::string& benchmark, bool ht)
{
    SystemConfig config;
    config.seed = seed;
    config.hyperThreading = ht;
    SoloSystem system;
    system.machine = std::make_unique<Machine>(config);
    system.sim = std::make_unique<Simulation>(*system.machine);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.lengthScale = kSoloScale;
    system.sim->addProcess(spec);
    return system;
}

/** Exact event counts a traced core.run span carries. */
void
addRunCounts(SpanScope& span, const RunResult& r, Machine& machine)
{
    if (!span.active())
        return;
    const auto total = [&](EventId id) {
        return static_cast<double>(r.total(id));
    };
    span.arg("cycles", static_cast<double>(r.cycles));
    span.arg("ff_cycles",
             static_cast<double>(machine.core().fastForwardedCycles()));
    span.arg("kcycles", total(EventId::kCycles));
    span.arg("uops", total(EventId::kUopsRetired));
    span.arg("instr", total(EventId::kInstrRetired));
    span.arg("retire0", total(EventId::kRetire0));
    span.arg("rob_full", total(EventId::kRobFullStall));
    span.arg("fetch_stall", total(EventId::kFetchStallCycles));
    span.arg("l1d_miss", total(EventId::kL1dMiss));
    span.arg("l2_miss", total(EventId::kL2Miss));
    span.arg("tc_miss", total(EventId::kTraceCacheMiss));
    span.arg("dtlb_miss", total(EventId::kDtlbMiss));
    span.arg("btb_access", total(EventId::kBtbAccess));
    span.arg("btb_miss", total(EventId::kBtbMiss));
    span.arg("mispredict", total(EventId::kBranchMispredict));
    span.arg("gc_runs", total(EventId::kGcRuns));
    span.arg("ctx_switches", total(EventId::kContextSwitches));
    span.arg("os_cycles", total(EventId::kOsCycles));
    span.arg("user_cycles", total(EventId::kUserCycles));
}

/**
 * One solo-sweep trial. @p results_out, when non-null, receives the
 * 20 RunResults (the store probes persist them).
 */
Trial
soloTrial(std::uint64_t seed, Tracer* tracer,
          std::vector<std::pair<std::string, RunResult>>* results_out)
{
    Trial trial;
    SpanScope top(tracer, "solo.trial");
    CpuRotation rotation;
    for (const auto& [name, ht] : soloPoints()) {
        rotation.next();
        SoloSystem system;
        {
            SpanScope span(tracer, "core.build", top.id());
            span.arg("ht", ht ? 1.0 : 0.0);
            system = buildSolo(seed, name, ht);
        }
        RunResult result;
        {
            SpanScope span(tracer, "core.run", top.id());
            span.arg("ht", ht ? 1.0 : 0.0);
            result = system.sim->run();
            addRunCounts(span, result, *system.machine);
        }
        trial.cycles += static_cast<double>(result.cycles);
        trial.digests.push_back(digestOf(result));
        trial.complete.push_back(result.allComplete && !result.cancelled);
        if (results_out != nullptr) {
            results_out->emplace_back(
                name + (ht ? "|ht=1" : "|ht=0"), std::move(result));
        }
    }
    return trial;
}

void
soloSetup(std::uint64_t seed)
{
    for (const auto& [name, ht] : soloPoints())
        buildSolo(seed, name, ht);
}

SystemConfig
pairConfig(std::uint64_t seed)
{
    SystemConfig config;
    config.seed = seed;
    return config;
}

/** Simulated cycles of the solo baselines the last trial ran. */
double
soloBaselineCycles(const SystemConfig& config,
                   const std::vector<std::string>& names)
{
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = kPairScale;
    double cycles = 0.0;
    for (const std::string& name : names) {
        RunResult result;
        const std::string key =
            "solodur|" + soloRunKey(config, name, false, options);
        if (!exec::RunCache::global().lookup(key, &result))
            throw std::runtime_error("solo baseline of " + name +
                                     " missing from the run cache");
        cycles += static_cast<double>(result.cycles);
    }
    return cycles;
}

std::uint64_t
relaunchesOf(const PairResult& cell)
{
    // Every exit but the last relaunches; each program completed
    // runs + 2 times (first and last are dropped from runs).
    return cell.runsA + cell.runsB + 3;
}

/**
 * One cold pair-matrix trial over @p names with @p jobs workers.
 * Untraced it is exactly a user's runCrossProduct call; traced, the
 * same public calls it makes (solo prefetch, then one runPair per
 * cell, fanned out over a pool) are issued here so each is spanned.
 */
Trial
pairTrial(std::uint64_t seed, const std::vector<std::string>& names,
          std::size_t jobs, Tracer* tracer)
{
    Trial trial;
    const SystemConfig config = pairConfig(seed);
    exec::RunCache::global().clear();
    std::vector<PairResult> cells;
    if (tracer == nullptr) {
        MultiprogramRunner runner(config, kPairScale, kPairMinRuns,
                                  jobs);
        // A failed cell stays default-initialized and fails the
        // completion check below.
        resilience::BatchReport report;
        cells = runner.runCrossProduct(names, &report);
    } else {
        SpanScope batch(tracer, "exec.batch");
        MultiprogramRunner runner(config, kPairScale, kPairMinRuns, 1);
        exec::TaskPool pool(jobs);
        pool.parallelFor(names.size(), [&](std::size_t i) {
            SpanScope span(tracer, "harness.solo", batch.id());
            runner.soloDuration(names[i]);
        });
        cells.resize(names.size() * names.size());
        pool.parallelFor(cells.size(), [&](std::size_t i) {
            SpanScope span(tracer, "harness.pair", batch.id());
            cells[i] = runner.runPair(names[i / names.size()],
                                      names[i % names.size()]);
            span.arg("relaunches",
                     static_cast<double>(relaunchesOf(cells[i])));
        });
        batch.arg("jobs", static_cast<double>(pool.jobs()));
        batch.arg("hits", static_cast<double>(
                              exec::RunCache::global().hits()));
        batch.arg("misses", static_cast<double>(
                                exec::RunCache::global().misses()));
    }
    trial.cacheHits = exec::RunCache::global().hits();
    trial.cacheMisses = exec::RunCache::global().misses();
    for (const PairResult& cell : cells) {
        trial.cycles += cell.coRunCycles;
        trial.digests.push_back(digestOf(cell));
        trial.complete.push_back(cell.runsA + 2 >= kPairMinRuns &&
                                 cell.runsB + 2 >= kPairMinRuns);
    }
    trial.cycles += soloBaselineCycles(config, names);
    return trial;
}

void
pairSetup(std::uint64_t seed, const std::vector<std::string>& names,
          std::size_t jobs)
{
    const SystemConfig config = pairConfig(seed);
    MultiprogramRunner runner(config, kPairScale, kPairMinRuns, jobs);
    for (const std::string& name : names)
        buildSolo(seed, name, false);
    for (const std::string& a : names) {
        for (const std::string& b : names) {
            Machine machine(config);
            Simulation sim(machine);
            for (const std::string* name : {&a, &b}) {
                WorkloadSpec spec;
                spec.benchmark = *name;
                spec.threads = 1;
                spec.lengthScale = kPairScale;
                sim.addProcess(spec);
            }
        }
    }
}

struct Chip
{
    std::unique_ptr<MultiCoreSystem> system;
    std::unique_ptr<MultiCoreSimulation> sim;
};

Chip
buildChip(std::uint64_t seed, AllocPolicyKind policy, double scale)
{
    MultiCoreConfig config;
    config.system.seed = seed;
    config.cores = kChipCores;
    config.policy = policy;
    config.epochCycles = kChipEpochCycles;
    Chip chip;
    chip.system = std::make_unique<MultiCoreSystem>(config);
    chip.sim = std::make_unique<MultiCoreSimulation>(*chip.system);
    const std::vector<std::string>& names = benchmarkNames();
    for (std::size_t p = 0; p < kChipProcesses; ++p) {
        WorkloadSpec spec;
        spec.benchmark = names[p % names.size()];
        spec.lengthScale = scale;
        chip.sim->addProcess(spec);
    }
    return chip;
}

/** One chip trial: build the chip, run it to completion. */
Trial
chipTrial(std::uint64_t seed, AllocPolicyKind policy, double scale,
          std::uint32_t step_threads, Tracer* tracer)
{
    Trial trial;
    SpanScope top(tracer, "chip.trial");
    Chip chip;
    {
        SpanScope span(tracer, "alloc.build", top.id());
        chip = buildChip(seed, policy, scale);
    }
    MultiCoreSimulation::RunOptions options;
    options.stepThreads = step_threads;
    MultiRunResult result;
    {
        SpanScope span(tracer, "alloc.run", top.id());
        result = chip.sim->run(options);
        span.arg("step_threads", step_threads);
        span.arg("cycles", static_cast<double>(result.cycles));
        span.arg("instr", static_cast<double>(
                              result.total(EventId::kInstrRetired)));
        span.arg("epochs", static_cast<double>(result.epochs));
        span.arg("migrations", static_cast<double>(result.migrations));
        span.arg("steals", static_cast<double>(result.steals));
    }
    trial.cycles = static_cast<double>(result.cycles);
    trial.digests.push_back(digestOf(result));
    trial.complete.push_back(result.allComplete && !result.cancelled);
    return trial;
}

// ---------------------------------------------------------------
// Fixed layer probes of the traced pass.

/** Sink for loop results so the timed work cannot be elided. */
volatile std::uint64_t g_sink = 0;

/**
 * Times @p body over @p ops operations, kProbeReps times, each rep
 * in its own span (run.py takes the median ns/op).
 */
template <typename Body>
void
timedLoop(Tracer* tracer, const char* name, std::size_t ops, Body body)
{
    CpuRotation rotation;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        rotation.next();
        std::uint64_t acc = 0;
        {
            SpanScope span(tracer, name);
            for (std::size_t i = 0; i < ops; ++i)
                acc += body(i);
            span.arg("ops", static_cast<double>(ops));
        }
        g_sink = g_sink + acc;
    }
}

/** ns/op of the substrate calls the core makes every cycle. */
void
substrateProbes(std::uint64_t seed, Tracer* tracer)
{
    constexpr std::size_t kOps = 1u << 19;
    constexpr std::size_t kStream = 1u << 16;
    const WorkloadProfile& db = benchmarkProfile("db");
    const WorkloadProfile& javac = benchmarkProfile("javac");

    // Address streams are generated once so the loops time only the
    // call under test.
    std::vector<Addr> random_addrs(kStream);
    Rng rng(seed);
    for (Addr& addr : random_addrs)
        addr = rng.below(4u << 20);
    std::vector<Addr> data_addrs(kStream);
    DataModel data_stream(db, Rng(seed + 1), 0, 1);
    for (Addr& addr : data_addrs)
        addr = data_stream.nextAddr();
    std::vector<std::pair<Addr, Addr>> code_lines(kStream);
    CodeWalker code_stream(javac, Rng(seed + 2));
    for (auto& line : code_lines) {
        line.first = code_stream.nextLine();
        line.second = code_stream.currentDenseAddr();
    }
    const auto at = [&](const auto& stream, std::size_t i) {
        return stream[i & (kStream - 1)];
    };

    CacheConfig cache_config;
    cache_config.sizeBytes = 1024 * 1024;
    cache_config.lineBytes = 64;
    cache_config.ways = 8;
    Cache cache(cache_config);
    timedLoop(tracer, "micro.cache_access", kOps, [&](std::size_t i) {
        return std::uint64_t{cache.access(1, at(random_addrs, i), 0)};
    });

    Pmu pmu;
    MemorySystem mem(MemConfig{}, pmu);
    Cycle now = 0;
    timedLoop(tracer, "micro.data_access", kOps, [&](std::size_t i) {
        now += 4;
        return std::uint64_t{
            mem.dataAccess(1, at(data_addrs, i), 0, false, now).latency};
    });
    timedLoop(tracer, "micro.fetch_line", kOps, [&](std::size_t i) {
        now += 4;
        const auto& line = at(code_lines, i);
        return std::uint64_t{
            mem.fetchLine(1, line.first, line.second, 0, now).latency};
    });

    Btb btb(BtbConfig{});
    timedLoop(tracer, "micro.btb_access", kOps, [&](std::size_t i) {
        return std::uint64_t{btb.access(1, at(code_lines, i).first, 0)};
    });

    CodeWalker walker(javac, Rng(seed + 3));
    timedLoop(tracer, "micro.code_walker", kOps, [&](std::size_t) {
        return std::uint64_t{walker.nextLine()};
    });
    DataModel model(db, Rng(seed + 4), 0, 2);
    timedLoop(tracer, "micro.data_model", kOps, [&](std::size_t) {
        return std::uint64_t{model.nextAddr()};
    });
}

/**
 * Profiler and trace-sink overheads: the same solo run plain, with a
 * StageProfiler attached, and with a disabled / enabled TraceSink,
 * interleaved so host drift hits every variant alike.
 */
void
instrumentationProbes(std::uint64_t seed, Tracer* tracer)
{
    const std::string benchmark = "PseudoJBB";
    CpuRotation rotation;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        rotation.next();
        {
            SoloSystem system = buildSolo(seed, benchmark, true);
            SpanScope span(tracer, "uarch.plain");
            system.sim->run();
        }
        {
            SoloSystem system = buildSolo(seed, benchmark, true);
            StageProfiler profiler;
            system.machine->core().setProfiler(&profiler);
            SpanScope span(tracer, "uarch.profiled");
            system.sim->run();
            span.arg("retire_s", profiler.retireSeconds);
            span.arg("fetch_alloc_s", profiler.fetchAllocSeconds);
            span.arg("memory_s", profiler.memorySeconds);
            span.arg("account_s", profiler.accountSeconds);
            span.arg("fast_forward_s", profiler.fastForwardSeconds);
        }
        for (const char* mode : {"trace.none", "trace.off", "trace.on"}) {
            SoloSystem system = buildSolo(seed, benchmark, true);
            trace::TraceSink sink;
            sink.setEnabled(std::strcmp(mode, "trace.on") == 0);
            Simulation::RunOptions options;
            if (std::strcmp(mode, "trace.none") != 0)
                options.trace = &sink;
            SpanScope span(tracer, mode);
            const RunResult result = system.sim->run(options);
            span.arg("cycles", static_cast<double>(result.cycles));
            span.arg("events",
                     static_cast<double>(sink.size() + sink.dropped()));
        }
    }
}

/**
 * RunCache save/load and SweepCheckpoint record+flush of one solo
 * trial's results, through files under @p scratch.
 */
void
storeProbes(const std::vector<std::pair<std::string, RunResult>>& results,
            const std::filesystem::path& scratch, Tracer* tracer)
{
    std::filesystem::create_directories(scratch);
    const std::string store = (scratch / "store.json").string();
    const std::string manifest = (scratch / "checkpoint.json").string();
    for (int rep = 0; rep < kProbeReps; ++rep) {
        exec::RunCache cache;
        for (const auto& [key, result] : results)
            cache.insert(key, result);
        {
            SpanScope span(tracer, "exec.store_save");
            if (!cache.save(store))
                throw std::runtime_error("RunCache::save failed");
        }
        exec::RunCache loaded;
        {
            SpanScope span(tracer, "exec.store_load");
            if (!loaded.load(store))
                throw std::runtime_error("RunCache::load failed");
        }
        if (loaded.size() != results.size())
            throw std::runtime_error("RunCache round trip lost entries");

        std::filesystem::remove(manifest);
        resilience::SweepCheckpoint checkpoint(manifest, results.size() + 1);
        {
            SpanScope span(tracer, "resilience.checkpoint_flush");
            for (const auto& [key, result] : results)
                checkpoint.record(key, result);
            if (!checkpoint.flush())
                throw std::runtime_error("SweepCheckpoint::flush failed");
        }
    }
    std::filesystem::remove(store);
    std::filesystem::remove(manifest);
}

// ---------------------------------------------------------------
// JSON output.

void
appendNumber(std::string& out, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
}

/** Writes one JSON object member by member; closes on destruction. */
class JsonObject
{
  public:
    explicit JsonObject(std::string& out) : _out(out) { _out += '{'; }
    ~JsonObject() { _out += '}'; }

    JsonObject(const JsonObject&) = delete;
    JsonObject& operator=(const JsonObject&) = delete;

    /** Starts a member; the caller appends its value. */
    void
    key(const std::string& name)
    {
        if (!_first)
            _out += ',';
        _first = false;
        json::appendEscaped(_out, name);
        _out += ':';
    }

    void
    number(const std::string& name, double value)
    {
        key(name);
        appendNumber(_out, value);
    }

    void
    text(const std::string& name, const std::string& value)
    {
        key(name);
        json::appendEscaped(_out, value);
    }

    void
    boolean(const std::string& name, bool value)
    {
        key(name);
        _out += value ? "true" : "false";
    }

  private:
    std::string& _out;
    bool _first = true;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path scratch = ".bench_build/scratch";
};

Options
parseArgs(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::stoull(value);
        else if (arg == "--seconds")
            options.seconds = std::stod(value);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--scratch")
            options.scratch = value;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (options.seconds <= 0.0)
        throw std::invalid_argument("--seconds must be positive");
    return options;
}

struct TrialRecord
{
    double wall = 0.0;
    double cycles = 0.0;
    bool traced = false;
    bool warmup = false;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

int
run(const Options& options)
{
    setVerbose(false);
    const std::uint64_t seed = options.seed;
    const std::size_t host_cpus =
        std::max(1u, std::thread::hardware_concurrency());
    const std::size_t jobs = exec::TaskPool::resolveJobs(host_cpus);
    const std::uint32_t step_threads = static_cast<std::uint32_t>(
        std::min<std::size_t>(host_cpus, kChipCores));
    const std::vector<std::string>& pair_names = singleThreadedNames();

    const std::string& w = options.workload;
    const bool is_chip = w == "chip4-migrate" || w == "chip4-pinned";
    const AllocPolicyKind policy = w == "chip4-migrate"
                                       ? AllocPolicyKind::kRoundRobin
                                       : AllocPolicyKind::kStaticPin;
    if (w != "solo-sweep" && w != "pair-matrix" && !is_chip)
        throw std::invalid_argument("unknown workload " + w);

    Tracer tracer;
    Tracer* const traced = options.trace ? &tracer : nullptr;
    std::vector<std::pair<std::string, RunResult>> solo_results;

    // The workload's trial; `serial` runs a chip at step-threads 1.
    const auto trial = [&](Tracer* t, bool serial) {
        if (w == "solo-sweep") {
            const bool keep = t != nullptr && solo_results.empty();
            return soloTrial(seed, t, keep ? &solo_results : nullptr);
        }
        if (w == "pair-matrix")
            return pairTrial(seed, pair_names, jobs, t);
        return chipTrial(seed, policy, kChipScale,
                         serial ? 1 : step_threads, t);
    };

    // Set-up: stand up every simulated system a trial instantiates
    // (machines built, processes launched, no cycle run).
    std::vector<double> setup;
    {
        CpuRotation rotation;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            rotation.next();
            const Clock::time_point start = Clock::now();
            if (w == "solo-sweep")
                soloSetup(seed);
            else if (w == "pair-matrix")
                pairSetup(seed, pair_names, jobs);
            else
                buildChip(seed, policy, kChipScale);
            setup.push_back(secondsSince(start));
        }
    }

    // Reference digests: the serial step-threads-1 run for chips
    // (outside every timed window), else the first trial.
    std::vector<std::uint64_t> reference;
    std::vector<TrialRecord> records;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto check = [&](const Trial& t) {
        attempted += t.digests.size();
        for (std::size_t i = 0; i < t.digests.size(); ++i) {
            if (!t.complete[i] || i >= reference.size() ||
                t.digests[i] != reference[i])
                ++failed;
        }
    };
    if (is_chip) {
        const Trial ref = trial(nullptr, true);
        reference = ref.digests;
        check(ref);
    }

    // Closed loop: trials back to back until the window closes. The
    // traced pass alternates untraced and traced trials (chips add a
    // traced serial run) so their wall times share host conditions.
    const Clock::time_point window = Clock::now();
    int timed = 0;
    for (int i = 0;; ++i) {
        const bool warmup = i < kWarmupTrials;
        if (!warmup && timed >= kMinTimedTrials &&
            secondsSince(window) >= options.seconds)
            break;
        std::vector<std::pair<Tracer*, bool>> plan = {{nullptr, false}};
        if (traced != nullptr && !warmup) {
            plan.emplace_back(traced, false);
            if (is_chip)
                plan.emplace_back(traced, true);
        }
        for (const auto& [t, serial] : plan) {
            const Clock::time_point start = Clock::now();
            const Trial result = trial(t, serial);
            const double wall = secondsSince(start);
            if (reference.empty())
                reference = result.digests;
            check(result);
            if (serial)
                continue;
            records.push_back(TrialRecord{wall, result.cycles, t != nullptr,
                                          warmup, result.cacheHits,
                                          result.cacheMisses});
            if (!warmup && t == nullptr)
                ++timed;
        }
    }
    const double peak_rss_mb = peakRssMb();

    // Layer probes: fixed reduced runs of the layers this workload
    // does not reach, then the workload-independent probes.
    if (traced != nullptr) {
        const auto complete = [](const Trial& t) {
            if (std::find(t.complete.begin(), t.complete.end(), false) !=
                t.complete.end())
                throw std::runtime_error("a layer probe run failed");
        };
        if (w != "solo-sweep")
            complete(soloTrial(seed, traced, &solo_results));
        if (w != "pair-matrix") {
            const std::vector<std::string> probe_names(
                pair_names.begin(), pair_names.begin() + 3);
            for (int rep = 0; rep < 2; ++rep)
                complete(pairTrial(seed, probe_names, jobs, traced));
        }
        // The alloc probe is the migrating chip: its wall time tracks
        // per-CPU host drift too closely for an end-to-end bound, so
        // a migration change is read here, serial against parallel.
        if (!is_chip) {
            for (int rep = 0; rep < 3; ++rep) {
                for (const std::uint32_t threads : {1u, step_threads}) {
                    complete(chipTrial(seed, AllocPolicyKind::kRoundRobin,
                                       kChipScale / 4, threads, traced));
                }
            }
        }
        substrateProbes(seed, traced);
        instrumentationProbes(seed, traced);
        storeProbes(solo_results, options.scratch, traced);
    }

    Digest sim_digest;
    for (const std::uint64_t d : reference)
        sim_digest.add(d);

    char digest_hex[24];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(sim_digest.value));

    std::string out;
    {
        JsonObject doc(out);
        doc.text("workload", w);
        doc.number("host_cpus", static_cast<double>(host_cpus));
        doc.number("jobs", static_cast<double>(w == "pair-matrix" ? jobs : 1));
        doc.number("step_workers", is_chip ? step_threads : 1);
        doc.number("attempted", static_cast<double>(attempted));
        doc.number("failed", static_cast<double>(failed));
        doc.text("sim_digest", digest_hex);
        doc.number("peak_rss_mb", peak_rss_mb);
        doc.key("setup_s");
        out += '[';
        for (std::size_t i = 0; i < setup.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNumber(out, setup[i]);
        }
        out += ']';
        doc.key("trials");
        out += '[';
        for (std::size_t i = 0; i < records.size(); ++i) {
            const TrialRecord& r = records[i];
            if (i > 0)
                out += ',';
            JsonObject item(out);
            item.number("wall_s", r.wall);
            item.number("cycles", r.cycles);
            item.boolean("traced", r.traced);
            item.boolean("warmup", r.warmup);
            item.number("cache_hits", static_cast<double>(r.cacheHits));
            item.number("cache_misses", static_cast<double>(r.cacheMisses));
        }
        out += ']';
        doc.key("spans");
        out += '[';
        const std::vector<Span>& spans = tracer.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& span = spans[i];
            if (i > 0)
                out += ',';
            JsonObject item(out);
            item.number("id", static_cast<double>(i));
            item.number("parent", span.parent);
            item.text("name", span.name);
            item.number("start", span.start);
            item.number("end", span.end);
            item.key("args");
            JsonObject args(out);
            for (const auto& [key, value] : span.args)
                args.number(key, value);
        }
        out += ']';
    }
    out += '\n';
    std::fputs(out.c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "jsmtbench: %s\n", e.what());
        return 2;
    }
}
