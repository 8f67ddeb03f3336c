/**
 * @file
 * Simulator-throughput benchmark.
 *
 * Default mode runs the paper's 9x9 single-threaded pair cross
 * product through the parallel experiment engine plus a serial
 * sweep of the ten-benchmark golden set (HT off and on, fresh
 * machine each — the single-core hot-path number the perf-smoke CI
 * job tracks) and prints a machine-readable one-line JSON summary
 * (simulated cycles, wall seconds, Mcycles/s, job count). With
 * `--out=FILE` the same JSON line is also written to FILE; the
 * committed BENCH_throughput.json baseline at the repo root is
 * regenerated that way and diffed by bench/check_throughput.py.
 *
 * `--micro` instead runs the google-benchmark microbenchmarks of
 * the simulator substrates (cache probes, synthetic streams,
 * end-to-end µops/s); remaining arguments are passed through to
 * google-benchmark.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/simulation.h"
#include "harness/multiprogram.h"
#include "jvm/benchmarks.h"
#include "jvm/code_walker.h"
#include "jvm/data_model.h"
#include "mem/cache.h"
#include "os/allocation/multi_core.h"
#include "trace/trace_sink.h"

namespace {

using namespace jsmt;

void
BM_CacheAccess(benchmark::State& state)
{
    CacheConfig config;
    config.sizeBytes = 1024 * 1024;
    config.lineBytes = 64;
    config.ways = 8;
    Cache cache(config);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(1, rng.below(4u << 20), 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CodeWalker(benchmark::State& state)
{
    const WorkloadProfile& profile = benchmarkProfile("jack");
    CodeWalker walker(profile, Rng(3));
    for (auto _ : state)
        benchmark::DoNotOptimize(walker.nextLine());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodeWalker);

void
BM_DataModel(benchmark::State& state)
{
    const WorkloadProfile& profile = benchmarkProfile("db");
    DataModel model(profile, Rng(5), 0, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.nextAddr());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataModel);

void
BM_EndToEndSimulation(benchmark::State& state)
{
    setVerbose(false);
    for (auto _ : state) {
        SystemConfig config;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = "compress";
        spec.threads = 1;
        spec.lengthScale = 0.05;
        sim.addProcess(spec);
        const RunResult result = sim.run();
        benchmark::DoNotOptimize(result.cycles);
        state.SetIterationTime(static_cast<double>(result.cycles));
        state.counters["sim_uops"] = benchmark::Counter(
            static_cast<double>(
                result.total(EventId::kUopsRetired)),
            benchmark::Counter::kIsRate);
    }
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

/**
 * Wall seconds for one fixed solo run, optionally with a disabled
 * TraceSink attached — the configuration whose overhead the trace
 * layer promises to keep under 2%.
 */
double
soloRunSeconds(double scale, bool attach_disabled_sink)
{
    SystemConfig config;
    Machine machine(config);
    trace::TraceSink sink; // Constructed disabled.
    if (attach_disabled_sink)
        machine.setTraceSink(&sink);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.threads = 1;
    spec.lengthScale = scale;
    sim.addProcess(spec);
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = sim.run();
    benchmark::DoNotOptimize(result.cycles);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Interleaved plain/disabled-sink pairs per trace-overhead field. */
constexpr int kOverheadPairs = 7;

/**
 * Relative slowdown (percent) of the disabled-sink side of
 * kOverheadPairs interleaved pairs against the plain side: the
 * median of the per-pair ratios. Host drift lands on both runs of a
 * pair alike, the order inside a pair alternates, and one noisy
 * pair cannot move a median.
 */
double
medianOverheadPct(const std::function<double(bool)>& run_seconds)
{
    std::vector<double> ratios;
    for (int i = 0; i < kOverheadPairs; ++i) {
        const bool sink_first = (i % 2) == 1;
        const double first = run_seconds(sink_first);
        const double second = run_seconds(!sink_first);
        const double plain = sink_first ? second : first;
        const double sink = sink_first ? first : second;
        if (plain > 0.0)
            ratios.push_back(sink / plain);
    }
    if (ratios.empty())
        return 0.0;
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    const double median = ratios.size() % 2 == 1
                              ? ratios[mid]
                              : (ratios[mid - 1] + ratios[mid]) / 2;
    return (median - 1.0) * 100.0;
}

/**
 * Serial (one thread, one machine at a time) simulation throughput
 * over the golden set: every registered benchmark solo, HT off and
 * HT on, fresh machine per run — the same runs the golden-run suite
 * pins, at a bench-sized scale. The simulated cycle total is
 * deterministic; wall time measures the per-cycle hot path with no
 * outer-loop parallelism hiding it.
 */
double
goldenSetSerialThroughput(double scale, double* cycles_out)
{
    double cycles = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& name : benchmarkNames()) {
        for (const bool ht : {false, true}) {
            SystemConfig config;
            config.hyperThreading = ht;
            config.seed = 42;
            Machine machine(config);
            Simulation sim(machine);
            WorkloadSpec spec;
            spec.benchmark = name;
            spec.lengthScale = scale;
            sim.addProcess(spec);
            const RunResult result = sim.run();
            cycles += static_cast<double>(result.cycles);
        }
    }
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    *cycles_out = cycles;
    return wall > 0.0 ? cycles / 1e6 / wall : 0.0;
}

/**
 * Wall seconds for one fixed 4-core chip run under the stepping
 * engine at @p step_threads workers, optionally with a disabled
 * TraceSink attached. The simulated chip cycles are returned via
 * @p cycles_out and are bit-identical for every thread count (that
 * is the engine's contract; check_throughput.py pins them).
 */
double
multiChipRunSeconds(double scale, std::uint32_t step_threads,
                    bool attach_disabled_sink, double* cycles_out)
{
    MultiCoreConfig config;
    config.system.seed = 42;
    config.cores = 4;
    config.policy = AllocPolicyKind::kRoundRobin;
    config.epochCycles = 50'000;
    MultiCoreSystem system(config);
    MultiCoreSimulation sim(system);
    const std::vector<std::string>& names = benchmarkNames();
    for (std::size_t p = 0; p < 8; ++p) {
        WorkloadSpec spec;
        spec.benchmark = names[p % names.size()];
        spec.lengthScale = scale;
        sim.addProcess(spec);
    }
    trace::TraceSink sink; // Constructed disabled.
    MultiCoreSimulation::RunOptions run;
    run.stepThreads = step_threads;
    if (attach_disabled_sink)
        run.trace = &sink;
    const auto start = std::chrono::steady_clock::now();
    const MultiRunResult result = sim.run(run);
    benchmark::DoNotOptimize(result.cycles);
    if (cycles_out != nullptr)
        *cycles_out = static_cast<double>(result.cycles);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Multi-core stepping-engine measurements: serial-reference chip
 * throughput and the 4-worker wall-clock scaling factor (best-of-N
 * wall times), and the disabled-sink overhead of the multi-core
 * path (median of interleaved pairs). The scaling run asks for 4
 * workers explicitly, so a small CI host still spawns them;
 * host_cpus is reported alongside so the checker only enforces the
 * scaling floor where the host can physically scale.
 */
void
multiCoreSteppingThroughput(double scale, double* cycles_out,
                            double* mcps_out, double* scaling_out,
                            double* overhead_pct_out)
{
    constexpr int kRepeats = 3;
    double serial = 1e30;
    double parallel = 1e30;
    double cycles = 0.0;
    for (int i = 0; i < kRepeats; ++i) {
        serial = std::min(
            serial, multiChipRunSeconds(scale, 1, false, &cycles));
        parallel = std::min(
            parallel, multiChipRunSeconds(scale, 4, false, nullptr));
    }
    *overhead_pct_out = medianOverheadPct([&](bool sink) {
        return multiChipRunSeconds(scale, 1, sink, nullptr);
    });
    *cycles_out = cycles;
    *mcps_out = serial > 0.0 ? cycles / 1e6 / serial : 0.0;
    *scaling_out = parallel > 0.0 ? serial / parallel : 0.0;
}

int
runPairMatrixThroughput(int argc, char** argv,
                        const std::string& out_path)
{
    ExperimentConfig config =
        benchConfig(argc, argv, /*default_scale=*/0.05);
    banner("Simulator throughput (9x9 pair cross product)",
           config);

    const std::vector<std::string> names = singleThreadedNames();
    MultiprogramRunner runner(config.system, config.lengthScale,
                              config.pairMinRuns, config.jobs);

    const auto start = std::chrono::steady_clock::now();
    const std::vector<PairResult> cells =
        runner.runCrossProduct(names);
    const double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    double cycles = 0.0;
    for (const PairResult& cell : cells)
        cycles += cell.coRunCycles;
    const double mcycles_per_sec =
        wall_seconds > 0.0 ? cycles / 1e6 / wall_seconds : 0.0;

    double serial_cycles = 0.0;
    // Best-of-3 to shed host-scheduler noise: the serial number is
    // the regression-guarded one, so it should measure the hot path,
    // not a noisy neighbour.
    double serial_mcps = 0.0;
    for (int i = 0; i < 3; ++i) {
        serial_mcps = std::max(
            serial_mcps, goldenSetSerialThroughput(
                             config.lengthScale, &serial_cycles));
    }

    const double trace_overhead_pct =
        medianOverheadPct([&](bool sink) {
            return soloRunSeconds(config.lengthScale, sink);
        });

    double multicore_cycles = 0.0;
    double multicore_mcps = 0.0;
    double step_scaling_4t = 0.0;
    double multicore_trace_pct = 0.0;
    multiCoreSteppingThroughput(config.lengthScale,
                                &multicore_cycles, &multicore_mcps,
                                &step_scaling_4t,
                                &multicore_trace_pct);
    const unsigned host_cpus = std::thread::hardware_concurrency();

    char line[768];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"simulator_throughput\","
                  "\"pairs\":%zu,\"pair_runs\":%zu,"
                  "\"scale\":%g,\"jobs\":%zu,"
                  "\"cycles\":%.0f,\"wall_seconds\":%.3f,"
                  "\"mcycles_per_sec\":%.2f,"
                  "\"serial_cycles\":%.0f,"
                  "\"serial_mcycles_per_sec\":%.2f,"
                  "\"trace_overhead_pct\":%.2f,"
                  "\"multicore_cycles\":%.0f,"
                  "\"multicore_mcycles_per_sec\":%.2f,"
                  "\"step_scaling_4t\":%.2f,"
                  "\"multicore_trace_overhead_pct\":%.2f,"
                  "\"host_cpus\":%u}\n",
                  cells.size(), config.pairMinRuns,
                  config.lengthScale, runner.jobs(), cycles,
                  wall_seconds, mcycles_per_sec, serial_cycles,
                  serial_mcps, trace_overhead_pct, multicore_cycles,
                  multicore_mcps, step_scaling_4t,
                  multicore_trace_pct, host_cpus);
    std::fputs(line, stdout);
    if (!out_path.empty()) {
        std::FILE* out = std::fopen(out_path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::fputs(line, out);
        std::fclose(out);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // `--micro` switches to the google-benchmark substrate micros;
    // everything after it is passed through to the library.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--micro") == 0) {
            int bench_argc = argc - 1;
            for (int j = i; j < argc - 1; ++j)
                argv[j] = argv[j + 1];
            benchmark::Initialize(&bench_argc, argv);
            benchmark::RunSpecifiedBenchmarks();
            return 0;
        }
    }
    // `--out=FILE` (consumed here; benchConfig rejects unknown
    // flags) mirrors the JSON summary line into FILE.
    std::string out_path;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
        else
            argv[kept++] = argv[i];
    }
    return runPairMatrixThroughput(kept, argv, out_path);
}
