/**
 * @file
 * Disabled-trace-sink overhead probe.
 *
 * The trace layer promises that attaching a TraceSink that is
 * switched off costs under 2% of wall time. This probe measures that
 * cost on the two paths that carry it: a solo `compress` run, and the
 * 4-core round-robin chip stepped serially. Each is timed as
 * interleaved pairs (plain run, disabled-sink run), the order
 * inside a pair alternating and one warm-up pair dropped, so host
 * drift lands on both halves of a pair alike. The overhead is the
 * median of the per-pair ratios, reported with its distribution-free
 * 95% interval.
 *
 * It also prints the simulated cycles of its runs, which every run
 * must reproduce exactly (sink attached or not), and the chip's
 * simulated Mcycles/s over its plain runs.
 *
 * Usage: sink_overhead (no arguments). Prints one JSON line, and
 * exits 1 when a run simulated different cycles or either median
 * overhead is over the budget. CI runs it as its sink gate.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/log.h"
#include "core/simulation.h"
#include "jvm/benchmarks.h"
#include "os/allocation/multi_core.h"
#include "trace/trace_sink.h"

namespace {

using namespace jsmt;

/** Workload length scale of every probe run. */
constexpr double kScale = 0.05;

/** The trace layer's promise: a disabled sink costs at most this. */
constexpr double kBudgetPct = 2.0;

/**
 * Timed pairs per path. On a 4-vCPU host under load, 150 pairs left
 * the median's 95% interval as wide as ±1.2% on the solo path and
 * ±1.3% on the chip (per-pair ratio IQR near 0.08); these counts put
 * it within about ±1%. A solo run takes about 7 ms, a chip run
 * about 100 ms.
 */
constexpr int kSoloPairs = 600;
constexpr int kChipPairs = 300;

/** One timed run: wall seconds and simulated cycles. */
struct Timed
{
    double seconds = 0.0;
    double cycles = 0.0;
};

template <typename Run>
Timed
timed(Run&& run)
{
    const auto start = std::chrono::steady_clock::now();
    const double cycles = static_cast<double>(run());
    return {std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count(),
            cycles};
}

/** A solo compress run, optionally with a disabled sink attached. */
Timed
soloRun(bool attach_disabled_sink)
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
    spec.lengthScale = kScale;
    sim.addProcess(spec);
    return timed([&] { return sim.run().cycles; });
}

/**
 * The 4-core round-robin chip (8 processes) at one step thread,
 * optionally with a disabled sink attached.
 */
Timed
chipRun(bool attach_disabled_sink)
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
        spec.lengthScale = kScale;
        sim.addProcess(spec);
    }
    trace::TraceSink sink; // Constructed disabled.
    MultiCoreSimulation::RunOptions run;
    run.stepThreads = 1;
    if (attach_disabled_sink)
        run.trace = &sink;
    return timed([&] { return sim.run(run).cycles; });
}

/** What the interleaved pairs of one path measured. */
struct Overhead
{
    double pct = 0.0;    // median per-pair slowdown
    double lowPct = 0.0; // its 95% interval
    double highPct = 0.0;
    double plainSeconds = 0.0; // median plain run
    double cycles = 0.0;
    bool identical = true; // every run simulated the same cycles
};

Overhead
pairedOverhead(int pairs, const std::function<Timed(bool)>& run)
{
    Overhead out;
    out.cycles = run(false).cycles; // Warm-up pair, not timed.
    run(true);
    std::vector<double> ratios;
    std::vector<double> plain;
    for (int i = 0; i < pairs; ++i) {
        const bool sink_first = (i % 2) == 1;
        const Timed first = run(sink_first);
        const Timed second = run(!sink_first);
        const Timed& off = sink_first ? second : first;
        const Timed& on = sink_first ? first : second;
        out.identical = out.identical && off.cycles == out.cycles &&
                        on.cycles == out.cycles;
        ratios.push_back(on.seconds / off.seconds);
        plain.push_back(off.seconds);
    }
    std::sort(ratios.begin(), ratios.end());
    std::sort(plain.begin(), plain.end());
    // Order-statistic interval of the median: ranks n/2 -+
    // 0.98 sqrt(n), the binomial normal approximation at z = 1.96.
    const std::size_t n = ratios.size();
    const double half = 0.98 * std::sqrt(static_cast<double>(n));
    const auto rank = [&](double r) {
        return static_cast<std::size_t>(std::clamp(
            std::round(r), 0.0, static_cast<double>(n - 1)));
    };
    const auto median = [](const std::vector<double>& v) {
        const std::size_t mid = v.size() / 2;
        return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
    };
    out.pct = (median(ratios) - 1.0) * 100.0;
    out.lowPct = (ratios[rank((n - 1) / 2.0 - half)] - 1.0) * 100.0;
    out.highPct = (ratios[rank((n - 1) / 2.0 + half)] - 1.0) * 100.0;
    out.plainSeconds = median(plain);
    return out;
}

} // namespace

int
main(int argc, char** /*argv*/)
{
    if (argc != 1) {
        std::fputs("usage: sink_overhead (takes no arguments)\n",
                   stderr);
        return 1;
    }
    setVerbose(false);
    const Overhead solo = pairedOverhead(kSoloPairs, soloRun);
    const Overhead chip = pairedOverhead(kChipPairs, chipRun);
    if (!solo.identical || !chip.identical) {
        std::fputs("sink_overhead: a disabled-sink run simulated "
                   "different cycles\n",
                   stderr);
        return 1;
    }
    std::printf("{\"scale\":%g,\"solo_pairs\":%d,\"chip_pairs\":%d,"
                "\"solo_cycles\":%.0f,"
                "\"trace_overhead_pct\":%.2f,"
                "\"trace_overhead_ci_pct\":[%.2f,%.2f],"
                "\"multicore_cycles\":%.0f,"
                "\"multicore_mcycles_per_sec\":%.2f,"
                "\"multicore_trace_overhead_pct\":%.2f,"
                "\"multicore_trace_overhead_ci_pct\":[%.2f,%.2f]}\n",
                kScale, kSoloPairs, kChipPairs, solo.cycles, solo.pct,
                solo.lowPct, solo.highPct, chip.cycles,
                chip.cycles / 1e6 / chip.plainSeconds, chip.pct,
                chip.lowPct, chip.highPct);
    if (solo.pct > kBudgetPct || chip.pct > kBudgetPct) {
        std::fprintf(stderr,
                     "sink_overhead: median overhead over the %.0f%% "
                     "budget (solo %.2f%%, chip %.2f%%)\n",
                     kBudgetPct, solo.pct, chip.pct);
        return 1;
    }
    return 0;
}
