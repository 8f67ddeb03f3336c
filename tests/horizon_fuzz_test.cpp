/**
 * @file
 * Randomized-configuration fuzz test for the event-horizon engine.
 *
 * The horizon fast path (DESIGN.md §9) must be architecturally
 * invisible for EVERY machine geometry, not just the golden-run
 * defaults: a config-dependent bound that is off by one cycle shows
 * up as a counter drift only under the geometry that tightens it.
 * Each case draws a machine from a deterministic Rng — window-size
 * edges (a 6-entry ROB halves to 3 under static HT partitioning),
 * widths down to 1, short OS quanta, HT on/off, static/dynamic
 * partitioning, one or two workloads, optional sampling — and runs
 * it twice, horizon skipping on vs. off (`--no-fast-forward`
 * equivalent). The full RunResult — final cycle count, every PMU
 * counter on every context, per-process results and sample edges —
 * must match bit for bit. One case runs the same check with a
 * trace sink whose ring allocation failed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/simulation.h"
#include "expect_identical.h"
#include "jvm/benchmarks.h"
#include "trace/trace_sink.h"

namespace jsmt {
namespace {

/** One randomized machine + workload draw. */
struct FuzzCase
{
    SystemConfig config;
    std::vector<WorkloadSpec> specs;
    Cycle sampleInterval = 0;
};

/** Draw a config biased toward boundary geometries. */
FuzzCase
drawCase(Rng& rng)
{
    FuzzCase fuzz;
    SystemConfig& config = fuzz.config;

    // Window geometry edges: the smallest ROB still splittable
    // under static HT partitioning, a mid-size one, the Northwood
    // default. Queues scale alongside so they can be the binding
    // resource in some draws and slack in others.
    static constexpr std::uint32_t kRobChoices[] = {6, 16, 126};
    config.core.robEntries =
        kRobChoices[rng.below(3)];
    config.core.loadBufEntries =
        config.core.robEntries <= 16 ? 4 : 48;
    config.core.storeBufEntries =
        config.core.robEntries <= 16 ? 2 : 24;
    // Widths 1..3 (the retirement histogram models the P4's 3-µop
    // retire limit, so wider machines are rejected at boot).
    config.core.fetchAllocWidth =
        static_cast<std::uint32_t>(rng.between(1, 3));
    config.core.issueWidth =
        static_cast<std::uint32_t>(rng.between(1, 3));
    config.core.retireWidth =
        static_cast<std::uint32_t>(rng.between(1, 3));
    config.core.partitionPolicy = rng.chance(0.5)
                                      ? PartitionPolicy::kStatic
                                      : PartitionPolicy::kDynamic;

    // Short quanta put scheduler horizons in play; the default
    // leaves ROB/fetch bounds binding instead.
    static constexpr Cycle kQuantumChoices[] = {1'500, 12'000,
                                                60'000};
    config.os.quantumCycles = kQuantumChoices[rng.below(3)];
    config.hyperThreading = rng.chance(0.5);
    config.seed = rng.next();

    const std::vector<std::string>& names = benchmarkNames();
    const std::size_t workloads = rng.chance(0.4) ? 2 : 1;
    for (std::size_t i = 0; i < workloads; ++i) {
        WorkloadSpec spec;
        spec.benchmark = names[rng.below(names.size())];
        spec.threads =
            static_cast<std::uint32_t>(rng.between(1, 2));
        // Tiny scales: the plain (no-fast-forward) arm simulates
        // every cycle, and narrow/small-window draws are an order
        // of magnitude slower per µop than the default machine.
        spec.lengthScale = rng.chance(0.5) ? 0.003 : 0.006;
        fuzz.specs.push_back(spec);
    }

    // Sampling must observe the same clock edges either way.
    if (rng.chance(0.33))
        fuzz.sampleInterval = 5'000;
    return fuzz;
}

RunResult
runCase(const FuzzCase& fuzz, bool fast_forward, int* samples,
        trace::TraceSink* sink = nullptr)
{
    Machine machine(fuzz.config);
    if (sink != nullptr)
        machine.setTraceSink(sink);
    Simulation sim(machine);
    for (const WorkloadSpec& spec : fuzz.specs)
        sim.addProcess(spec);
    Simulation::RunOptions options;
    options.fastForward = fast_forward;
    // Hard cap so every draw terminates quickly even when a
    // narrow-machine/workload combination would otherwise run for
    // billions of cycles: truncated runs stop at the same clock on
    // both arms and compare just as strictly.
    options.maxCycles = 2'000'000;
    if (fuzz.sampleInterval > 0) {
        options.sampleIntervalCycles = fuzz.sampleInterval;
        options.onSample = [&](Simulation&, Cycle) {
            if (samples != nullptr)
                ++*samples;
        };
    }
    return sim.run(options);
}

std::string
describe(const FuzzCase& fuzz, std::size_t index)
{
    std::string label = "case " + std::to_string(index) + ": rob=" +
                        std::to_string(fuzz.config.core.robEntries) +
                        " widths=" +
                        std::to_string(
                            fuzz.config.core.fetchAllocWidth) +
                        "/" +
                        std::to_string(fuzz.config.core.issueWidth) +
                        "/" +
                        std::to_string(
                            fuzz.config.core.retireWidth) +
                        " quantum=" +
                        std::to_string(
                            fuzz.config.os.quantumCycles) +
                        (fuzz.config.hyperThreading ? " ht" :
                                                      " no-ht");
    for (const WorkloadSpec& spec : fuzz.specs)
        label += " " + spec.benchmark;
    return label;
}

TEST(HorizonFuzz, RandomGeometriesAreBitIdenticalToCycleByCycle)
{
    Rng rng(0x5eed2026);
    for (std::size_t i = 0; i < 14; ++i) {
        const FuzzCase fuzz = drawCase(rng);
        const std::string label = describe(fuzz, i);
        int ff_samples = 0;
        int plain_samples = 0;
        const RunResult ff = runCase(fuzz, true, &ff_samples);
        const RunResult plain = runCase(fuzz, false, &plain_samples);
        expectIdentical(ff, plain, label);
        EXPECT_EQ(ff_samples, plain_samples) << label;
    }
}

void
failAllocation(std::size_t)
{
    throw std::bad_alloc();
}

TEST(HorizonFuzz, DegradedTraceSinkStaysIdentical)
{
    // A trace sink whose ring allocation failed must not interact
    // with horizon skipping: the degraded sink is a no-op observer
    // either way.
    Rng rng(0xfa417);
    for (std::size_t i = 0; i < 3; ++i) {
        const FuzzCase fuzz = drawCase(rng);
        const std::string label = "faulted " + describe(fuzz, i);
        trace::TraceSink ff_sink(1u << 12, failAllocation);
        trace::TraceSink plain_sink(1u << 12, failAllocation);
        EXPECT_TRUE(ff_sink.degraded());
        const RunResult ff = runCase(fuzz, true, nullptr, &ff_sink);
        const RunResult plain =
            runCase(fuzz, false, nullptr, &plain_sink);
        expectIdentical(ff, plain, label);
    }
}

} // namespace
} // namespace jsmt
