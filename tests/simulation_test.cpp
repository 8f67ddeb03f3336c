/**
 * @file
 * Tests for the simulation driver: process lifecycle, callbacks,
 * determinism and the warmed-rerun (asid reuse) mechanism.
 */

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "jvm/benchmarks.h"

namespace jsmt {
namespace {

constexpr double kTinyScale = 0.02;

TEST(Simulation, DefaultThreadCountFromProfile)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "MolDyn"; // defaultThreads = 2.
    spec.lengthScale = kTinyScale;
    JavaProcess& process = sim.addProcess(spec);
    EXPECT_EQ(process.numAppThreads(), 2u);
}

TEST(Simulation, MaxCyclesBoundsRun)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.lengthScale = 1.0;
    sim.addProcess(spec);
    Simulation::RunOptions options;
    options.maxCycles = 1'000;
    const RunResult result = sim.run(options);
    EXPECT_FALSE(result.allComplete);
    EXPECT_EQ(result.cycles, 1'000u);
}

TEST(Simulation, ClockContinuesAcrossRuns)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    sim.run();
    const Cycle after_first = sim.now();
    sim.addProcess(spec);
    sim.run();
    EXPECT_GT(sim.now(), after_first);
}

TEST(Simulation, SecondRunReportsOnlyItsOwnEvents)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    const RunResult first = sim.run();
    sim.addProcess(spec);
    const RunResult second = sim.run();
    ASSERT_GT(first.total(EventId::kUopsRetired), 0u);
    ASSERT_GT(second.total(EventId::kUopsRetired), 0u);

    // Each run is a delta of the PMU's event lines, so the two runs
    // partition everything the machine ever counted.
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            const auto event = static_cast<EventId>(e);
            EXPECT_EQ(first.event(event, ctx) +
                          second.event(event, ctx),
                      machine.pmu().raw(event, ctx))
                << eventName(event) << " on lcpu" << ctx;
        }
    }
}

TEST(Simulation, RunExcludesEventsCountedBeforeIt)
{
    SystemConfig config;
    Machine machine(config);
    machine.pmu().record(EventId::kCycles, 0, 1000); // Before the run.
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    const RunResult result = sim.run();

    EXPECT_EQ(result.event(EventId::kCycles, 0),
              machine.pmu().raw(EventId::kCycles, 0) - 1000);
    EXPECT_EQ(result.event(EventId::kCycles, 1),
              machine.pmu().raw(EventId::kCycles, 1));
    EXPECT_EQ(result.total(EventId::kCycles),
              machine.pmu().rawTotal(EventId::kCycles) - 1000);
    EXPECT_GT(result.total(EventId::kCycles), 0u);
}

TEST(Simulation, ExitCallbackFiresOncePerProcess)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "jess";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    int exits = 0;
    Simulation::RunOptions options;
    options.onProcessExit = [&](Simulation&, JavaProcess&) {
        ++exits;
        return true;
    };
    sim.run(options);
    EXPECT_EQ(exits, 1);
}

TEST(Simulation, RelaunchFromCallback)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.threads = 1;
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    int completions = 0;
    Simulation::RunOptions options;
    options.onProcessExit = [&](Simulation& s, JavaProcess&) {
        if (++completions >= 3)
            return false;
        s.addProcess(spec);
        return true;
    };
    sim.run(options);
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(sim.processes().size(), 3u);
    // Every relaunch got a fresh address space.
    EXPECT_NE(sim.processes()[0]->asid(),
              sim.processes()[1]->asid());
}

TEST(Simulation, ReuseAsidGivesWarmCaches)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "compress";
    spec.threads = 1;
    spec.lengthScale = kTinyScale;
    JavaProcess& first = sim.addProcess(spec);
    const RunResult cold = sim.run();

    WorkloadSpec warm_spec = spec;
    warm_spec.reuseAsid = first.asid();
    sim.addProcess(warm_spec);
    const RunResult warm = sim.run();
    // The warmed iteration misses less in the L2.
    EXPECT_LT(warm.total(EventId::kL2Miss),
              cold.total(EventId::kL2Miss));
}

TEST(Simulation, DeterministicAcrossIdenticalMachines)
{
    const auto run_once = [] {
        SystemConfig config;
        config.seed = 1234;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = "RayTracer";
        spec.threads = 2;
        spec.lengthScale = kTinyScale;
        sim.addProcess(spec);
        return sim.run();
    };
    const RunResult a = run_once();
    const RunResult b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.total(EventId::kUopsRetired),
              b.total(EventId::kUopsRetired));
    EXPECT_EQ(a.total(EventId::kL1dMiss),
              b.total(EventId::kL1dMiss));
}

TEST(Simulation, DifferentSeedsDiverge)
{
    const auto cycles_for = [](std::uint64_t seed) {
        SystemConfig config;
        config.seed = seed;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = "db";
        spec.lengthScale = kTinyScale;
        sim.addProcess(spec);
        return sim.run().cycles;
    };
    EXPECT_NE(cycles_for(1), cycles_for(2));
}

TEST(Simulation, ProcessResultsPopulated)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "javac";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    const RunResult result = sim.run();
    ASSERT_EQ(result.processes.size(), 1u);
    const ProcessResult& pr = result.processes[0];
    EXPECT_EQ(pr.benchmark, "javac");
    EXPECT_TRUE(pr.complete);
    EXPECT_GT(pr.durationCycles, 0u);
    EXPECT_GT(pr.allocatedBytes, 0u);
}

TEST(SimulationDeath, UnknownBenchmark)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "no-such-benchmark";
    EXPECT_EXIT(sim.addProcess(spec), testing::ExitedWithCode(1),
                "unknown benchmark");
}

} // namespace
} // namespace jsmt
