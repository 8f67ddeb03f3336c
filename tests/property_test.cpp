/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * geometry and workload sweeps.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/simulation.h"
#include "exec/result_store.h"
#include "exec/task_pool.h"
#include "expect_identical.h"
#include "jvm/benchmarks.h"
#include "jvm/data_model.h"
#include "mem/cache.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"

namespace jsmt {
namespace {

// ---------------------------------------------------------------
// Cache geometry sweep: working sets within capacity are fully
// resident after one pass; beyond capacity they must miss.
// ---------------------------------------------------------------

using CacheGeometry = std::tuple<int, int>; // (size KB, ways)

class CacheGeometryTest
    : public testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheGeometryTest, WorkingSetWithinCapacityIsResident)
{
    const auto [size_kb, ways] = GetParam();
    CacheConfig config;
    config.sizeBytes = static_cast<std::uint64_t>(size_kb) * 1024;
    config.lineBytes = 64;
    config.ways = static_cast<std::uint32_t>(ways);
    Cache cache(config);
    // Touch half the capacity of sequential lines twice: the second
    // pass must be all hits (LRU keeps a sequential set).
    const std::uint64_t lines =
        config.sizeBytes / config.lineBytes / 2;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(1, i * 64, 0);
    const std::uint64_t misses_before = cache.misses();
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(1, i * 64, 0)) << i;
    EXPECT_EQ(cache.misses(), misses_before);
}

TEST_P(CacheGeometryTest, OverCapacityWorkingSetMisses)
{
    const auto [size_kb, ways] = GetParam();
    CacheConfig config;
    config.sizeBytes = static_cast<std::uint64_t>(size_kb) * 1024;
    config.lineBytes = 64;
    config.ways = static_cast<std::uint32_t>(ways);
    Cache cache(config);
    const std::uint64_t lines =
        2 * config.sizeBytes / config.lineBytes;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i)
            cache.access(1, i * 64, 0);
    }
    // Cyclic scan over 2x capacity with LRU: everything misses.
    EXPECT_EQ(cache.misses(), cache.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    testing::Values(CacheGeometry{8, 4}, CacheGeometry{8, 1},
                    CacheGeometry{64, 8}, CacheGeometry{1024, 8},
                    CacheGeometry{16, 2}),
    [](const testing::TestParamInfo<CacheGeometry>& param_info) {
        return std::to_string(std::get<0>(param_info.param)) +
               "kB_" +
               std::to_string(std::get<1>(param_info.param)) +
               "way";
    });

// ---------------------------------------------------------------
// Data footprint monotonicity: larger footprints cannot miss less.
// ---------------------------------------------------------------

class FootprintTest : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FootprintTest, MissesGrowWithFootprint)
{
    const std::uint64_t footprint_kb = GetParam();

    const auto misses_for = [](std::uint64_t kb) {
        WorkloadProfile profile;
        profile.name = "sweep";
        profile.privateBytes = kb * 1024;
        profile.sharedBytes = 4096;
        profile.privateFrac = 1.0;
        profile.hotFrac = 0.0;
        profile.warmFrac = 0.0;
        DataModel model(profile, Rng(11), 0, 1);
        CacheConfig config;
        config.sizeBytes = 8 * 1024;
        config.lineBytes = 64;
        config.ways = 4;
        Cache cache(config);
        for (int i = 0; i < 50000; ++i)
            cache.access(1, model.nextAddr(), 0);
        return cache.misses();
    };

    EXPECT_GE(misses_for(footprint_kb * 2) * 110 / 100,
              misses_for(footprint_kb));
}

INSTANTIATE_TEST_SUITE_P(Footprints, FootprintTest,
                         testing::Values(4u, 8u, 16u, 64u, 256u));

// ---------------------------------------------------------------
// Per-benchmark system properties.
// ---------------------------------------------------------------

class BenchmarkPropertyTest
    : public testing::TestWithParam<std::string>
{
  protected:
    static constexpr double kScale = 0.03;
};

TEST_P(BenchmarkPropertyTest, DeterministicCycles)
{
    const std::string name = GetParam();
    const auto run_once = [&] {
        SystemConfig config;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.lengthScale = kScale;
        sim.addProcess(spec);
        return sim.run().cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST_P(BenchmarkPropertyTest, CounterIdentitiesHold)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = GetParam();
    spec.lengthScale = kScale;
    sim.addProcess(spec);
    const RunResult result = sim.run();
    ASSERT_TRUE(result.allComplete);
    // Histogram covers all cycles and weights to retired µops.
    EXPECT_EQ(result.total(EventId::kRetire0) +
                  result.total(EventId::kRetire1) +
                  result.total(EventId::kRetire2) +
                  result.total(EventId::kRetire3),
              result.total(EventId::kCycles));
    EXPECT_EQ(result.total(EventId::kRetire1) +
                  2 * result.total(EventId::kRetire2) +
                  3 * result.total(EventId::kRetire3),
              result.total(EventId::kUopsRetired));
    // Structural inequalities.
    EXPECT_LE(result.total(EventId::kL1dMiss),
              result.total(EventId::kL1dAccess));
    EXPECT_LE(result.total(EventId::kItlbMiss),
              result.total(EventId::kItlbAccess));
    EXPECT_EQ(result.total(EventId::kDramAccess),
              result.total(EventId::kL2Miss));
    EXPECT_GT(result.total(EventId::kUserCycles), 0u);
}

TEST_P(BenchmarkPropertyTest, StaticPartitionNeverHelpsSoloRuns)
{
    // The defining Figure 10 property: a single-threaded run can
    // only get slower when HT partitions the machine.
    const std::string name = GetParam();
    const auto duration = [&](bool ht) {
        SystemConfig config;
        config.hyperThreading = ht;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.threads = 1;
        spec.lengthScale = kScale;
        sim.addProcess(spec);
        return sim.run().cycles;
    };
    EXPECT_GE(static_cast<double>(duration(true)),
              0.98 * static_cast<double>(duration(false)))
        << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkPropertyTest,
    testing::ValuesIn(benchmarkNames()),
    [](const testing::TestParamInfo<std::string>& param_info) {
        return param_info.param;
    });

// ---------------------------------------------------------------
// Thread-count sweep: total retired work scales with threads.
// ---------------------------------------------------------------

class ThreadCountTest
    : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ThreadCountTest, WorkScalesWithThreads)
{
    const std::uint32_t threads = GetParam();
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "MonteCarlo";
    spec.threads = threads;
    spec.lengthScale = 0.02;
    sim.addProcess(spec);
    const RunResult result = sim.run();
    ASSERT_TRUE(result.allComplete);
    const std::uint64_t quota = static_cast<std::uint64_t>(
        benchmarkProfile("MonteCarlo").uopsPerThread * 0.02);
    // At least the user-mode quota of every thread retired.
    EXPECT_GE(result.total(EventId::kUopsRetired),
              quota * threads);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadCountTest,
                         testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

// ---------------------------------------------------------------
// OS scheduler invariants under cross-core migration: a thread is
// never on two contexts at once, and no thread is lost or
// duplicated across quantum boundaries, epoch edges, or deadline
// cancellation points.
// ---------------------------------------------------------------

/**
 * Walk every scheduler of the chip and check thread conservation:
 * each runnable thread of each launched process occupies exactly
 * one slot (run queue or context) of exactly one scheduler, and
 * blocked/done threads occupy none.
 */
void
checkThreadConservation(MultiCoreSystem& system,
                        MultiCoreSimulation& sim)
{
    std::map<const SoftwareThread*, int> seen;
    for (CoreId core = 0; core < system.cores(); ++core) {
        Scheduler& scheduler = system.machine(core).scheduler();
        for (SoftwareThread* thread :
             scheduler.runQueueSnapshot())
            ++seen[thread];
        std::vector<const SoftwareThread*> on_context;
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            const SoftwareThread* active = scheduler.active(ctx);
            if (active == nullptr)
                continue;
            ++seen[active];
            // Never the same thread on two contexts of one core.
            for (const SoftwareThread* other : on_context)
                ASSERT_NE(active, other) << "core " << core;
            on_context.push_back(active);
        }
    }
    for (CoreId core = 0; core < system.cores(); ++core) {
        for (const auto& process :
             system.simulation(core).processes()) {
            for (const auto& thread : process->threads()) {
                const int count = seen[thread.get()];
                if (thread->state() == ThreadState::kRunnable) {
                    ASSERT_EQ(count, 1)
                        << "runnable thread " << thread->id()
                        << " present " << count << " times";
                } else {
                    ASSERT_EQ(count, 0)
                        << "non-runnable thread " << thread->id()
                        << " still scheduled";
                }
            }
        }
    }
    // Placement sanity: the driver's view stays on the chip.
    for (const CoreId core : sim.placement())
        ASSERT_LT(core, system.cores());
}

TEST(MigrationInvariants, HoldAtEveryEpochUnderEveryPolicy)
{
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn", "db"};
    for (const std::string& name : allocPolicyNames()) {
        const auto kind = allocPolicyFromName(name);
        ASSERT_TRUE(kind.has_value());
        MultiCoreConfig config;
        config.system.seed = 7;
        config.cores = 2;
        config.policy = *kind;
        config.epochCycles = 10'000;
        MultiCoreSystem system(config);
        MultiCoreSimulation sim(system);
        for (const std::string& benchmark : mix) {
            WorkloadSpec spec;
            spec.benchmark = benchmark;
            spec.lengthScale = 0.02;
            sim.addProcess(spec);
        }
        checkThreadConservation(system, sim);
        // Step the run in epoch-sized chunks so the invariants are
        // probed at every migration and quantum boundary the driver
        // can produce, not just at completion.
        MultiRunResult last;
        for (int chunk = 0; chunk < 2000; ++chunk) {
            MultiCoreSimulation::RunOptions options;
            options.maxCycles = config.epochCycles;
            last = sim.run(options);
            checkThreadConservation(system, sim);
            if (last.allComplete)
                break;
        }
        ASSERT_TRUE(last.allComplete) << name;
    }
}

// The cancellation tests' workload and deadline. An uncancelled run
// of either chip takes at least three times the deadline in an
// optimised build (0.09-0.12 s on a 4-vCPU host), so the deadline
// fires mid-run, and the resume to completion stays short under
// ThreadSanitizer.
constexpr double kCancelScale = 0.1;
constexpr double kCancelDeadlineSeconds = 0.03;

TEST(MigrationInvariants, HoldAtSupervisorCancellationPoints)
{
    // Multi-core runs under a tight wall-clock deadline: the
    // deadline cancels the simulation at an arbitrary
    // cancellation-lattice edge. No matter where the run stopped,
    // the chip's schedulers must still conserve every thread.
    exec::TaskPool pool(2);
    pool.run(
        2,
        [](std::size_t i) { return "chip" + std::to_string(i); },
        [&](exec::TaskContext& ctx) {
            MultiCoreConfig config;
            config.system.seed = 11 + ctx.index;
            config.cores = 2;
            config.policy = ctx.index == 0
                                ? AllocPolicyKind::kRoundRobin
                                : AllocPolicyKind::kIpcSymbiosis;
            config.epochCycles = 10'000;
            MultiCoreSystem system(config);
            MultiCoreSimulation sim(system);
            for (const char* benchmark :
                 {"PseudoJBB", "jess", "MolDyn", "db"}) {
                WorkloadSpec spec;
                spec.benchmark = benchmark;
                spec.lengthScale = kCancelScale;
                sim.addProcess(spec);
            }
            MultiCoreSimulation::RunOptions run;
            run.cancellation = ctx.token;
            run.cancelCheckIntervalCycles = 4096;
            const MultiRunResult result = sim.run(run);
            // Whether the deadline fired mid-run or the workload
            // finished first, the invariants must hold here.
            checkThreadConservation(system, sim);
            if (result.cancelled) {
                ASSERT_FALSE(result.allComplete);
                // A cancelled chip is still consistent: resume
                // without a token and the workload completes.
                const MultiRunResult resumed = sim.run();
                ASSERT_TRUE(resumed.allComplete);
                checkThreadConservation(system, sim);
            }
        },
        kCancelDeadlineSeconds);
}

TEST(MigrationInvariants,
     HoldAtSupervisorCancellationPointsUnderParallelStepping)
{
    // The parallel-stepping variant of the cancellation test: the
    // deadline passes while worker threads are mid-quantum. Each
    // slice stops at its own check edge, the quantum's barrier
    // still merges every logged shared-L2 access, and the chip
    // stops there, so it must come to rest consistent — and a chip
    // cancelled under 4 step threads must resume cleanly under the
    // serial reference engine (thread count is a wall-clock knob,
    // never state).
    exec::TaskPool pool(2);
    pool.run(
        2,
        [](std::size_t i) { return "chip" + std::to_string(i); },
        [&](exec::TaskContext& ctx) {
            MultiCoreConfig config;
            config.system.seed = 23 + ctx.index;
            config.cores = 4;
            config.policy = ctx.index == 0
                                ? AllocPolicyKind::kRoundRobin
                                : AllocPolicyKind::kIpcSymbiosis;
            config.epochCycles = 10'000;
            MultiCoreSystem system(config);
            MultiCoreSimulation sim(system);
            for (const char* benchmark :
                 {"PseudoJBB", "jess", "MolDyn", "db"}) {
                WorkloadSpec spec;
                spec.benchmark = benchmark;
                spec.lengthScale = kCancelScale;
                sim.addProcess(spec);
            }
            MultiCoreSimulation::RunOptions run;
            run.cancellation = ctx.token;
            run.cancelCheckIntervalCycles = 4096;
            run.stepThreads = 4;
            const MultiRunResult result = sim.run(run);
            checkThreadConservation(system, sim);
            if (result.cancelled) {
                ASSERT_FALSE(result.allComplete);
                MultiCoreSimulation::RunOptions resume;
                resume.stepThreads = 1;
                const MultiRunResult resumed = sim.run(resume);
                ASSERT_TRUE(resumed.allComplete);
                checkThreadConservation(system, sim);
            }
        },
        kCancelDeadlineSeconds);
}

// ---------------------------------------------------------------
// Sweep checkpoint entries are invariant to the stepping engine's
// worker count: a manifest recorded under --step-threads 4 resumes
// a --step-threads 1 sweep (and vice versa) bit-identically.
// ---------------------------------------------------------------

TEST(MigrationInvariants, SweepResumeAcrossStepThreadCounts)
{
    const std::string path =
        testing::TempDir() + "jsmt_property_stepthreads.json";
    std::remove(path.c_str());
    const std::string topology =
        exec::ResultStore::describeTopology(
            2, allocPolicyName(AllocPolicyKind::kRoundRobin));

    const auto run_chip = [](std::uint32_t step_threads) {
        MultiCoreConfig config;
        config.system.seed = 42;
        config.cores = 2;
        config.policy = AllocPolicyKind::kRoundRobin;
        config.epochCycles = 20'000;
        MultiCoreSystem system(config);
        MultiCoreSimulation sim(system);
        for (const char* benchmark : {"PseudoJBB", "jess"}) {
            WorkloadSpec spec;
            spec.benchmark = benchmark;
            spec.lengthScale = 0.02;
            sim.addProcess(spec);
        }
        MultiCoreSimulation::RunOptions run;
        run.stepThreads = step_threads;
        return sim.run(run);
    };

    // Record the point under parallel stepping.
    const MultiRunResult parallel = run_chip(4);
    ASSERT_TRUE(parallel.allComplete);
    {
        exec::ResultStore checkpoint(path, 1, topology);
        ASSERT_FALSE(checkpoint.topologyMismatch());
        checkpoint.record("point0", parallel.toRunResult());
    }

    // A later serial sweep resumes the entry (topology matches:
    // the step-threads field is not identity) and the replayed
    // result is bit-identical to simulating the point serially.
    exec::ResultStore resumed(path, 1, topology);
    ASSERT_FALSE(resumed.topologyMismatch());
    ASSERT_EQ(resumed.resumed(), 1u);
    RunResult replayed;
    ASSERT_TRUE(resumed.lookup("point0", &replayed));
    expectIdentical(replayed, run_chip(1).toRunResult());
    std::remove(path.c_str());
}

} // namespace
} // namespace jsmt
