/**
 * @file
 * Stress tests for the ring-buffer ROB and the zero-allocation hot
 * path. The ROB rings are fixed-capacity circular buffers sized once
 * at machine construction; these tests hammer the wrap-around logic
 * with deliberately tiny window geometries (constant wrapping, every
 * full/empty edge), check the partition-cap invariants under both
 * Hyper-Threading modes and both partition policies, verify that
 * fast-forward stays bit-identical to the cycle-by-cycle loop at
 * every geometry, and assert that the
 * steady-state cycle loop performs no heap allocation and that a
 * chip builds only the L2 state its slices use.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "expect_identical.h"
#include "jvm/benchmarks.h"
#include "os/allocation/multi_core.h"

// ---------------------------------------------------------------
// Global allocation counter. Only this test binary links it; gtest
// and simulator setup allocate freely, so assertions sample deltas
// around the region of interest instead of expecting a zero total.
//
// GCC's -Wmismatched-new-delete cannot see that operator new is
// replaced in this binary too, and flags the free() below when it
// inlines a delete against a library-visible new — a false pair
// for replaced global operators, which the standard requires to
// route to one allocator (here malloc/free).
// ---------------------------------------------------------------
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_newCalls{0};
std::atomic<std::uint64_t> g_newBytes{0};
}

void*
operator new(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    g_newBytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace jsmt {
namespace {

struct Geometry
{
    std::uint32_t rob;
    std::uint32_t ldq;
    std::uint32_t stq;
    PartitionPolicy policy;
};

SystemConfig
configFor(const Geometry& g, bool ht)
{
    SystemConfig config;
    config.hyperThreading = ht;
    config.core.robEntries = g.rob;
    config.core.loadBufEntries = g.ldq;
    config.core.storeBufEntries = g.stq;
    config.core.partitionPolicy = g.policy;
    return config;
}

RunResult
runGeometry(const Geometry& g, bool ht, bool fast_forward,
            const char* benchmark, std::uint32_t threads)
{
    Machine machine(configFor(g, ht));
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.threads = threads;
    spec.lengthScale = 0.01;
    sim.addProcess(spec);
    Simulation::RunOptions options;
    options.fastForward = fast_forward;
    return sim.run(options);
}

std::string
describe(const Geometry& g, bool ht)
{
    return "rob=" + std::to_string(g.rob) + " ldq=" +
           std::to_string(g.ldq) + " stq=" + std::to_string(g.stq) +
           " ht=" + (ht ? "1" : "0");
}

// Tiny windows force the ring to wrap every few cycles and keep the
// ROB/LDQ/STQ pinned against their caps; large ones exercise the
// uncontended path. Every geometry must complete, respect the caps
// and produce bit-identical results with fast-forward on and off,
// HT on and off.
TEST(RobRingStress, RandomizedGeometryBitIdentity)
{
    std::mt19937 rng(20050314); // Fixed seed: reproducible sweep.
    std::vector<Geometry> sweep = {
        // Hand-picked edges: minimum legal ROB, single-entry queues
        // per context, odd sizes (truncating halves), P4 default.
        {4, 2, 2, PartitionPolicy::kStatic},
        {6, 3, 3, PartitionPolicy::kStatic},
        {7, 2, 3, PartitionPolicy::kDynamic},
        {126, 48, 24, PartitionPolicy::kStatic},
    };
    std::uniform_int_distribution<std::uint32_t> rob_d(4, 160);
    std::uniform_int_distribution<std::uint32_t> q_d(2, 64);
    for (int i = 0; i < 4; ++i) {
        sweep.push_back({rob_d(rng), q_d(rng), q_d(rng),
                         (rng() & 1) != 0
                             ? PartitionPolicy::kDynamic
                             : PartitionPolicy::kStatic});
    }
    for (const Geometry& g : sweep) {
        for (const bool ht : {false, true}) {
            const RunResult ff =
                runGeometry(g, ht, true, "compress", 1);
            const RunResult plain =
                runGeometry(g, ht, false, "compress", 1);
            EXPECT_TRUE(ff.allComplete);
            expectIdentical(ff, plain, describe(g, ht));
        }
    }
}

// Multithreaded + GC workload on a tiny window: maximum scheduler
// churn (context switches replace ring contents wholesale) while the
// ring is wrapping constantly.
TEST(RobRingStress, MultithreadTinyWindowBitIdentity)
{
    const Geometry g{8, 4, 4, PartitionPolicy::kStatic};
    for (const bool ht : {false, true}) {
        const RunResult ff = runGeometry(g, ht, true, "MolDyn", 2);
        const RunResult plain =
            runGeometry(g, ht, false, "MolDyn", 2);
        EXPECT_TRUE(ff.allComplete);
        expectIdentical(ff, plain, describe(g, ht));
    }
}

// Occupancy must never exceed the partition cap on any sampled
// cycle, and the per-cycle occupancy accessors must be internally
// consistent (full implies occupancy == cap).
TEST(RobRingStress, OccupancyNeverExceedsCaps)
{
    const std::vector<Geometry> sweep = {
        {4, 2, 2, PartitionPolicy::kStatic},
        {10, 3, 2, PartitionPolicy::kDynamic},
        {126, 48, 24, PartitionPolicy::kStatic},
    };
    for (const Geometry& g : sweep) {
        for (const bool ht : {false, true}) {
            Machine machine(configFor(g, ht));
            Simulation sim(machine);
            WorkloadSpec spec;
            spec.benchmark = "jess";
            spec.threads = 1;
            spec.lengthScale = 0.01;
            sim.addProcess(spec);
            Simulation::RunOptions options;
            options.sampleIntervalCycles = 64;
            std::uint64_t samples = 0;
            // Static partition: each context is confined to its
            // half. Dynamic partition: a lone context may overflow
            // its nominal cap, but the machine totals still bound
            // the sum across contexts.
            const bool dynamic =
                ht && g.policy == PartitionPolicy::kDynamic;
            options.onSample = [&](Simulation&, Cycle) {
                const SmtCore& core = machine.core();
                std::uint32_t rob = 0, ldq = 0, stq = 0;
                for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
                    rob += core.robOccupancy(ctx);
                    ldq += core.ldqOccupancy(ctx);
                    stq += core.stqOccupancy(ctx);
                    if (!dynamic) {
                        ASSERT_LE(core.robOccupancy(ctx),
                                  core.robCap(ctx));
                        ASSERT_LE(core.ldqOccupancy(ctx),
                                  core.ldqCap(ctx));
                        ASSERT_LE(core.stqOccupancy(ctx),
                                  core.stqCap(ctx));
                    }
                }
                ASSERT_LE(rob, g.rob);
                ASSERT_LE(ldq, g.ldq);
                ASSERT_LE(stq, g.stq);
                ++samples;
            };
            const RunResult result = sim.run(options);
            EXPECT_TRUE(result.allComplete);
            EXPECT_GT(samples, 0u);
        }
    }
}

// The steady-state cycle loop — retire, fetch/alloc, memory walks,
// fast-forward accounting, PMU updates — must not touch the heap.
// The first run() segment warms every lazily-grown container (run
// queues, live-process scratch, completion lists); the second
// segment is then measured. The budget of 64 covers RunResult
// assembly at the end of run() (the per-process result vector) and
// any remaining cold growth; at ~200k measured cycles even one
// allocation per thousand cycles would blow it.
TEST(RobRingStress, SteadyStateCycleLoopDoesNotAllocate)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "PseudoJBB"; // Multithreaded, GC-heavy.
    spec.threads = 2;
    spec.lengthScale = 0.05;
    sim.addProcess(spec);

    Simulation::RunOptions warmup;
    warmup.maxCycles = 30'000;
    (void)sim.run(warmup);

    Simulation::RunOptions measured;
    measured.maxCycles = 200'000;
    const std::uint64_t before =
        g_newCalls.load(std::memory_order_relaxed);
    const RunResult result = sim.run(measured);
    const std::uint64_t delta =
        g_newCalls.load(std::memory_order_relaxed) - before;
    EXPECT_GT(result.cycles, 100'000u);
    EXPECT_LE(delta, 64u)
        << "cycle loop allocated " << delta << " times over "
        << result.cycles << " cycles";
}

// A chip slice reads the shared L2 through a per-quantum overlay of
// the sets it touched, so it must not build a private L2 of the full
// geometry: four of those would be 4 x 16,384 lines x 16 B = 1 MB.
// The whole 4-core chip (shared L2, four machines, their caches,
// TLBs and predictors) must cost less than that.
TEST(ChipConstruction, SlicesBuildNoPrivateL2)
{
    MultiCoreConfig config;
    config.cores = 4;
    const std::uint64_t slice_l2_bytes =
        config.system.mem.l2Bytes / config.system.mem.lineBytes *
        16;
    const std::uint64_t before =
        g_newBytes.load(std::memory_order_relaxed);
    {
        MultiCoreSystem chip(config);
        ASSERT_NE(chip.sharedL2(), nullptr);
    }
    const std::uint64_t bytes =
        g_newBytes.load(std::memory_order_relaxed) - before;
    EXPECT_LT(bytes, config.cores * slice_l2_bytes)
        << "a 4-core chip allocated " << bytes << " bytes";
}

} // namespace
} // namespace jsmt
