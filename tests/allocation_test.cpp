/**
 * @file
 * Tests for the core-allocation layer: policy determinism,
 * allocation counters, the migration drain at epoch edges, and the
 * pair-matrix acceptance comparison against round-robin. The
 * fast-forward, step-thread and 1-core static-pin bit-identity
 * contracts are the equivalence harness's (equivalence_test.cpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "expect_identical.h"
#include "jvm/benchmarks.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"
#include "os/allocation/pair_matrix.h"

namespace jsmt {
namespace {

/** Small but non-trivial scale: thousands of cycles per process. */
constexpr double kScale = 0.02;

MultiCoreConfig
chipConfig(std::uint32_t cores, AllocPolicyKind policy,
           Cycle epoch = 20'000)
{
    MultiCoreConfig config;
    config.system.seed = 42;
    config.cores = cores;
    config.policy = policy;
    config.epochCycles = epoch;
    return config;
}

MultiRunResult
runChip(const MultiCoreConfig& config,
        const std::vector<std::string>& benchmarks)
{
    MultiCoreSystem system(config);
    MultiCoreSimulation sim(system);
    for (const std::string& name : benchmarks) {
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.lengthScale = kScale;
        sim.addProcess(spec);
    }
    return sim.run();
}

// ---------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------

TEST(AllocationPolicy, RegistryRoundTrips)
{
    const std::vector<std::string>& names = allocPolicyNames();
    ASSERT_EQ(names.size(), 4u);
    for (const std::string& name : names) {
        const auto kind = allocPolicyFromName(name);
        ASSERT_TRUE(kind.has_value()) << name;
        EXPECT_EQ(allocPolicyName(*kind), name);
        EXPECT_EQ(makeAllocationPolicy(*kind)->name(), name);
    }
    EXPECT_FALSE(allocPolicyFromName("no-such-policy").has_value());
}

// ---------------------------------------------------------------
// Determinism: every policy, twice, bit-identical.
// ---------------------------------------------------------------

TEST(AllocationPolicy, EveryPolicyIsDeterministic)
{
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn", "db"};
    for (const std::string& name : allocPolicyNames()) {
        const auto kind = allocPolicyFromName(name);
        ASSERT_TRUE(kind.has_value());
        const MultiCoreConfig config = chipConfig(2, *kind);
        const MultiRunResult first = runChip(config, mix);
        const MultiRunResult second = runChip(config, mix);
        ASSERT_TRUE(first.allComplete) << name;
        expectIdentical(first, second);
    }
}

// ---------------------------------------------------------------
// Counters: rotation migrates, pinning never does.
// ---------------------------------------------------------------

TEST(AllocationPolicy, RoundRobinRotatesAndStaticPinDoesNot)
{
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn", "db"};
    const MultiRunResult pinned = runChip(
        chipConfig(2, AllocPolicyKind::kStaticPin), mix);
    EXPECT_EQ(pinned.migrations, 0u);
    EXPECT_EQ(pinned.steals, 0u);
    EXPECT_TRUE(pinned.migrationLog.empty());

    const MultiRunResult rotated = runChip(
        chipConfig(2, AllocPolicyKind::kRoundRobin), mix);
    ASSERT_TRUE(rotated.allComplete);
    EXPECT_GT(rotated.epochs, 1u);
    EXPECT_GT(rotated.migrations, 0u);
    EXPECT_EQ(rotated.migrationLog.size(),
              rotated.migrations + rotated.steals);
    for (const MigrationRecord& record : rotated.migrationLog) {
        EXPECT_NE(record.from, record.to);
        EXPECT_LT(record.to, 2u);
    }
}

TEST(AllocationPolicy, StealKeepsNoCoreIdle)
{
    // Three processes on two cores under a feedback policy: after
    // one finishes early the emptied core must pull work over.
    const std::vector<std::string> mix = {"PseudoJBB", "PseudoJBB",
                                          "compress"};
    const MultiRunResult result = runChip(
        chipConfig(2, AllocPolicyKind::kIpcSymbiosis), mix);
    ASSERT_TRUE(result.allComplete);
    // Every process got a core in [0, 2).
    for (const MultiProcessRecord& record : result.processes)
        EXPECT_LT(record.finalCore, 2u);
}

// ---------------------------------------------------------------
// Migration drain: at an epoch edge the old core retires the moving
// process's in-flight µops, so no pipeline holds µops of a thread it
// does not host.
// ---------------------------------------------------------------

/**
 * A thread that fetches a fixed script of µops, one per bundle, in
 * phases: it blocks at the end of each phase until woken. Every
 * retirement is logged through the retire hook.
 */
class ScriptedThread : public SoftwareThread
{
  public:
    ScriptedThread(ThreadId id, std::vector<std::vector<Uop>> phases)
        : SoftwareThread(id, 1), _phases(std::move(phases))
    {
        _retireHook = true;
    }

    bool
    nextBundle(Cycle, FetchBundle& bundle) override
    {
        if (_phase == _phases.size() ||
            _next == _phases[_phase].size()) {
            ++_phase;
            _next = 0;
            setState(ThreadState::kBlocked);
            return false;
        }
        // Every bundle is the same trace line, so after the first
        // fetch the front end hits the trace cache.
        bundle = FetchBundle{};
        bundle.asid = asid();
        bundle.lineVaddr = 0x40'0000;
        bundle.traceAddr = 0x1000;
        bundle.uops[0] = _phases[_phase][_next++];
        bundle.count = 1;
        noteGenerated(1);
        return true;
    }

    /** (type, cycle) of every retired µop, in retirement order. */
    std::vector<std::pair<UopType, Cycle>> retired;

  protected:
    void
    onRetireHook(const Uop& uop, Cycle now) override
    {
        retired.emplace_back(uop.type, now);
    }

  private:
    std::vector<std::vector<Uop>> _phases;
    std::size_t _phase = 0;
    std::size_t _next = 0;
};

Uop
scriptUop(UopType type, Addr data = 0, std::uint8_t dep_dist = 0)
{
    Uop uop;
    uop.type = type;
    uop.dataVaddr = data;
    uop.depDist = dep_dist;
    uop.pc = 0x1000;
    return uop;
}

TEST(MigrationDrain, RetiresOnlyTheMigratingThreadAtTheEdge)
{
    // One context, so both threads share its ROB: A allocates a
    // cold (L2-missing) load and three more µops and blocks, B
    // allocates a cold load, a store and an ALU op and blocks, then
    // A comes back for two more — a ROB of A A A A B B B A A with
    // A's load at the head, still in flight.
    SystemConfig config;
    config.hyperThreading = false;
    Machine machine(config);
    Scheduler& scheduler = machine.scheduler();
    SmtCore& core = machine.core();
    ScriptedThread a(1, {{scriptUop(UopType::kLoad, 0x10'0000),
                          scriptUop(UopType::kAlu),
                          scriptUop(UopType::kStore, 0x20'0000),
                          scriptUop(UopType::kAlu)},
                         {scriptUop(UopType::kAlu),
                          scriptUop(UopType::kBranch)},
                         // Depends on the load, six µops back.
                         {scriptUop(UopType::kAlu, 0, 6)}});
    ScriptedThread b(2, {{scriptUop(UopType::kLoad, 0x30'0000),
                          scriptUop(UopType::kStore, 0x40'0000),
                          scriptUop(UopType::kAlu)}});
    scheduler.addThread(&a);
    scheduler.addThread(&b);

    Cycle now = 0;
    const auto step_until = [&](const auto& done) {
        for (int i = 0; i < 20'000 && !done(); ++i, ++now) {
            scheduler.tick(now);
            core.cycle(now);
        }
        ASSERT_TRUE(done()) << "script stalled at cycle " << now;
    };
    step_until([&] { return b.generatedUops() == 3; });
    scheduler.wake(&a);
    step_until([&] {
        return a.generatedUops() == 6 &&
               a.state() == ThreadState::kBlocked;
    });

    // The load heads the ROB and is still in flight, so nothing has
    // retired; B's load was issued later and completes later.
    const Cycle load_done = a.producerCompletion(1, 1);
    const Cycle b_load_done = b.producerCompletion(1, 1);
    ASSERT_EQ(a.retiredUops(), 0u);
    ASSERT_EQ(b.retiredUops(), 0u);
    ASSERT_GT(load_done, now + config.mem.l2HitCycles);
    ASSERT_GT(b_load_done, load_done);
    ASSERT_EQ(core.robOccupancy(0), 9u);
    ASSERT_EQ(core.ldqOccupancy(0), 2u);
    ASSERT_EQ(core.stqOccupancy(0), 2u);
    const Pmu& pmu = machine.pmu();
    const std::uint64_t uops_before =
        pmu.raw(EventId::kUopsRetired, 0);
    const std::uint64_t instr_before =
        pmu.raw(EventId::kInstrRetired, 0);
    const std::uint64_t branches_before =
        pmu.raw(EventId::kBranchRetired, 0);

    const Cycle edge = now;
    EXPECT_EQ(core.drainThread(&a, edge), 6u);
    scheduler.removeThread(&a);

    // A is gone from the pipeline, retired early at the edge in
    // program order and counted on this core.
    EXPECT_EQ(core.drainThread(&a, edge), 0u);
    EXPECT_EQ(a.retiredUops(), 6u);
    const std::vector<UopType> a_order = {
        UopType::kLoad, UopType::kAlu, UopType::kStore,
        UopType::kAlu,  UopType::kAlu, UopType::kBranch};
    ASSERT_EQ(a.retired.size(), a_order.size());
    for (std::size_t i = 0; i < a_order.size(); ++i) {
        EXPECT_EQ(a.retired[i].first, a_order[i]) << i;
        EXPECT_EQ(a.retired[i].second, edge) << i;
    }
    EXPECT_EQ(pmu.raw(EventId::kUopsRetired, 0), uops_before + 6);
    EXPECT_EQ(pmu.raw(EventId::kInstrRetired, 0), instr_before + 6);
    EXPECT_EQ(pmu.raw(EventId::kBranchRetired, 0),
              branches_before + 1);

    // B keeps its entries, its buffer slots and the ROB head: with
    // no thread on the context the next event is B's load.
    EXPECT_EQ(core.robOccupancy(0), 3u);
    EXPECT_EQ(core.ldqOccupancy(0), 1u);
    EXPECT_EQ(core.stqOccupancy(0), 1u);
    EXPECT_EQ(b.retiredUops(), 0u);
    EXPECT_EQ(core.stallBound(edge), b_load_done);

    // A's dependence ring kept the load's real completion: the
    // dependent it allocates next (here, back on the same core)
    // cannot retire before the load would have completed.
    EXPECT_EQ(a.producerCompletion(7, 7), load_done);
    scheduler.addThread(&a);
    scheduler.wake(&a);
    step_until([&] { return a.generatedUops() == 7; });
    ASSERT_LT(now, load_done);
    step_until([&] {
        return a.retiredUops() == 7 && b.retiredUops() == 3;
    });
    ASSERT_EQ(a.retired.size(), 7u);
    EXPECT_GT(a.retired[6].second, load_done);

    // B retires in its own program order once its load completes.
    const std::vector<UopType> b_order = {
        UopType::kLoad, UopType::kStore, UopType::kAlu};
    ASSERT_EQ(b.retired.size(), b_order.size());
    for (std::size_t i = 0; i < b_order.size(); ++i) {
        EXPECT_EQ(b.retired[i].first, b_order[i]) << i;
        EXPECT_GE(b.retired[i].second, b_load_done) << i;
    }
    EXPECT_EQ(core.ldqOccupancy(0), 0u);
    EXPECT_EQ(core.stqOccupancy(0), 0u);
}

TEST(MigrationDrain, NoCoreHoldsUopsOfAThreadItDoesNotHost)
{
    // Round-robin moves every process every epoch. After each edge,
    // draining any thread out of a core that does not host it must
    // find nothing to drain.
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn",    "db",
                                          "javac",     "compress"};
    const MultiCoreConfig config =
        chipConfig(4, AllocPolicyKind::kRoundRobin, 10'000);
    MultiCoreSystem system(config);
    MultiCoreSimulation sim(system);
    std::vector<JavaProcess*> processes;
    for (const std::string& name : mix) {
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.lengthScale = kScale;
        processes.push_back(&sim.addProcess(spec));
    }
    MultiRunResult last;
    for (int epoch = 0; epoch < 2000 && !last.allComplete; ++epoch) {
        MultiCoreSimulation::RunOptions options;
        options.maxCycles = config.epochCycles;
        last = sim.run(options);
        const std::vector<CoreId> placement = sim.placement();
        for (std::size_t p = 0; p < processes.size(); ++p) {
            for (CoreId core = 0; core < config.cores; ++core) {
                if (core == placement[p])
                    continue;
                for (const auto& thread : processes[p]->threads()) {
                    ASSERT_EQ(system.machine(core).core().drainThread(
                                  thread.get(), sim.now()),
                              0u)
                        << "epoch " << epoch << " core " << core
                        << " holds µops of " << mix[p];
                }
            }
        }
    }
    ASSERT_TRUE(last.allComplete);
    EXPECT_GT(sim.migrations(), 0u);
}

// ---------------------------------------------------------------
// Acceptance: feedback placement beats blind rotation on the
// canonical ten pairings.
// ---------------------------------------------------------------

TEST(PairMatrix, CanonicalPairingListIsTenIdenticalPairs)
{
    const auto identical = pairMatrixPairings(true);
    ASSERT_EQ(identical.size(), benchmarkNames().size());
    ASSERT_EQ(identical.size(), 10u);
    for (const auto& [a, b] : identical)
        EXPECT_EQ(a, b);
    const auto full = pairMatrixPairings(false);
    EXPECT_EQ(full.size(), 55u);
}

TEST(PairMatrix, SymbiosisBeatsRoundRobinOnMostPairings)
{
    SystemConfig config;
    config.seed = 42;
    PairMatrixOptions options;
    options.cores = 2;
    options.lengthScale = kScale;
    options.epochCycles = 20'000;
    options.identicalOnly = true;

    options.policy = AllocPolicyKind::kRoundRobin;
    const std::vector<PairMatrixCell> baseline =
        runPairMatrix(config, options);
    options.policy = AllocPolicyKind::kIpcSymbiosis;
    const std::vector<PairMatrixCell> symbiosis =
        runPairMatrix(config, options);

    ASSERT_EQ(baseline.size(), 10u);
    ASSERT_EQ(symbiosis.size(), 10u);
    int wins = 0;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        ASSERT_TRUE(baseline[i].result.allComplete)
            << baseline[i].a;
        ASSERT_TRUE(symbiosis[i].result.allComplete)
            << symbiosis[i].a;
        if (symbiosis[i].uopThroughput > baseline[i].uopThroughput)
            ++wins;
    }
    // The issue's acceptance bar: feedback placement must win the
    // aggregate-throughput comparison on at least 6 of the 10
    // canonical pairings.
    EXPECT_GE(wins, 6) << "symbiosis won only " << wins
                       << " of 10 pairings";
}

TEST(PairMatrix, CellsIdenticalAcrossJobsAndStepThreads)
{
    // One job steps each cell on 2 workers; four jobs step each
    // cell serially. Every cell must come out the same.
    SystemConfig config;
    config.seed = 42;
    PairMatrixOptions options;
    options.cores = 2;
    options.policy = AllocPolicyKind::kRoundRobin;
    options.lengthScale = kScale;
    options.epochCycles = 20'000;
    options.identicalOnly = true;
    options.stepThreads = 4;

    options.jobs = 1;
    const std::vector<PairMatrixCell> parallel_steps =
        runPairMatrix(config, options);
    options.jobs = 4;
    const std::vector<PairMatrixCell> serial_steps =
        runPairMatrix(config, options);

    ASSERT_EQ(parallel_steps.size(), 10u);
    ASSERT_EQ(serial_steps.size(), 10u);
    for (std::size_t i = 0; i < serial_steps.size(); ++i) {
        EXPECT_EQ(parallel_steps[i].a, serial_steps[i].a);
        EXPECT_EQ(parallel_steps[i].b, serial_steps[i].b);
        EXPECT_TRUE(serial_steps[i].result.allComplete);
        expectIdentical(parallel_steps[i].result,
                        serial_steps[i].result, serial_steps[i].a);
    }
}

} // namespace
} // namespace jsmt
