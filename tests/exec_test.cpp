/**
 * @file
 * Tests for the parallel experiment engine: TaskPool scheduling and
 * exception semantics, the shared-L2 quantum view the parallel
 * stepping engine relies on, and the result store (memo, spill and
 * manifest roles, and its fault handling). That a result is
 * bit-identical serially, on pool workers and replayed from the
 * store is the equivalence harness's (equivalence_test.cpp).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/fileio.h"
#include "core/simulation.h"
#include "exec/result_store.h"
#include "exec/task_pool.h"
#include "expect_identical.h"
#include "jvm/benchmarks.h"
#include "mem/memory_system.h"
#include "os/allocation/multi_core.h"

namespace jsmt {
namespace {

using exec::ResultStore;
using exec::TaskPool;

TEST(TaskPool, RunsEveryIndexExactlyOnce)
{
    TaskPool pool(4);
    std::vector<int> touched(997, 0);
    pool.parallelFor(touched.size(), [&](std::size_t i) {
        ++touched[i]; // Each index is claimed by exactly one worker.
    });
    for (std::size_t i = 0; i < touched.size(); ++i)
        ASSERT_EQ(touched[i], 1) << "index " << i;
}

TEST(TaskPool, SingleJobRunsInline)
{
    TaskPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    const auto caller = std::this_thread::get_id();
    bool inline_everywhere = true;
    pool.parallelFor(16, [&](std::size_t) {
        if (std::this_thread::get_id() != caller)
            inline_everywhere = false;
    });
    EXPECT_TRUE(inline_everywhere);
}

TEST(TaskPool, MapCollectsByIndex)
{
    TaskPool pool(3);
    const std::vector<int> squares =
        pool.map<int>(50, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(squares.size(), 50u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(TaskPool, FirstExceptionPropagatesAndPoolSurvives)
{
    TaskPool pool(2);
    EXPECT_THROW(pool.parallelFor(32,
                                  [](std::size_t i) {
                                      if (i == 7) {
                                          throw std::runtime_error(
                                              "boom");
                                      }
                                  }),
                 std::runtime_error);
    // The pool is reusable after a failed batch.
    std::vector<int> touched(8, 0);
    pool.parallelFor(touched.size(),
                     [&](std::size_t i) { ++touched[i]; });
    for (const int count : touched)
        EXPECT_EQ(count, 1);
}

TEST(TaskPool, JobResolutionHonorsEnvironment)
{
    EXPECT_EQ(TaskPool::resolveJobs(5), 5u);
    setenv("JSMT_JOBS", "3", 1);
    EXPECT_EQ(TaskPool::defaultJobs(), 3u);
    EXPECT_EQ(TaskPool::resolveJobs(0), 3u);
    unsetenv("JSMT_JOBS");
    EXPECT_GE(TaskPool::resolveJobs(0), 1u);
}

// ---------------------------------------------------------------
// The shared-L2 quantum view: between barriers each chip slice reads
// the shared L2 as it stood at the quantum start plus its own
// accesses; the barrier applies the logs in (cycle, coreId) order.
// ---------------------------------------------------------------

/** A chip whose one-line L1d sends every line switch to the L2. */
MultiCoreConfig
oneLineL1Chip(std::uint32_t cores)
{
    MultiCoreConfig config;
    config.cores = cores;
    config.system.mem.l1dBytes = 64;
    config.system.mem.l1dWays = 1;
    return config;
}

constexpr Asid kAsid = 1;
constexpr Addr kLineA = 0x10000;
constexpr Addr kLineB = kLineA + 64;

/** @return whether a load of @p vaddr hit in the L2 (it misses L1). */
bool
loadHitsL2(MemorySystem& mem, Addr vaddr)
{
    const DataAccessResult result =
        mem.dataAccess(kAsid, vaddr, 0, false, 0);
    EXPECT_FALSE(result.l1Hit);
    return result.l2Hit;
}

TEST(L2Quantum, OwnFillHitsLaterInTheSameQuantum)
{
    MultiCoreSystem chip(oneLineL1Chip(2));
    MemorySystem& mem = chip.machine(0).mem();
    EXPECT_FALSE(loadHitsL2(mem, kLineA));
    EXPECT_FALSE(loadHitsL2(mem, kLineB));
    EXPECT_TRUE(loadHitsL2(mem, kLineA));
    // The fill lives in the slice's overlay; the shared L2 is
    // untouched until the barrier applies the log.
    const Addr paddr = mem.translate(kAsid, kLineA);
    EXPECT_FALSE(chip.sharedL2()->lookup(kAsid, paddr, 0));
    chip.l2Barrier();
    EXPECT_TRUE(chip.sharedL2()->lookup(kAsid, paddr, 0));
    EXPECT_TRUE(mem.l2Log().empty());
}

TEST(L2Quantum, PeerFillIsInvisibleUntilTheBarrier)
{
    MultiCoreSystem chip(oneLineL1Chip(2));
    MemorySystem& core0 = chip.machine(0).mem();
    MemorySystem& core1 = chip.machine(1).mem();
    EXPECT_FALSE(loadHitsL2(core0, kLineA));
    EXPECT_FALSE(loadHitsL2(core0, kLineB));
    EXPECT_FALSE(loadHitsL2(core1, kLineA));
    chip.l2Barrier();
    // Line B was filled by core 0 alone.
    EXPECT_TRUE(loadHitsL2(core1, kLineB));
}

TEST(L2Quantum, BarrierMergesInCycleThenCoreOrder)
{
    // One set of two ways: the LRU victim of the third fill names
    // the order the barrier applied the logs in.
    MultiCoreConfig config;
    config.cores = 2;
    config.system.mem.l2Bytes = 128;
    config.system.mem.l2Ways = 2;
    MultiCoreSystem chip(config);
    std::vector<L2LogEntry>& log0 = chip.machine(0).mem().l2Log();
    std::vector<L2LogEntry>& log1 = chip.machine(1).mem().l2Log();
    const Cache& shared = *chip.sharedL2();
    const auto line = [](Addr n) { return n * 64; };
    const auto resident = [&](Addr n) {
        return shared.lookup(kAsid, line(n), 0);
    };

    // Cycle order: B (3, core 1), A (5, core 0), C (5, core 1), so
    // C evicts B. Core order would apply A, B, C and evict A.
    log0 = {{5, line(0), kAsid}};
    log1 = {{3, line(1), kAsid}, {5, line(2), kAsid}};
    chip.l2Barrier();
    EXPECT_TRUE(resident(0));
    EXPECT_FALSE(resident(1));
    EXPECT_TRUE(resident(2));

    // A cycle tie goes to the lower core: D (9, core 0) evicts A,
    // E (9, core 1) evicts C, F (10, core 0) evicts D. The reverse
    // tie order would evict E instead.
    log0 = {{9, line(3), kAsid}, {10, line(5), kAsid}};
    log1 = {{9, line(4), kAsid}};
    chip.l2Barrier();
    EXPECT_FALSE(resident(3));
    EXPECT_TRUE(resident(4));
    EXPECT_TRUE(resident(5));
}

TEST(RunCache, MissComputesAndHitReplays)
{
    ResultStore cache;
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        RunResult result;
        result.cycles = 42;
        result.allComplete = true;
        return result;
    };
    const RunResult first = cache.getOrCompute("k", compute);
    const RunResult second = cache.getOrCompute("k", compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.cycles, 42u);
    EXPECT_EQ(second.cycles, 42u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(RunCache, SpillRoundTripPreservesEverything)
{
    RunResult result;
    result.cycles = 123456;
    result.allComplete = true;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            result.events[ctx][e] =
                1000 * (ctx + 1) + static_cast<std::uint64_t>(e);
        }
    }
    ProcessResult pr;
    pr.pid = 7;
    pr.benchmark = "compress";
    pr.complete = true;
    pr.launchCycle = 10;
    pr.completionCycle = 110;
    pr.durationCycles = 100;
    pr.gcRuns = 3;
    pr.allocatedBytes = 65536;
    result.processes.push_back(pr);

    const std::string path =
        testing::TempDir() + "jsmt_exec_test_spill.json";
    {
        ResultStore cache;
        cache.insert("spill-key", result);
        ASSERT_TRUE(cache.save(path));
    }
    ResultStore reloaded;
    ASSERT_TRUE(reloaded.load(path));
    EXPECT_EQ(reloaded.size(), 1u);
    RunResult back;
    ASSERT_TRUE(reloaded.lookup("spill-key", &back));
    expectIdentical(result, back);
    EXPECT_EQ(back.processes[0].pid, 7u);
    EXPECT_EQ(back.processes[0].launchCycle, 10u);
    EXPECT_EQ(back.processes[0].completionCycle, 110u);
    std::remove(path.c_str());
}

// The store's two roles: the JSMT_RUN_CACHE memo spill (written at
// exit) and the --resume manifest (flushed on every insert,
// topology-stamped). Every fault below runs in both, through the
// same helpers: a damaged file warns and starts cold as a whole — no
// exception, no partial entries — and the store keeps working; a
// crash mid-write leaves the previous file loadable.
constexpr bool kMemoSpill = false;
constexpr bool kResumeManifest = true;

RunResult
storedResult()
{
    RunResult result;
    result.cycles = 77;
    result.allComplete = true;
    return result;
}

// A per-test file, so tests run in parallel do not share one.
std::string
storeFaultPath()
{
    return testing::TempDir() + "jsmt_exec_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".json";
}

std::unique_ptr<ResultStore>
openStore(bool manifest)
{
    return std::make_unique<ResultStore>(
        storeFaultPath(), manifest ? 1 : 0,
        manifest ? ResultStore::describeTopology(1, "static-pin") : "");
}

// A well-formed two-entry store file ("a" and "b").
std::string
goodStoreText()
{
    const std::string path = storeFaultPath();
    ResultStore store;
    store.insert("a", storedResult());
    store.insert("b", storedResult());
    EXPECT_TRUE(store.save(path));
    std::string text;
    EXPECT_TRUE(readFile(path, &text));
    std::remove(path.c_str());
    return text;
}

void
expectStartsCold(bool manifest)
{
    const std::uint64_t rejects = ResultStore::totalLoadRejects();
    const auto store = openStore(manifest);
    EXPECT_EQ(ResultStore::totalLoadRejects(), rejects + 1);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_EQ(store->resumed(), 0u);
    EXPECT_FALSE(store->topologyMismatch());
    EXPECT_FALSE(store->lookup("a", nullptr));
    // The cold store keeps working and rewrites the file.
    store->insert("k", storedResult());
    EXPECT_TRUE(store->flush());
    EXPECT_EQ(openStore(manifest)->resumed(), 1u);
}

using DamagedFiles = std::vector<std::pair<const char*, std::string>>;

void
expectDamagedFilesStartColdInBothRoles(const DamagedFiles& damaged)
{
    const std::string path = storeFaultPath();
    for (const bool manifest : {kMemoSpill, kResumeManifest}) {
        SCOPED_TRACE(manifest ? "resume manifest" : "memo spill");
        for (const auto& [fault, text] : damaged) {
            SCOPED_TRACE(fault);
            std::ofstream(path, std::ios::trunc | std::ios::binary)
                << text;
            expectStartsCold(manifest);
        }
    }
    std::remove(path.c_str());
}

// Bitrot in a published file: the role writes through its own
// path, then bad bytes land in the middle of the document.
void
expectCorruptionStartsCold(bool manifest)
{
    const std::string path = storeFaultPath();
    std::remove(path.c_str());
    {
        const auto store = openStore(manifest);
        store->insert("a", storedResult());
        store->insert("b", storedResult());
    }
    std::string published;
    ASSERT_TRUE(readFile(path, &published));
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        file.seekp(static_cast<std::streamoff>(published.size() / 2));
        file << "\x01garbage\x02";
    }
    std::string rotten;
    ASSERT_TRUE(readFile(path, &rotten));
    EXPECT_NE(rotten, published);
    expectStartsCold(manifest);
    std::remove(path.c_str());
}

// A write that fails: the first write is clean, then a directory
// on the .tmp path makes the second one fail for real. The previous
// file still loads, fully intact; the failed entry stays pending.
// Once the obstruction is gone — replaced by the truncated .tmp a
// crash mid-write leaves behind — the store's destructor (the
// third write) lands both entries.
void
expectCrashMidWriteKeepsPriorFile(bool manifest)
{
    const std::string path = storeFaultPath();
    const std::string tmp = atomicTempPath(path);
    std::remove(path.c_str());
    std::filesystem::remove_all(tmp);
    const std::uint64_t saves = ResultStore::totalSaves();
    const std::uint64_t failures = ResultStore::totalSaveFailures();
    {
        const auto store = openStore(manifest);
        // The manifest writes on every insert, the memo spill on
        // flush().
        store->insert("a", storedResult());
        if (!manifest) {
            EXPECT_TRUE(store->flush());
        }
        ASSERT_TRUE(std::filesystem::create_directory(tmp));
        store->insert("b", storedResult());
        if (!manifest) {
            EXPECT_FALSE(store->flush());
        }
        EXPECT_EQ(ResultStore::totalSaves(), saves + 1);
        EXPECT_EQ(ResultStore::totalSaveFailures(), failures + 1);
        EXPECT_TRUE(std::filesystem::exists(tmp));

        const auto observer = openStore(manifest);
        EXPECT_EQ(observer->resumed(), 1u);
        RunResult back;
        EXPECT_TRUE(observer->lookup("a", &back));
        EXPECT_EQ(back.cycles, 77u);
        EXPECT_FALSE(observer->lookup("b", nullptr));

        std::filesystem::remove(tmp);
        std::string published;
        ASSERT_TRUE(readFile(path, &published));
        std::ofstream(tmp, std::ios::trunc | std::ios::binary)
            << published.substr(0, published.size() / 2);
    }
    EXPECT_EQ(ResultStore::totalSaves(), saves + 2);
    EXPECT_EQ(ResultStore::totalSaveFailures(), failures + 1);
    EXPECT_FALSE(std::filesystem::exists(tmp));
    const auto retried = openStore(manifest);
    EXPECT_EQ(retried->resumed(), 2u);
    EXPECT_TRUE(retried->lookup("a", nullptr));
    EXPECT_TRUE(retried->lookup("b", nullptr));
    std::filesystem::remove_all(tmp);
    std::remove(path.c_str());
}

TEST(RunCache, MalformedSpillIsIgnored)
{
    // A legacy memo spill: a key hash per entry instead of a
    // result digest.
    std::string old_format = goodStoreText();
    for (std::size_t at;
         (at = old_format.find("\"digest\"")) != std::string::npos;)
        old_format.replace(at, old_format.find(',', at) - at,
                           "\"hash\":1");
    expectDamagedFilesStartColdInBothRoles({
        {"not json", "{\"entries\": not json at all"},
        {"array root", "[1,2,3]"},
        {"entries not an array", "{\"entries\":{}}"},
        {"no entries", "{\"version\":2}"},
        {"pre-digest spill format", old_format},
    });
}

TEST(RunCache, TruncatedSpillIsRejectedAtomically)
{
    const std::string good = goodStoreText();
    expectDamagedFilesStartColdInBothRoles({
        {"cut in the closing brackets",
         good.substr(0, good.size() - 3)},
        {"cut in the last entry", good.substr(0, good.size() - 10)},
        {"cut in half", good.substr(0, good.size() / 2)},
    });
}

TEST(RunCache, GarbageSpillDegradesToEmptyCache)
{
    expectDamagedFilesStartColdInBothRoles({
        {"empty", ""},
        {"nul bytes", std::string(4, '\0')},
        {"trailing garbage", goodStoreText() + " trailing"},
    });
}

TEST(RunCache, PartiallyValidSpillIsNotHalfLoaded)
{
    const std::string good = goodStoreText();
    std::string spliced = good;
    const std::string marker = "\"entries\":[\n";
    spliced.insert(spliced.find(marker) + marker.size(),
                   "{\"key\":\"bad\",\"digest\":\"1\","
                   "\"result\":{\"cycles\":1}},\n");
    std::string tampered = good;
    tampered.replace(tampered.find("\"cycles\":77"), 11,
                     "\"cycles\":78");
    expectDamagedFilesStartColdInBothRoles({
        {"one malformed entry", spliced},
        {"digest mismatch", tampered},
    });
}

TEST(RunCache, SpillPathOnCorruptFileStartsCold)
{
    expectCorruptionStartsCold(kMemoSpill);
}

TEST(SweepCheckpoint, CorruptManifestIsRejectedWholesale)
{
    expectCorruptionStartsCold(kResumeManifest);
}

TEST(RunCache, InjectedCrashMidSaveLeavesPriorSpillLoadable)
{
    expectCrashMidWriteKeepsPriorFile(kMemoSpill);
}

TEST(SweepCheckpoint, CrashMidFlushLeavesPreviousManifestIntact)
{
    expectCrashMidWriteKeepsPriorFile(kResumeManifest);
}

TEST(RunCache, DescribeSystemConfigCoversTheConfig)
{
    const SystemConfig base;
    SystemConfig bigger_l2 = base;
    bigger_l2.mem.l2Bytes *= 2;
    SystemConfig other_seed = base;
    other_seed.seed = 7;
    SystemConfig ht_off = base;
    ht_off.hyperThreading = false;
    SystemConfig dynamic = base;
    dynamic.core.partitionPolicy = PartitionPolicy::kDynamic;

    const std::string description =
        exec::describeSystemConfig(base);
    EXPECT_EQ(description, exec::describeSystemConfig(base));
    EXPECT_NE(description,
              exec::describeSystemConfig(bigger_l2));
    EXPECT_NE(description,
              exec::describeSystemConfig(other_seed));
    EXPECT_NE(description, exec::describeSystemConfig(ht_off));
    EXPECT_NE(description, exec::describeSystemConfig(dynamic));
}

TEST(RunCache, HashKeyIsFnv1a)
{
    // FNV-1a offset basis for the empty string; distinct elsewhere.
    EXPECT_EQ(exec::hashKey(""), 0xcbf29ce484222325ULL);
    EXPECT_NE(exec::hashKey("a"), exec::hashKey("b"));
}

// Every escaping exception is collected — not just the first — and
// reported once, sorted by batch index.
TEST(TaskPool, AllExceptionsAggregateIntoBatchError)
{
    TaskPool pool(4);
    bool caught = false;
    try {
        pool.parallelFor(32, [](std::size_t i) {
            if (i == 19 || i == 3 || i == 11)
                throw std::runtime_error("boom " +
                                         std::to_string(i));
        });
    } catch (const exec::BatchError& batch) {
        caught = true;
        const std::vector<exec::TaskFailure>& failures =
            batch.report().failures;
        ASSERT_EQ(failures.size(), 3u);
        EXPECT_EQ(failures[0].index, 3u);
        EXPECT_EQ(failures[1].index, 11u);
        EXPECT_EQ(failures[2].index, 19u);
        EXPECT_EQ(failures[0].message, "boom 3");
        EXPECT_NE(std::string(batch.what()).find("3 task(s)"),
                  std::string::npos);
        EXPECT_NE(std::string(batch.what()).find("index 3"),
                  std::string::npos);
    }
    EXPECT_TRUE(caught);
}

// A batch where every task throws must neither wedge the waiting
// caller nor poison the pool for destruction right afterwards.
TEST(TaskPool, AllTasksThrowingDoesNotDeadlock)
{
    TaskPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t) {
            throw std::runtime_error("total failure");
        });
        FAIL() << "batch should have thrown";
    } catch (const exec::BatchError& batch) {
        EXPECT_EQ(batch.report().failures.size(), 64u);
    }
    // Pool destructs immediately here; a stuck worker would hang
    // the test past its ctest timeout.
}

} // namespace
} // namespace jsmt
