/**
 * @file
 * Golden-run regression suite.
 *
 * Every registered benchmark is simulated solo at a small scale in
 * both machine modes (HT off / HT on) and its key RunResult event
 * totals are diffed EXACTLY against committed baselines in
 * tests/golden/<benchmark>.json. The simulator is deterministic, so
 * any drift — a single event count changing on a single benchmark —
 * fails the suite and must be either fixed or explicitly accepted by
 * regenerating the baselines.
 *
 * Regeneration (after an intentional model change):
 *
 *     cmake --build build --target update-golden
 *
 * (equivalently: JSMT_UPDATE_GOLDEN=1 ./build/tests/golden_test)
 * then commit the changed files under tests/golden/.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/simulation.h"
#include "jvm/benchmarks.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"

namespace jsmt {
namespace {

/** Scale/seed of the golden runs: small but non-trivial. */
constexpr double kGoldenScale = 0.02;
constexpr std::uint64_t kGoldenSeed = 42;

/** Event totals pinned by the baselines (summed over contexts). */
const std::vector<const char*>&
goldenEvents()
{
    static const std::vector<const char*> kNames = {
        "cycles",          "instr_retired",
        "uops_retired",    "trace_cache_miss",
        "l1d_miss",        "l2_miss",
        "itlb_miss",       "dtlb_miss",
        "btb_access",      "btb_miss",
        "branch_mispredict", "context_switches",
    };
    return kNames;
}

/** Directory holding the committed baselines. */
std::string
goldenDir()
{
    if (const char* env = std::getenv("JSMT_GOLDEN_DIR"))
        return env;
    return JSMT_GOLDEN_DIR;
}

/** One golden run: fresh machine, solo benchmark, default threads. */
RunResult
goldenRun(const std::string& benchmark, bool hyper_threading)
{
    SystemConfig config;
    config.hyperThreading = hyper_threading;
    config.seed = kGoldenSeed;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.lengthScale = kGoldenScale;
    sim.addProcess(spec);
    const RunResult result = sim.run();
    EXPECT_TRUE(result.allComplete) << benchmark;
    return result;
}

using EventTotals = std::vector<std::pair<std::string,
                                          std::uint64_t>>;

EventTotals
totalsOf(const RunResult& result)
{
    EventTotals totals;
    for (const char* name : goldenEvents()) {
        const auto id = eventByName(name);
        EXPECT_TRUE(id.has_value()) << name;
        totals.emplace_back(name, result.total(*id));
    }
    return totals;
}

void
appendMode(std::string& out, const char* mode,
           const EventTotals& totals)
{
    out += "  \"";
    out += mode;
    out += "\": {\n";
    for (std::size_t i = 0; i < totals.size(); ++i) {
        out += "    \"" + totals[i].first +
               "\": " + std::to_string(totals[i].second);
        out += i + 1 < totals.size() ? ",\n" : "\n";
    }
    out += "  }";
}

std::string
goldenDocument(const std::string& benchmark,
               const EventTotals& ht_off, const EventTotals& ht_on)
{
    std::string out = "{\n";
    out += "  \"version\": 1,\n";
    out += "  \"benchmark\": \"" + benchmark + "\",\n";
    out += "  \"scale\": 0.02,\n";
    out += "  \"seed\": " + std::to_string(kGoldenSeed) + ",\n";
    appendMode(out, "ht_off", ht_off);
    out += ",\n";
    appendMode(out, "ht_on", ht_on);
    out += "\n}\n";
    return out;
}

void
expectModeMatches(const json::Value& root, const char* mode,
                  const EventTotals& actual)
{
    const json::Value* node = root.field(mode);
    ASSERT_NE(node, nullptr) << "baseline missing mode " << mode;
    ASSERT_TRUE(node->isObject());
    // Every pinned event must be present and exactly equal; a
    // baseline carrying unknown events is stale.
    EXPECT_EQ(node->fields.size(), actual.size())
        << "baseline event set drifted in mode " << mode;
    for (const auto& [name, value] : actual) {
        const json::Value* entry = node->field(name);
        ASSERT_NE(entry, nullptr)
            << "baseline missing event " << name << " in " << mode;
        EXPECT_EQ(json::asNumber(entry), value)
            << "event " << name << " drifted in mode " << mode;
    }
}

class GoldenTest : public testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTest, EventTotalsMatchBaseline)
{
    const std::string benchmark = GetParam();
    const std::string path = goldenDir() + "/" + benchmark + ".json";

    const EventTotals ht_off = totalsOf(goldenRun(benchmark, false));
    const EventTotals ht_on = totalsOf(goldenRun(benchmark, true));

    if (std::getenv("JSMT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << goldenDocument(benchmark, ht_off, ht_on);
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing baseline " << path
                    << " (regenerate with the update-golden "
                       "target)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    json::Value root;
    ASSERT_TRUE(json::parse(buffer.str(), &root))
        << "baseline is not valid JSON: " << path;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(json::asNumber(root.field("version")), 1u);
    EXPECT_EQ(json::asString(root.field("benchmark")), benchmark);
    EXPECT_EQ(json::asNumber(root.field("seed")), kGoldenSeed);

    expectModeMatches(root, "ht_off", ht_off);
    expectModeMatches(root, "ht_on", ht_on);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GoldenTest,
    testing::ValuesIn(benchmarkNames()),
    [](const testing::TestParamInfo<std::string>& param) {
        return param.param;
    });

// ---------------------------------------------------------------
// Two-core chip baselines.
//
// Each benchmark is run as two copies co-scheduled on a 2-core
// chip (shared L2) under the static-pin, round-robin and
// ipc-symbiosis allocation policies, and the chip-wide event totals plus the
// allocation counters are pinned in
// tests/golden/<benchmark>.cores2.json. This freezes not just the
// per-core microarchitecture but the whole placement/migration
// machinery: a policy ordering change, an epoch accounting slip or
// a shared-L2 drift all land here as an exact diff.
// ---------------------------------------------------------------

/** Allocation epoch of the 2-core golden runs (several per run). */
constexpr Cycle kGoldenEpoch = 20'000;

/** One 2-core golden run: two copies of @p benchmark, one policy. */
MultiRunResult
goldenMultiRun(const std::string& benchmark, AllocPolicyKind policy)
{
    MultiCoreConfig config;
    config.system.seed = kGoldenSeed;
    config.cores = 2;
    config.policy = policy;
    config.epochCycles = kGoldenEpoch;
    MultiCoreSystem system(config);
    MultiCoreSimulation sim(system);
    for (int copy = 0; copy < 2; ++copy) {
        WorkloadSpec spec;
        spec.benchmark = benchmark;
        spec.lengthScale = kGoldenScale;
        sim.addProcess(spec);
    }
    const MultiRunResult result = sim.run();
    EXPECT_TRUE(result.allComplete)
        << benchmark << " under " << allocPolicyName(policy);
    return result;
}

/** Chip-wide event totals plus the allocation counters. */
EventTotals
multiTotalsOf(const MultiRunResult& result)
{
    EventTotals totals = totalsOf(result.toRunResult());
    totals.emplace_back("alloc_epochs", result.epochs);
    totals.emplace_back("alloc_migrations", result.migrations);
    totals.emplace_back("alloc_steals", result.steals);
    return totals;
}

std::string
goldenMultiDocument(const std::string& benchmark,
                    const EventTotals& static_pin,
                    const EventTotals& round_robin,
                    const EventTotals& symbiosis)
{
    std::string out = "{\n";
    out += "  \"version\": 1,\n";
    out += "  \"benchmark\": \"" + benchmark + "\",\n";
    out += "  \"cores\": 2,\n";
    out += "  \"scale\": 0.02,\n";
    out += "  \"seed\": " + std::to_string(kGoldenSeed) + ",\n";
    appendMode(out, "static_pin", static_pin);
    out += ",\n";
    appendMode(out, "round_robin", round_robin);
    out += ",\n";
    appendMode(out, "ipc_symbiosis", symbiosis);
    out += "\n}\n";
    return out;
}

class GoldenMultiTest : public testing::TestWithParam<std::string>
{
};

TEST_P(GoldenMultiTest, TwoCoreEventTotalsMatchBaseline)
{
    const std::string benchmark = GetParam();
    const std::string path =
        goldenDir() + "/" + benchmark + ".cores2.json";

    const EventTotals static_pin = multiTotalsOf(
        goldenMultiRun(benchmark, AllocPolicyKind::kStaticPin));
    const EventTotals round_robin = multiTotalsOf(
        goldenMultiRun(benchmark, AllocPolicyKind::kRoundRobin));
    const EventTotals symbiosis = multiTotalsOf(
        goldenMultiRun(benchmark, AllocPolicyKind::kIpcSymbiosis));

    if (std::getenv("JSMT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << goldenMultiDocument(benchmark, static_pin,
                                   round_robin, symbiosis);
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing baseline " << path
                    << " (regenerate with the update-golden "
                       "target)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    json::Value root;
    ASSERT_TRUE(json::parse(buffer.str(), &root))
        << "baseline is not valid JSON: " << path;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(json::asNumber(root.field("version")), 1u);
    EXPECT_EQ(json::asString(root.field("benchmark")), benchmark);
    EXPECT_EQ(json::asNumber(root.field("cores")), 2u);
    EXPECT_EQ(json::asNumber(root.field("seed")), kGoldenSeed);

    expectModeMatches(root, "static_pin", static_pin);
    expectModeMatches(root, "round_robin", round_robin);
    expectModeMatches(root, "ipc_symbiosis", symbiosis);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GoldenMultiTest,
    testing::ValuesIn(benchmarkNames()),
    [](const testing::TestParamInfo<std::string>& param) {
        return param.param;
    });

// The baselines directory must cover exactly the registry: a
// benchmark added without a baseline (or a baseline for a removed
// benchmark) is caught here rather than silently skipped. Both the
// single-core and the 2-core chip baselines are required.
TEST(GoldenSuite, EveryBenchmarkHasABaseline)
{
    if (std::getenv("JSMT_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "regenerating";
    for (const std::string& name : benchmarkNames()) {
        for (const char* suffix : {".json", ".cores2.json"}) {
            const std::string path =
                goldenDir() + "/" + name + suffix;
            std::ifstream in(path);
            EXPECT_TRUE(in.good())
                << "missing baseline " << path;
        }
    }
}

} // namespace
} // namespace jsmt
