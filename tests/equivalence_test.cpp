/**
 * @file
 * The equivalence harness: fast-forward ≡ the plain loop, parallel ≡
 * serial stepping, traced ≡ untraced, replayed ≡ fresh, switched to
 * an HT mode ≡ built in it. Each draw is a one-line config (pinned
 * ones, then seeded random ones) with one reference run (fast-forward
 * on, one step thread, no sink, no token, on the caller's thread)
 * that expectIdentical compares with rows of one variant table. A
 * mismatch names the variant, the draw, the first sample window (one
 * machine) or epoch (a chip, bisected over fresh truncated runs)
 * whose counts differ and its first event, and the smallest workload
 * set that still fails.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/simulation.h"
#include "exec/result_store.h"
#include "exec/task_pool.h"
#include "expect_identical.h"
#include "os/allocation/multi_core.h"
#include "trace/trace_sink.h"

namespace jsmt {
namespace {

using trace::TraceSink;

/** Both arms' counts at one edge, per core (a machine is core 0). */
using EdgeCounts =
    std::pair<std::vector<EventCounts>, std::vector<EventCounts>>;

/**
 * Bisect edges 1..@p n for the first at which the arms' counts
 * differ (arms that agree at an edge agreed at every earlier one) and
 * name it, its cycles and its first differing (core, event, context).
 */
std::string
firstDivergence(const std::string& unit, std::uint64_t n,
                const std::function<Cycle(std::uint64_t)>& edge,
                const std::function<EdgeCounts(std::uint64_t)>& probe)
{
    std::string text = "no " + unit + " differs";
    const auto differs = [&](std::uint64_t k) {
        const EdgeCounts counts = probe(k);
        for (std::size_t core = 0; core < counts.first.size(); ++core) {
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
                    const std::uint64_t a = counts.first[core][ctx][e];
                    const std::uint64_t b = counts.second[core][ctx][e];
                    if (a == b)
                        continue;
                    text = unit + ' ' + std::to_string(k) + " (cycles " +
                           std::to_string(edge(k - 1)) + ".." +
                           std::to_string(edge(k)) + "): core " +
                           std::to_string(core) + " event " +
                           std::string(eventName(EventId(e))) +
                           " on context " + std::to_string(ctx) +
                           ": reference " + std::to_string(a) +
                           ", variant " + std::to_string(b) + " by its end";
                    return true;
                }
            }
        }
        return false;
    };
    if (n == 0 || !differs(n))
        return text;
    std::uint64_t lo = 1;
    for (std::uint64_t hi = n; lo < hi;) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (differs(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    differs(lo);
    return text;
}

/** One machine or chip, workload mix and run shape, and its rows. */
struct Draw
{
    std::string name;
    std::uint64_t seed = 0; ///< A random draw's generator seed.
    std::string text;       ///< The one-line config it was parsed from.
    SystemConfig config{};
    std::uint32_t cores = 0; ///< 0: one Machine; N: an N-core chip.
    AllocPolicyKind policy = AllocPolicyKind::kStaticPin;
    Cycle epoch = 20'000;
    std::vector<WorkloadSpec> specs{};
    bool warmup = false; ///< Measure a relaunch into the used asids.
    Cycle sampleInterval = 0;
    Cycle cancelAt = 0; ///< Cancel at the first sample at or past it.
    Cycle cancelCheck = 65'536;
    Cycle maxCycles = 4'000'000'000ULL; ///< RunOptions' default.
    bool expectGc = false;
    std::vector<std::string> rows{}; ///< The variant rows it runs.
};

/**
 * Parse a one-line config: key=value settings (ht, rob, ldq, stq,
 * dynamic, widths=F/I/R, quantum, seed, cores, policy, epoch, warmup,
 * sample, cancel, check, cap, gc, rows=A,B) and BENCHMARK:THREADS@SCALE
 * workloads. Anything unset keeps the default machine's value.
 */
Draw
parseDraw(const std::string& name, std::uint64_t seed,
          const std::string& text)
{
    Draw draw{.name = name, .seed = seed, .text = text};
    CoreConfig& core = draw.config.core;
    const std::map<std::string, std::function<void(std::uint64_t)>> set = {
        {"ht", [&](std::uint64_t v) { draw.config.hyperThreading = v; }},
        {"rob", [&](std::uint64_t v) { core.robEntries = v; }},
        {"ldq", [&](std::uint64_t v) { core.loadBufEntries = v; }},
        {"stq", [&](std::uint64_t v) { core.storeBufEntries = v; }},
        {"dynamic",
         [&](std::uint64_t v) {
             core.partitionPolicy =
                 v ? PartitionPolicy::kDynamic : PartitionPolicy::kStatic;
         }},
        {"quantum", [&](std::uint64_t v) { draw.config.os.quantumCycles = v; }},
        {"seed", [&](std::uint64_t v) { draw.config.seed = v; }},
        {"cores", [&](std::uint64_t v) { draw.cores = v; }},
        {"epoch", [&](std::uint64_t v) { draw.epoch = v; }},
        {"warmup", [&](std::uint64_t v) { draw.warmup = v; }},
        {"sample", [&](std::uint64_t v) { draw.sampleInterval = v; }},
        {"cancel", [&](std::uint64_t v) { draw.cancelAt = v; }},
        {"check", [&](std::uint64_t v) { draw.cancelCheck = v; }},
        {"cap", [&](std::uint64_t v) { draw.maxCycles = v; }},
        {"gc", [&](std::uint64_t v) { draw.expectGc = v; }}};
    std::istringstream tokens(text);
    for (std::string token; tokens >> token;) {
        const std::size_t at = token.find_first_of("=:");
        const std::string key = token.substr(0, at);
        const std::string value = token.substr(at + 1);
        if (token[at] == ':') {
            WorkloadSpec& spec = draw.specs.emplace_back();
            spec.benchmark = key;
            spec.threads = static_cast<std::uint32_t>(std::stoul(value));
            spec.lengthScale = std::stod(value.substr(value.find('@') + 1));
        } else if (key == "widths") {
            std::sscanf(value.c_str(), "%u/%u/%u", &core.fetchAllocWidth,
                        &core.issueWidth, &core.retireWidth);
        } else if (key == "policy") {
            draw.policy = allocPolicyFromName(value).value();
        } else if (key == "rows") {
            std::istringstream rows(value);
            for (std::string row; std::getline(rows, row, ',');)
                draw.rows.push_back(row);
        } else {
            set.at(key)(std::stoull(value));
        }
    }
    return draw;
}

/**
 * A config biased toward boundary geometries (ROB edges, widths down
 * to 1 — at most 3, the P4's retire width — short quanta, both HT
 * modes and partition policies). Even draws are chips, cycling 1, 2,
 * 4 and 8 cores so every count meets two of the four policies; odd
 * ones are one machine with optional warm-up, sampling and mid-run
 * cancel. Each runs every row that applies: a chip has no sampling
 * hook, no relaunch into a used asid and no HT switch before its
 * first process, and the store holds finished measurements only. Runs
 * are capped, so a narrow machine ends quickly; each arm stops at the
 * same clock.
 */
std::string
randomDraw(std::uint64_t index, std::uint64_t seed)
{
    Rng rng(seed);
    const auto pick = [&](std::initializer_list<std::uint64_t> values) {
        return values.begin()[rng.below(values.size())];
    };
    const std::uint64_t rob =
        rng.chance(0.75) ? pick({4, 6, 7, 16, 126}) : rng.between(4, 160);
    const std::uint64_t queues = rob <= 16 ? 8 : 64;
    std::ostringstream out;
    out << "ht=" << rng.below(2) << " rob=" << rob
        << " ldq=" << rng.between(2, queues)
        << " stq=" << rng.between(2, queues) << " dynamic=" << rng.below(2)
        << " widths=" << rng.between(1, 3) << '/' << rng.between(1, 3) << '/'
        << rng.between(1, 3) << " quantum=" << pick({1'500, 12'000, 60'000})
        << " seed=" << rng.next();
    const bool chip = index % 2 == 0;
    const std::uint64_t cores = chip ? 1u << (index / 2 % 4) : 0;
    const std::vector<std::string>& names = benchmarkNames();
    for (std::uint64_t p = chip ? rng.between(2, cores + 2) : pick({1, 2});
         p > 0; --p) {
        out << ' ' << names[rng.below(names.size())] << ':'
            << (chip ? 1 : rng.between(1, 2)) << '@'
            << (rng.chance(0.5) ? 0.003 : 0.006);
    }
    std::string rows = " rows=plain-loop,sink,sink-disabled,sink-degraded";
    if (chip) {
        out << " cores=" << cores << " policy="
            << allocPolicyName(AllocPolicyKind((index / 2 + index / 8) % 4))
            << " epoch=" << pick({5'000, 10'000, 20'000}) << " cap=200000";
        if (cores >= 2)
            rows += ",step-threads-2,step-threads-0,sink-4";
        return out.str() + rows + (cores >= 4 ? ",step-threads-4" : "") +
               ",token";
    }
    const bool warmup = rng.chance(0.2);
    const std::uint64_t sample = rng.chance(0.33) ? rng.between(2, 10) : 0;
    const bool cancel = sample > 0 && rng.chance(0.4);
    out << " cap=2000000 warmup=" << warmup << " sample=" << sample * 1'000;
    if (cancel) {
        out << " cancel=" << rng.between(sample, 6 * sample) * 1'000
            << " check=" << pick({1'024, 4'096, 65'536});
    }
    rows += cancel ? ",task-pool,ht-switched"
                   : ",task-pool,ht-switched,token,memo-replay,spill-replay";
    return out.str() + rows + (warmup || sample ? "" : ",chip-1-static-pin");
}

/**
 * Hand-picked configurations with the rows each was picked for: ROB
 * rings wrapping every few cycles (the smallest legal ROB, one queue
 * entry per context, halves that truncate, the P4 default, two
 * threads switching on a tiny ring); the default machine solo,
 * multiprogrammed, warmed, sampled and cancelled; a run long enough
 * for javac's heap to collect, so the heap counters a 1-core chip
 * must match are not zero (2 M cycles: the chip row alone); 2-core
 * chips whose degraded sink keeps the trace shards off, or whose
 * enabled sinks capture the same events at 1 and 4 step threads.
 * Then sixteen random draws.
 */
const std::vector<Draw>&
draws()
{
    static const std::vector<Draw> all = [] {
        std::vector<Draw> list;
        const char* const rings[][2] = {
            {"Rob4", "rob=4 ldq=2 stq=2 compress:1@0.01"},
            {"Rob6", "rob=6 ldq=3 stq=3 compress:1@0.01"},
            {"Rob7", "rob=7 ldq=2 stq=3 dynamic=1 compress:1@0.01"},
            {"Rob126", "rob=126 ldq=48 stq=24 compress:1@0.01"},
            {"Rob8", "rob=8 ldq=4 stq=4 MolDyn:2@0.01"}};
        for (const std::string ht : {"0", "1"}) {
            for (const auto& ring : rings) {
                list.push_back(parseDraw(
                    ring[0] + std::string(ht == "1" ? "_HtOn" : "_HtOff"), 0,
                    "ht=" + ht + ' ' + ring[1] +
                        " rows=plain-loop,ht-switched"));
            }
        }
        const char* const pinned[][2] = {
            {"Compress_HtOff",
             "ht=0 compress:1@0.02 rows=plain-loop,task-pool"},
            {"Compress_HtOn", "compress:1@0.02 rows=plain-loop,task-pool"},
            {"Jess_HtOff",
             "ht=0 jess:0@0.02 rows=plain-loop,sink,sink-plain-loop"},
            {"Jess_HtOn", "jess:0@0.02 rows=plain-loop,sink,sink-plain-loop,"
                          "token,task-pool"},
            {"Db_HtOff", "ht=0 db:1@0.02 warmup=1 rows=plain-loop,task-pool"},
            {"Db_HtOn", "db:0@0.02 rows=plain-loop,sink-disabled,"
                        "sink-degraded,task-pool"},
            {"JessDb_HtOn", "jess:1@0.02 db:1@0.02 rows=plain-loop"},
            {"Mpegaudio_HtOn", "mpegaudio:0@0.02 warmup=1 "
                               "rows=plain-loop,task-pool,memo-replay"},
            {"Jack_HtOff",
             "ht=0 jack:1@0.02 warmup=1 rows=plain-loop,spill-replay"},
            {"MpegaudioSampled_HtOn",
             "mpegaudio:1@0.02 sample=10000 rows=plain-loop"},
            {"JessCancelled_HtOn", "jess:0@0.02 sample=8192 cancel=16384 "
                                   "check=4096 rows=plain-loop"},
            {"JavacJackGc_HtOn",
             "javac:0@0.3 jack:0@0.3 gc=1 rows=chip-1-static-pin"},
            {"Chip2Symbiosis",
             "cores=2 policy=ipc-symbiosis PseudoJBB:0@0.02 jess:0@0.02 "
             "MolDyn:0@0.02 db:0@0.02 rows=plain-loop,sink-degraded"},
            {"Chip2RoundRobin",
             "cores=2 policy=round-robin PseudoJBB:0@0.02 jack:0@0.02 "
             "compress:0@0.02 rows=plain-loop,sink,sink-4"}};
        for (const auto& pin : pinned)
            list.push_back(parseDraw(pin[0], 0, pin[1]));
        for (std::uint64_t i = 0; i < 16; ++i) {
            list.push_back(parseDraw(
                "Random" + std::to_string(100 + i).substr(1),
                0x5eed2027 + i, randomDraw(i, 0x5eed2027 + i)));
        }
        return list;
    }();
    return all;
}

std::string
describe(const Draw& draw)
{
    return draw.name + " (seed " + std::to_string(draw.seed) +
           "): " + draw.text;
}

enum class SinkKind { kNone, kEnabled, kDisabled, kDegraded };

/** How one arm runs a draw; the defaults are the reference. */
struct Arm
{
    bool fastForward = true;
    std::uint32_t stepThreads = 1;
    SinkKind sink = SinkKind::kNone;
    bool token = false;  ///< Attach a token nobody cancels.
    bool asChip = false; ///< Run a machine draw as a 1-core static-pin chip.
    /** Build the machine in the other HT mode, then switch it back. */
    bool htSwitched = false;
    Cycle cap = 0;            ///< Diagnosis: a chip's cap (0: the draw's).
    Cycle sampleInterval = 0; ///< Diagnosis: a machine's (0: the draw's).
};

struct Outcome
{
    RunResult run;       ///< A machine's result.
    MultiRunResult chip; ///< A chip's result.
    /** A machine's start, its counts since at each sample, its end. */
    std::vector<std::pair<Cycle, EventCounts>> windows;
    std::shared_ptr<TraceSink> sink;
};

void
failAllocation(std::size_t)
{
    throw std::bad_alloc();
}

Outcome
runArm(const Draw& draw, const Arm& arm)
{
    Outcome out;
    if (arm.sink != SinkKind::kNone) {
        out.sink = std::make_shared<TraceSink>(
            1u << 15,
            arm.sink == SinkKind::kDegraded ? failAllocation : nullptr);
        // A degraded sink ignores the request and stays a no-op.
        out.sink->setEnabled(arm.sink != SinkKind::kDisabled);
    }
    CancellationToken token;
    const CancellationToken* cancel =
        arm.token || draw.cancelAt > 0 ? &token : nullptr;
    if (draw.cores > 0 || arm.asChip) {
        MultiCoreConfig config;
        config.system = draw.config;
        config.cores = arm.asChip ? 1 : draw.cores;
        config.policy = arm.asChip ? AllocPolicyKind::kStaticPin : draw.policy;
        config.epochCycles = draw.epoch;
        MultiCoreSystem system(config);
        MultiCoreSimulation sim(system);
        for (const WorkloadSpec& spec : draw.specs)
            sim.addProcess(spec);
        MultiCoreSimulation::RunOptions options;
        options.maxCycles = arm.cap > 0 ? arm.cap : draw.maxCycles;
        options.fastForward = arm.fastForward;
        options.stepThreads = arm.stepThreads;
        options.trace = out.sink.get();
        options.cancellation = cancel;
        out.chip = sim.run(options);
        return out;
    }
    SystemConfig built = draw.config;
    built.hyperThreading = built.hyperThreading != arm.htSwitched;
    Machine machine(built);
    if (arm.htSwitched)
        machine.setHyperThreading(draw.config.hyperThreading);
    Simulation sim(machine);
    Simulation::RunOptions options;
    options.maxCycles = draw.maxCycles;
    options.fastForward = arm.fastForward;
    options.trace = out.sink.get();
    options.cancellation = cancel;
    options.cancelCheckIntervalCycles = draw.cancelCheck;
    for (const WorkloadSpec& spec : draw.specs)
        sim.addProcess(spec);
    if (draw.warmup) {
        (void)sim.run(options);
        for (std::size_t i = 0; i < draw.specs.size(); ++i) {
            WorkloadSpec again = draw.specs[i];
            again.reuseAsid = sim.processes()[i]->asid();
            sim.addProcess(again);
        }
    }
    machine.core().flushAccounting();
    const EventCounts start = machine.pmu().counts();
    out.windows.push_back({sim.now(), {}});
    options.sampleIntervalCycles =
        arm.sampleInterval > 0 ? arm.sampleInterval : draw.sampleInterval;
    options.onSample = [&](Simulation&, Cycle now) {
        out.windows.push_back(
            {now, countsDelta(machine.pmu().counts(), start)});
        if (draw.cancelAt > 0 && now >= draw.cancelAt)
            token.cancel();
    };
    out.run = sim.run(options);
    out.windows.push_back(
        {out.windows.front().first + out.run.cycles, out.run.events});
    return out;
}

/** One way of running a draw that must reproduce the reference. */
struct Variant
{
    const char* name;
    Arm arm;
    /** Copies run at once on a TaskPool(8); 0: once, on this thread. */
    std::size_t poolCopies = 0;
    /** Replay the reference through a store instead of a rerun. */
    RunResult (*replay)(const Draw&, const RunResult&) = nullptr;
};

// Inert sinks attach at four step threads, where a chip's trace
// shards must stay off. The pool's copies run traced, so their
// captures must equal every other enabled sink's of the same clock
// mode.
const Variant kVariants[] = {
    {"plain-loop", {.fastForward = false}},
    {"step-threads-2", {.stepThreads = 2}},
    {"step-threads-4", {.stepThreads = 4}},
    {"step-threads-0", {.stepThreads = 0}},
    {"sink", {.sink = SinkKind::kEnabled}},
    {"sink-4", {.stepThreads = 4, .sink = SinkKind::kEnabled}},
    {"sink-plain-loop", {.fastForward = false, .sink = SinkKind::kEnabled}},
    {"sink-disabled", {.stepThreads = 4, .sink = SinkKind::kDisabled}},
    {"sink-degraded", {.stepThreads = 4, .sink = SinkKind::kDegraded}},
    {"token", {.token = true}},
    {"task-pool", {.sink = SinkKind::kEnabled}, 2},
    {"memo-replay", {}, 0,
     [](const Draw& draw, const RunResult& reference) {
         exec::ResultStore store;
         (void)store.getOrCompute(draw.name, [&] { return reference; });
         return store.getOrCompute(draw.name, [] { return RunResult{}; });
     }},
    {"spill-replay", {}, 0,
     [](const Draw& draw, const RunResult& reference) {
         const std::string path = testing::TempDir() + "jsmt_equivalence_" +
                                  draw.name + ".json";
         exec::ResultStore store;
         store.insert(draw.name, reference);
         EXPECT_TRUE(store.save(path));
         RunResult replayed;
         EXPECT_TRUE(exec::ResultStore(path, 0).lookup(draw.name, &replayed));
         std::remove(path.c_str());
         return replayed;
     }},
    {"chip-1-static-pin", {.asChip = true}},
    {"ht-switched", {.htSwitched = true}}};

std::vector<const Variant*>
variantsOf(const Draw& draw)
{
    std::vector<const Variant*> rows;
    for (const Variant& variant : kVariants) {
        if (std::count(draw.rows.begin(), draw.rows.end(), variant.name))
            rows.push_back(&variant);
    }
    return rows;
}

std::vector<Outcome>
runVariant(const Draw& draw, const Variant& variant, const Outcome& reference)
{
    if (variant.replay != nullptr) {
        Outcome out = reference;
        out.run = variant.replay(draw, reference.run);
        out.windows.back().second = out.run.events;
        return {out};
    }
    if (variant.poolCopies == 0)
        return {runArm(draw, variant.arm)};
    exec::TaskPool pool(8);
    return pool.map<Outcome>(variant.poolCopies, [&](std::size_t) {
        return runArm(draw, variant.arm);
    });
}

/**
 * Expect @p out to be @p reference. A machine draw run as a 1-core
 * chip matches every event and completion, but the chip's clock
 * stops on an epoch edge: the reference's cycles, padded up to it.
 */
void
expectSame(const Draw& draw, const Variant& variant, const Outcome& reference,
           const Outcome& out)
{
    if (draw.cores > 0)
        return expectIdentical(reference.chip, out.chip);
    if (!variant.arm.asChip) {
        EXPECT_EQ(reference.windows.size(), out.windows.size()) << "samples";
        return expectIdentical(reference.run, out.run);
    }
    const Cycle cycles = reference.run.cycles;
    const Cycle edge = (cycles + draw.epoch - 1) / draw.epoch * draw.epoch;
    EXPECT_EQ(out.chip.cycles, reference.run.allComplete
                                   ? std::min(edge, draw.maxCycles)
                                   : cycles);
    EXPECT_EQ(out.chip.migrations + out.chip.steals, 0u);
    RunResult folded = out.chip.toRunResult();
    folded.cycles = cycles;
    expectIdentical(reference.run, folded);
}

/** The first message of the gtest failures expectSame raises. */
std::string
mismatch(const Draw& draw, const Variant& variant, const Outcome& reference,
         const Outcome& out)
{
    testing::TestPartResultArray failures;
    {
        testing::ScopedFakeTestPartResultReporter reporter(
            testing::ScopedFakeTestPartResultReporter::
                INTERCEPT_ONLY_CURRENT_THREAD,
            &failures);
        expectSame(draw, variant, reference, out);
    }
    return failures.size() > 0 ? failures.GetTestPartResult(0).message() : "";
}

/** @p draw less every workload whose removal keeps the mismatch. */
Draw
smallestFailing(Draw draw, const Variant& variant)
{
    for (std::size_t i = 0; i < draw.specs.size() && draw.specs.size() > 1;) {
        std::istringstream tokens(draw.text);
        std::string text;
        std::size_t workload = 0;
        for (std::string token; tokens >> token;) {
            if (token.find(':') == std::string::npos || workload++ != i)
                text += (text.empty() ? "" : " ") + token;
        }
        const Draw fewer = parseDraw(draw.name, draw.seed, text);
        const Outcome reference = runArm(fewer, Arm{});
        bool fails = false;
        for (const Outcome& out : runVariant(fewer, variant, reference))
            fails = fails || !mismatch(fewer, variant, reference, out).empty();
        if (fails)
            draw = fewer;
        else
            ++i;
    }
    return draw;
}

/** The first window or epoch at which the variant leaves the reference. */
std::string
divergence(const Draw& draw, const Variant& variant, const Outcome& reference,
           const Outcome& out)
{
    if (draw.cores > 0 || variant.arm.asChip) {
        const Cycle cycles = std::max({reference.chip.cycles,
                                       reference.run.cycles, out.chip.cycles});
        const auto counts = [&](const Arm& arm, std::uint64_t k) {
            Arm capped = arm;
            capped.cap = std::min(k * draw.epoch, draw.maxCycles);
            const Outcome run = runArm(draw, capped);
            return run.windows.empty() ? run.chip.coreEvents
                                       : std::vector{run.run.events};
        };
        return firstDivergence(
            "epoch", (cycles + draw.epoch - 1) / draw.epoch,
            [&](std::uint64_t k) { return k * draw.epoch; },
            [&](std::uint64_t k) {
                return EdgeCounts{counts(Arm{}, k), counts(variant.arm, k)};
            });
    }
    // A machine's windows are its samples, else 32 of the reference.
    Outcome runs[2] = {reference, out};
    if (draw.sampleInterval == 0 && variant.replay == nullptr) {
        Arm arms[2] = {Arm{}, variant.arm};
        for (int i = 0; i < 2; ++i) {
            arms[i].sampleInterval =
                std::max<Cycle>(1'000, reference.run.cycles / 32);
            runs[i] = runArm(draw, arms[i]);
        }
    }
    return firstDivergence(
        "window", std::min(runs[0].windows.size(), runs[1].windows.size()) - 1,
        [&](std::uint64_t k) { return runs[0].windows[k].first; },
        [&](std::uint64_t k) {
            return EdgeCounts{{runs[0].windows[k].second},
                              {runs[1].windows[k].second}};
        });
}

/** The fields of a trace event, compared one by one. */
auto
fields(const trace::TraceEvent& e)
{
    return std::tuple(e.ts, e.dur, std::string(e.name), e.track, e.phase,
                      e.argValue, e.argText);
}

class Equivalence : public testing::TestWithParam<std::size_t>
{
};

TEST_P(Equivalence, EveryVariantMatchesTheReference)
{
    const Draw& draw = draws()[GetParam()];
    const Outcome reference = runArm(draw, Arm{});
    // The draw exercises what it pins: completion unless capped or
    // cancelled, samples, a cancel, a collection.
    EXPECT_TRUE(reference.run.allComplete || reference.chip.allComplete ||
                draw.maxCycles != Draw{}.maxCycles || draw.cancelAt > 0);
    EXPECT_EQ(reference.windows.size() > 2, draw.sampleInterval > 0);
    EXPECT_EQ(reference.run.cancelled, draw.cancelAt > 0);
    EXPECT_TRUE(!draw.expectGc || reference.run.processes[0].gcRuns > 0);
    // Every enabled sink of one clock mode captures the same events.
    std::vector<trace::TraceEvent> captured[2];
    std::size_t comparisons = 0;
    for (const Variant* variant : variantsOf(draw)) {
        for (const Outcome& out : runVariant(draw, *variant, reference)) {
            ++comparisons;
            const std::string failure =
                mismatch(draw, *variant, reference, out);
            EXPECT_TRUE(failure.empty())
                << "equivalence mismatch\n  variant: " << variant->name
                << "\n  draw " << GetParam() << ": " << describe(draw)
                << "\n  first difference: " << failure
                << "\n  first divergence: "
                << divergence(draw, *variant, reference, out)
                << "\n  smallest failing draw: "
                << describe(smallestFailing(draw, *variant));
            if (out.sink == nullptr)
                continue;
            const SinkKind kind = variant->arm.sink;
            EXPECT_EQ(out.sink->size() > 0, kind == SinkKind::kEnabled);
            EXPECT_EQ(out.sink->degraded(), kind == SinkKind::kDegraded);
            if (kind != SinkKind::kEnabled)
                continue;
            const std::vector<trace::TraceEvent> events = out.sink->events();
            auto& first = captured[variant->arm.fastForward];
            if (first.empty())
                first = events;
            ASSERT_EQ(first.size(), events.size()) << variant->name;
            for (std::size_t i = 0; i < events.size(); ++i) {
                ASSERT_EQ(fields(first[i]), fields(events[i]))
                    << variant->name << " trace event " << i;
            }
        }
    }
    std::cout << "[ equivalence ] " << describe(draw) << ": " << comparisons
              << " comparisons\n";
}

INSTANTIATE_TEST_SUITE_P(
    Draws, Equivalence, testing::Range<std::size_t>(0, draws().size()),
    [](const testing::TestParamInfo<std::size_t>& draw) {
        return draws()[draw.param].name;
    });

TEST(EquivalencePlan, ComparesAtLeast150DrawVariantPairs)
{
    std::size_t comparisons = 0;
    for (const Draw& draw : draws()) {
        EXPECT_EQ(variantsOf(draw).size(), draw.rows.size()) << draw.text;
        for (const Variant* variant : variantsOf(draw))
            comparisons += std::max<std::size_t>(1, variant->poolCopies);
    }
    std::cout << "[ equivalence ] " << draws().size() << " draws, "
              << comparisons << " comparisons\n";
    EXPECT_GE(comparisons, 150u);
}

TEST(EquivalenceReporter, NamesTheFirstDivergentWindowOrEpochAndEvent)
{
    // Over 37 edges, the variant counts one more BTB miss on context
    // 1 of its middle core from edge 4 (one core) or 23 (four) on.
    for (const std::size_t cores : {1, 4}) {
        const std::uint64_t first = cores == 1 ? 4 : 23;
        std::size_t probes = 0;
        const auto probe = [&](std::uint64_t k) {
            ++probes;
            EdgeCounts counts{std::vector<EventCounts>(cores),
                              std::vector<EventCounts>(cores)};
            for (std::size_t core = 0; core < cores; ++core)
                counts.first[core][1].fill(k * (core + 1));
            counts.second = counts.first;
            counts.second[cores / 2][1][std::size_t(EventId::kBtbMiss)] +=
                k >= first;
            return counts;
        };
        EXPECT_EQ(firstDivergence(
                      cores == 1 ? "window" : "epoch", 37,
                      [](std::uint64_t k) { return k * 3'000; }, probe),
                  cores == 1
                      ? "window 4 (cycles 9000..12000): core 0 event "
                        "btb_miss on context 1: reference 4, variant 5 by "
                        "its end"
                      : "epoch 23 (cycles 66000..69000): core 2 event "
                        "btb_miss on context 1: reference 69, variant 70 by "
                        "its end");
        EXPECT_LE(probes, 8u); // The whole run, then ceil(log2 37) halvings.
    }
    EXPECT_EQ(firstDivergence(
                  "epoch", 37, [](std::uint64_t k) { return k; },
                  [](std::uint64_t) { return EdgeCounts{{{}}, {{}}}; }),
              "no epoch differs");
}

} // namespace
} // namespace jsmt
