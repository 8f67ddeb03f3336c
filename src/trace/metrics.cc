#include "trace/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "core/machine.h"
#include "exec/result_store.h"
#include "exec/task_pool.h"

namespace jsmt::trace {

namespace {

/** Subsystem a PMU event line belongs to (metric module label). */
const char*
eventModule(EventId event)
{
    switch (event) {
      case EventId::kTraceCacheAccess:
      case EventId::kTraceCacheMiss:
      case EventId::kItlbAccess:
      case EventId::kItlbMiss:
      case EventId::kPageWalk:
      case EventId::kL1dAccess:
      case EventId::kL1dMiss:
      case EventId::kL2Access:
      case EventId::kL2Miss:
      case EventId::kDtlbAccess:
      case EventId::kDtlbMiss:
      case EventId::kDramAccess:
      case EventId::kFsbBusyCycles:
      case EventId::kMemStallCycles:
        return "mem";
      case EventId::kBranchRetired:
      case EventId::kBtbAccess:
      case EventId::kBtbMiss:
      case EventId::kBranchMispredict:
        return "branch";
      case EventId::kContextSwitches:
      case EventId::kSyscalls:
      case EventId::kTimerTicks:
        return "os";
      default:
        return "core";
    }
}

constexpr const char* kContextLabels[kNumContexts] = {"lcpu0",
                                                      "lcpu1"};

void
appendDouble(std::string& out, double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    out += buffer;
}

double
ratioOf(std::uint64_t num, std::uint64_t den)
{
    return den > 0 ? static_cast<double>(num) /
                         static_cast<double>(den)
                   : 0.0;
}

/** Catalogue name of a structure counter or gauge. */
struct MetricName
{
    const char* module;
    const char* name;
    const char* context; ///< "" = machine-wide.
};

/** SeriesRow::counters, in row order. */
constexpr MetricName kCounterNames[kSeriesCounters] = {
    {"branch", "btb_cross_ctx_evictions", ""},
    {"mem", "trace_cache_evictions", ""},
    {"mem", "trace_cache_cross_evictions", ""},
    {"mem", "l1d_evictions", ""},
    {"mem", "l2_evictions", ""},
    {"os", "migrations", ""},
    {"core", "fast_forward_cycles", ""},
};
constexpr std::size_t kFastForwardCycles = 6;

/** SeriesRow::gauges, in row order: three per context, then four. */
constexpr MetricName kGaugeNames[kSeriesGauges] = {
    {"core", "rob_occupancy", "lcpu0"},
    {"core", "ldq_occupancy", "lcpu0"},
    {"core", "stq_occupancy", "lcpu0"},
    {"core", "rob_occupancy", "lcpu1"},
    {"core", "ldq_occupancy", "lcpu1"},
    {"core", "stq_occupancy", "lcpu1"},
    {"os", "run_queue_depth", ""},
    {"mem", "trace_cache_occupancy", ""},
    {"mem", "l1d_occupancy", ""},
    {"mem", "l2_occupancy", ""},
};
constexpr std::size_t kGaugesPerContext = 3;
constexpr std::size_t kFirstMachineGauge = kNumContexts * kGaugesPerContext;

/** Bucket count of the rob_occupancy_sampled histogram. */
constexpr std::size_t kRobBuckets = 8;

double
occupancyOf(const Cache& cache)
{
    const std::uint64_t lines =
        static_cast<std::uint64_t>(cache.numSets()) * cache.ways();
    return ratioOf(cache.validLines(), lines);
}

/**
 * Counter deltas from @p earlier to @p later in catalogue order:
 * each tracked event per context, then the structure counters.
 */
std::vector<std::uint64_t>
counterDeltas(const SeriesRow& later, const SeriesRow& earlier)
{
    const EventCounts delta = countsDelta(later.counts, earlier.counts);
    std::vector<std::uint64_t> out;
    for (const EventId event : CounterSeries::trackedEvents()) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx)
            out.push_back(delta[ctx][static_cast<std::size_t>(event)]);
    }
    for (std::size_t i = 0; i < kSeriesCounters; ++i)
        out.push_back(later.counters[i] - earlier.counters[i]);
    return out;
}

/** Append @p values, comma-separated, formatted by @p format. */
template <typename T, typename Format>
void
appendList(std::string& out, const T& values, Format format)
{
    bool first = true;
    for (const auto& value : values) {
        if (!first)
            out += ',';
        first = false;
        format(out, value);
    }
}

void
appendUint(std::string& out, std::uint64_t value)
{
    out += std::to_string(value);
}

/**
 * The derived figures of the run from @p first to @p last: IPC,
 * horizon skip share, MPKIs and the BTB miss ratio.
 */
std::vector<std::pair<const char*, double>>
machineFigures(const SeriesRow& first, const SeriesRow& last)
{
    const EventCounts run = countsDelta(last.counts, first.counts);
    const auto total = [&](EventId event) {
        std::uint64_t sum = 0;
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx)
            sum += run[ctx][static_cast<std::size_t>(event)];
        return sum;
    };
    const std::uint64_t instr = total(EventId::kInstrRetired);
    const std::uint64_t cycles = total(EventId::kCycles);
    const auto mpki = [&](EventId event) {
        return instr > 0 ? 1000.0 * static_cast<double>(total(event)) /
                               static_cast<double>(instr)
                         : 0.0;
    };
    return {
        {"ipc", ratioOf(total(EventId::kUopsRetired), cycles)},
        // Share of simulated cycles the event-horizon engine
        // fast-forwarded instead of simulating (DESIGN.md §9).
        {"horizon_skip_pct",
         100.0 * ratioOf(last.counters[kFastForwardCycles] -
                             first.counters[kFastForwardCycles],
                         cycles)},
        {"trace_cache_mpki", mpki(EventId::kTraceCacheMiss)},
        {"l1d_mpki", mpki(EventId::kL1dMiss)},
        {"l2_mpki", mpki(EventId::kL2Miss)},
        {"itlb_mpki", mpki(EventId::kItlbMiss)},
        {"btb_miss_ratio",
         ratioOf(total(EventId::kBtbMiss), total(EventId::kBtbAccess))},
    };
}

} // namespace

CounterSeries::CounterSeries(Machine& machine, Cycle now)
    : _machine(machine)
{
    record(now);
}

void
CounterSeries::record(Cycle now)
{
    SeriesRow row;
    row.cycle = now;
    row.counts = _machine.pmu().counts();
    const MemorySystem& mem = _machine.mem();
    SmtCore& core = _machine.core();
    row.counters = {_machine.branch().btb().crossAsidEvictions(),
                    mem.traceCache().evictions(),
                    mem.traceCache().crossAsidEvictions(),
                    mem.l1d().evictions(),
                    mem.l2().evictions(),
                    _machine.scheduler().migrations(),
                    core.fastForwardedCycles()};
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        double* gauges = &row.gauges[ctx * kGaugesPerContext];
        gauges[0] = static_cast<double>(core.robOccupancy(ctx));
        gauges[1] = static_cast<double>(core.ldqOccupancy(ctx));
        gauges[2] = static_cast<double>(core.stqOccupancy(ctx));
    }
    row.gauges[kFirstMachineGauge] =
        static_cast<double>(_machine.scheduler().runQueueDepth());
    row.gauges[kFirstMachineGauge + 1] = occupancyOf(mem.traceCache());
    row.gauges[kFirstMachineGauge + 2] = occupancyOf(mem.l1d());
    row.gauges[kFirstMachineGauge + 3] = occupancyOf(mem.l2());
    _rows.push_back(row);
}

const std::vector<EventId>&
CounterSeries::trackedEvents()
{
    static const std::vector<EventId> kEvents = {
        EventId::kCycles,
        EventId::kUopsRetired,
        EventId::kInstrRetired,
        EventId::kUserCycles,
        EventId::kOsCycles,
        EventId::kIdleCycles,
        EventId::kDualThreadCycles,
        EventId::kSingleThreadCycles,
        EventId::kRetire0,
        EventId::kRetire1,
        EventId::kRetire2,
        EventId::kRetire3,
        EventId::kTraceCacheAccess,
        EventId::kTraceCacheMiss,
        EventId::kItlbAccess,
        EventId::kItlbMiss,
        EventId::kFetchStallCycles,
        EventId::kBranchRetired,
        EventId::kBtbAccess,
        EventId::kBtbMiss,
        EventId::kBranchMispredict,
        EventId::kL1dAccess,
        EventId::kL1dMiss,
        EventId::kL2Access,
        EventId::kL2Miss,
        EventId::kDtlbAccess,
        EventId::kDtlbMiss,
        EventId::kDramAccess,
        EventId::kMemStallCycles,
        EventId::kRobFullStall,
        EventId::kLdqFullStall,
        EventId::kStqFullStall,
        EventId::kContextSwitches,
    };
    return kEvents;
}

void
writeMetricsJson(std::ostream& out, const CounterSeries* series,
                 const AllocTotals* alloc)
{
    static const std::vector<SeriesRow> kNoRows;
    const std::vector<SeriesRow>& rows =
        series != nullptr ? series->rows() : kNoRows;
    std::vector<std::pair<const char*, std::uint64_t>> alloc_counters;
    if (alloc != nullptr) {
        alloc_counters = {{"epochs", alloc->epochs},
                          {"migrations", alloc->migrations},
                          {"steals", alloc->steals}};
    }

    std::string doc = "{\"version\":1,\"metrics\":[\n";
    bool first = true;
    const auto header = [&](const char* module,
                            std::string_view name,
                            const char* context, const char* kind) {
        if (!first)
            doc += ",\n";
        first = false;
        doc += "{\"module\":";
        json::appendEscaped(doc, module);
        doc += ",\"name\":";
        json::appendEscaped(doc, std::string(name));
        if (*context != '\0') {
            doc += ",\"context\":";
            json::appendEscaped(doc, context);
        }
        doc += ",\"kind\":\"";
        doc += kind;
        doc += "\"";
    };

    if (!rows.empty()) {
        // Machine counters: run totals, the last row minus the
        // baseline.
        const std::vector<std::uint64_t> totals =
            counterDeltas(rows.back(), rows.front());
        std::size_t k = 0;
        for (const EventId event : CounterSeries::trackedEvents()) {
            for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
                header(eventModule(event), eventName(event),
                       kContextLabels[ctx], "counter");
                doc += ",\"total\":" + std::to_string(totals[k++]) + "}";
            }
        }
        for (const MetricName& name : kCounterNames) {
            header(name.module, name.name, name.context, "counter");
            doc += ",\"total\":" + std::to_string(totals[k++]) + "}";
        }
    }
    for (const auto& [name, total] : alloc_counters) {
        header("alloc", name, "", "counter");
        doc += ",\"total\":" + std::to_string(total) + "}";
    }
    if (!rows.empty()) {
        const SeriesRow& last = rows.back();
        for (std::size_t g = 0; g < kSeriesGauges; ++g) {
            header(kGaugeNames[g].module, kGaugeNames[g].name,
                   kGaugeNames[g].context, "gauge");
            doc += ",\"value\":";
            appendDouble(doc, last.gauges[g]);
            doc += "}";
        }

        // retire_width holds the last row's absolute PMU totals, not
        // run deltas; rob_occupancy_sampled bins every row, the
        // baseline included.
        std::array<std::uint64_t, 4> retire{};
        static constexpr EventId kRetireBins[4] = {
            EventId::kRetire0, EventId::kRetire1, EventId::kRetire2,
            EventId::kRetire3};
        for (std::size_t b = 0; b < retire.size(); ++b) {
            for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
                retire[b] += last.counts[ctx][static_cast<std::size_t>(
                    kRetireBins[b])];
            }
        }
        std::array<std::uint64_t, kRobBuckets> rob{};
        for (const SeriesRow& row : rows) {
            std::uint32_t rob_total = 0;
            for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
                rob_total += static_cast<std::uint32_t>(
                    row.gauges[ctx * kGaugesPerContext]);
            }
            ++rob[std::min<std::size_t>(rob_total / 16,
                                        kRobBuckets - 1)];
        }
        header("core", "retire_width", "", "histogram");
        doc += ",\"buckets\":[";
        appendList(doc, retire, appendUint);
        doc += "]}";
        header("core", "rob_occupancy_sampled", "", "histogram");
        doc += ",\"buckets\":[";
        appendList(doc, rob, appendUint);
        doc += "]}";
    }

    // One snapshot per row after the baseline; the alloc counters
    // have no series, so their totals join the last snapshot.
    doc += "\n],\"snapshots\":[\n";
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (i > 1)
            doc += ",\n";
        std::vector<std::uint64_t> deltas =
            counterDeltas(rows[i], rows[i - 1]);
        if (i + 1 == rows.size()) {
            for (const auto& counter : alloc_counters)
                deltas.push_back(counter.second);
        }
        doc += "{\"cycle\":" + std::to_string(rows[i].cycle) +
               ",\"counters\":[";
        appendList(doc, deltas, appendUint);
        doc += "],\"gauges\":[";
        appendList(doc, rows[i].gauges, appendDouble);
        doc += "]}";
    }

    std::vector<std::pair<const char*, double>> derived;
    if (!rows.empty())
        derived = machineFigures(rows.front(), rows.back());
    const exec::ResultStore& store = exec::ResultStore::global();
    derived.insert(
        derived.end(),
        {
            {"run_cache_hit_ratio",
             ratioOf(store.hits(), store.hits() + store.misses())},
            {"task_pool_tasks_run",
             static_cast<double>(exec::TaskPool::totalTasksRun())},
            {"task_pool_batches_run",
             static_cast<double>(exec::TaskPool::totalBatchesRun())},
            {"task_pool_default_jobs",
             static_cast<double>(exec::TaskPool::defaultJobs())},
            {"supervisor_timeouts",
             static_cast<double>(exec::TaskPool::totalTimeouts())},
            {"supervisor_deadline_cancels",
             static_cast<double>(
                 exec::TaskPool::totalDeadlineCancels())},
            {"supervisor_failures",
             static_cast<double>(exec::TaskPool::totalFailures())},
            // One result store serves the memo spill and the resume
            // manifest, so each pair of names reads one counter.
            {"checkpoint_entries_resumed",
             static_cast<double>(
                 exec::ResultStore::totalEntriesLoaded())},
            {"checkpoint_flushes",
             static_cast<double>(exec::ResultStore::totalSaves())},
            {"checkpoint_load_rejects",
             static_cast<double>(
                 exec::ResultStore::totalLoadRejects())},
            {"run_cache_spill_saves",
             static_cast<double>(exec::ResultStore::totalSaves())},
            {"run_cache_spill_save_failures",
             static_cast<double>(
                 exec::ResultStore::totalSaveFailures())},
            {"run_cache_spill_load_rejects",
             static_cast<double>(
                 exec::ResultStore::totalLoadRejects())},
        });
    doc += "\n],\"derived\":{";
    first = true;
    for (const auto& [name, value] : derived) {
        if (!first)
            doc += ',';
        first = false;
        json::appendEscaped(doc, name);
        doc += ":";
        appendDouble(doc, value);
    }
    doc += "}}\n";
    out << doc;
}

} // namespace jsmt::trace
