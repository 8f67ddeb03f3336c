#include "trace/metrics.h"

#include <cstdio>
#include <ostream>

#include "common/json.h"
#include "common/log.h"
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

} // namespace

// ----------------------------------------------------------------
// MetricsRegistry
// ----------------------------------------------------------------

std::size_t
MetricsRegistry::addCounter(std::string module, std::string name,
                            std::string context)
{
    CounterState state;
    state.def = {std::move(module), std::move(name),
                 std::move(context), MetricKind::kCounter};
    _counters.push_back(std::move(state));
    return _counters.size() - 1;
}

std::size_t
MetricsRegistry::addGauge(std::string module, std::string name,
                          std::string context)
{
    GaugeState state;
    state.def = {std::move(module), std::move(name),
                 std::move(context), MetricKind::kGauge};
    _gauges.push_back(std::move(state));
    return _gauges.size() - 1;
}

std::size_t
MetricsRegistry::addHistogram(std::string module, std::string name,
                              std::size_t buckets)
{
    if (buckets == 0)
        fatal("metrics: histogram needs at least one bucket");
    HistogramState state;
    state.def = {std::move(module), std::move(name), "",
                 MetricKind::kHistogram};
    state.buckets.assign(buckets, 0);
    _histograms.push_back(std::move(state));
    return _histograms.size() - 1;
}

void
MetricsRegistry::setCounter(std::size_t id,
                            std::uint64_t absolute_total)
{
    CounterState& state = _counters.at(id);
    if (!state.initialized) {
        state.initialized = true;
        state.base = absolute_total;
        state.lastSnapshot = absolute_total;
    }
    state.current = absolute_total;
}

void
MetricsRegistry::setGauge(std::size_t id, double value)
{
    _gauges.at(id).value = value;
}

void
MetricsRegistry::observe(std::size_t id, std::size_t bucket)
{
    HistogramState& state = _histograms.at(id);
    const std::size_t capped =
        bucket < state.buckets.size() ? bucket
                                      : state.buckets.size() - 1;
    ++state.buckets[capped];
}

void
MetricsRegistry::setHistogramBucket(std::size_t id,
                                    std::size_t bucket,
                                    std::uint64_t count)
{
    _histograms.at(id).buckets.at(bucket) = count;
}

void
MetricsRegistry::snapshot(Cycle now)
{
    MetricsSnapshot row;
    row.cycle = now;
    row.counterDeltas.reserve(_counters.size());
    for (CounterState& state : _counters) {
        row.counterDeltas.push_back(state.current -
                                    state.lastSnapshot);
        state.lastSnapshot = state.current;
    }
    row.gaugeValues.reserve(_gauges.size());
    for (const GaugeState& state : _gauges)
        row.gaugeValues.push_back(state.value);
    _snapshots.push_back(std::move(row));
}

std::uint64_t
MetricsRegistry::counterTotal(std::size_t id) const
{
    const CounterState& state = _counters.at(id);
    return state.current - state.base;
}

std::string
MetricsRegistry::toJson(
    const std::vector<std::pair<std::string, double>>& derived)
    const
{
    std::string out = "{\"version\":1,\"metrics\":[\n";
    bool first = true;
    const auto emitHeader = [&](const MetricDef& def,
                                const char* kind) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"module\":";
        json::appendEscaped(out, def.module);
        out += ",\"name\":";
        json::appendEscaped(out, def.name);
        if (!def.context.empty()) {
            out += ",\"context\":";
            json::appendEscaped(out, def.context);
        }
        out += ",\"kind\":\"";
        out += kind;
        out += "\"";
    };
    for (const CounterState& state : _counters) {
        emitHeader(state.def, "counter");
        out += ",\"total\":" +
               std::to_string(state.current - state.base) + "}";
    }
    for (const GaugeState& state : _gauges) {
        emitHeader(state.def, "gauge");
        out += ",\"value\":";
        appendDouble(out, state.value);
        out += "}";
    }
    for (const HistogramState& state : _histograms) {
        emitHeader(state.def, "histogram");
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < state.buckets.size(); ++i) {
            if (i > 0)
                out += ',';
            out += std::to_string(state.buckets[i]);
        }
        out += "]}";
    }
    out += "\n],\"snapshots\":[\n";
    first = true;
    for (const MetricsSnapshot& row : _snapshots) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"cycle\":" + std::to_string(row.cycle) +
               ",\"counters\":[";
        for (std::size_t i = 0; i < row.counterDeltas.size(); ++i) {
            if (i > 0)
                out += ',';
            out += std::to_string(row.counterDeltas[i]);
        }
        out += "],\"gauges\":[";
        for (std::size_t i = 0; i < row.gaugeValues.size(); ++i) {
            if (i > 0)
                out += ',';
            appendDouble(out, row.gaugeValues[i]);
        }
        out += "]}";
    }
    out += "\n],\"derived\":{";
    first = true;
    for (const auto& [name, value] : derived) {
        if (!first)
            out += ',';
        first = false;
        json::appendEscaped(out, name);
        out += ":";
        appendDouble(out, value);
    }
    out += "}}\n";
    return out;
}

// ----------------------------------------------------------------
// MetricsCollector
// ----------------------------------------------------------------

const std::vector<EventId>&
MetricsCollector::trackedEvents()
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

MetricsCollector::MetricsCollector(Machine& machine)
    : _machine(machine)
{
    const std::vector<EventId>& events = trackedEvents();
    _eventIds.resize(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            _eventIds[e][ctx] = _registry.addCounter(
                eventModule(events[e]),
                std::string(eventName(events[e])),
                kContextLabels[ctx]);
        }
    }

    _btbCrossEvictions =
        _registry.addCounter("branch", "btb_cross_ctx_evictions");
    _tcEvictions =
        _registry.addCounter("mem", "trace_cache_evictions");
    _tcCrossEvictions =
        _registry.addCounter("mem", "trace_cache_cross_evictions");
    _l1dEvictions = _registry.addCounter("mem", "l1d_evictions");
    _l2Evictions = _registry.addCounter("mem", "l2_evictions");
    _schedMigrations = _registry.addCounter("os", "migrations");
    _ffCycles = _registry.addCounter("core", "fast_forward_cycles");

    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        _robOcc[ctx] = _registry.addGauge("core", "rob_occupancy",
                                          kContextLabels[ctx]);
        _ldqOcc[ctx] = _registry.addGauge("core", "ldq_occupancy",
                                          kContextLabels[ctx]);
        _stqOcc[ctx] = _registry.addGauge("core", "stq_occupancy",
                                          kContextLabels[ctx]);
    }
    _runQueueDepth = _registry.addGauge("os", "run_queue_depth");
    _tcOccupancy =
        _registry.addGauge("mem", "trace_cache_occupancy");
    _l1dOccupancy = _registry.addGauge("mem", "l1d_occupancy");
    _l2Occupancy = _registry.addGauge("mem", "l2_occupancy");

    _retireHistogram =
        _registry.addHistogram("core", "retire_width", 4);
    _robHistogram =
        _registry.addHistogram("core", "rob_occupancy_sampled", 8);

    update(); // Baseline every counter at construction time.
}

std::size_t
MetricsCollector::counterIdOf(EventId event, ContextId ctx) const
{
    const std::vector<EventId>& events = trackedEvents();
    for (std::size_t e = 0; e < events.size(); ++e) {
        if (events[e] == event)
            return _eventIds[e][ctx];
    }
    fatal("metrics: event '" + std::string(eventName(event)) +
          "' is not tracked");
}

void
MetricsCollector::update()
{
    const Pmu& pmu = _machine.pmu();
    const std::vector<EventId>& events = trackedEvents();
    for (std::size_t e = 0; e < events.size(); ++e) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            _registry.setCounter(_eventIds[e][ctx],
                                 pmu.raw(events[e], ctx));
        }
    }

    const Btb& btb = _machine.branch().btb();
    _registry.setCounter(_btbCrossEvictions,
                         btb.crossAsidEvictions());
    const MemorySystem& mem = _machine.mem();
    _registry.setCounter(_tcEvictions,
                         mem.traceCache().evictions());
    _registry.setCounter(_tcCrossEvictions,
                         mem.traceCache().crossAsidEvictions());
    _registry.setCounter(_l1dEvictions, mem.l1d().evictions());
    _registry.setCounter(_l2Evictions, mem.l2().evictions());
    _registry.setCounter(_schedMigrations,
                         _machine.scheduler().migrations());

    SmtCore& core = _machine.core();
    _registry.setCounter(_ffCycles, core.fastForwardedCycles());
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        _registry.setGauge(
            _robOcc[ctx],
            static_cast<double>(core.robOccupancy(ctx)));
        _registry.setGauge(
            _ldqOcc[ctx],
            static_cast<double>(core.ldqOccupancy(ctx)));
        _registry.setGauge(
            _stqOcc[ctx],
            static_cast<double>(core.stqOccupancy(ctx)));
    }
    _registry.setGauge(
        _runQueueDepth,
        static_cast<double>(_machine.scheduler().runQueueDepth()));

    const auto occupancyFrac = [](const Cache& cache) {
        const std::uint64_t lines =
            static_cast<std::uint64_t>(cache.numSets()) *
            cache.ways();
        return ratioOf(cache.validLines(), lines);
    };
    _registry.setGauge(_tcOccupancy,
                       occupancyFrac(mem.traceCache()));
    _registry.setGauge(_l1dOccupancy, occupancyFrac(mem.l1d()));
    _registry.setGauge(_l2Occupancy, occupancyFrac(mem.l2()));

    static constexpr EventId kRetireBins[4] = {
        EventId::kRetire0, EventId::kRetire1, EventId::kRetire2,
        EventId::kRetire3};
    for (std::size_t b = 0; b < 4; ++b) {
        _registry.setHistogramBucket(
            _retireHistogram, b,
            _machine.pmu().rawTotal(kRetireBins[b]));
    }
    std::uint32_t rob_total = 0;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx)
        rob_total += core.robOccupancy(ctx);
    _registry.observe(_robHistogram, rob_total / 16);
}

void
MetricsCollector::collect(Cycle now)
{
    update();
    _registry.snapshot(now);
}

void
MetricsCollector::writeJson(std::ostream& out) const
{
    const Pmu& pmu = _machine.pmu();
    const std::uint64_t instr =
        pmu.rawTotal(EventId::kInstrRetired);
    const std::uint64_t cycles = pmu.rawTotal(EventId::kCycles);
    const auto mpki = [&](EventId event) {
        return instr > 0 ? 1000.0 *
                               static_cast<double>(
                                   pmu.rawTotal(event)) /
                               static_cast<double>(instr)
                         : 0.0;
    };
    std::vector<std::pair<std::string, double>> derived = {
        {"ipc", ratioOf(pmu.rawTotal(EventId::kUopsRetired),
                        cycles)},
        // Share of simulated cycles the event-horizon engine
        // fast-forwarded instead of simulating (DESIGN.md §9).
        {"horizon_skip_pct",
         100.0 * ratioOf(_machine.core().fastForwardedCycles(),
                         cycles)},
        {"trace_cache_mpki", mpki(EventId::kTraceCacheMiss)},
        {"l1d_mpki", mpki(EventId::kL1dMiss)},
        {"l2_mpki", mpki(EventId::kL2Miss)},
        {"itlb_mpki", mpki(EventId::kItlbMiss)},
        {"btb_miss_ratio",
         ratioOf(pmu.rawTotal(EventId::kBtbMiss),
                 pmu.rawTotal(EventId::kBtbAccess))},
        {"run_cache_hit_ratio",
         ratioOf(exec::ResultStore::global().hits(),
                 exec::ResultStore::global().hits() +
                     exec::ResultStore::global().misses())},
        {"task_pool_tasks_run",
         static_cast<double>(exec::TaskPool::totalTasksRun())},
        {"task_pool_batches_run",
         static_cast<double>(exec::TaskPool::totalBatchesRun())},
        {"task_pool_default_jobs",
         static_cast<double>(exec::TaskPool::defaultJobs())},
        {"supervisor_timeouts",
         static_cast<double>(exec::TaskPool::totalTimeouts())},
        {"supervisor_deadline_cancels",
         static_cast<double>(exec::TaskPool::totalDeadlineCancels())},
        {"supervisor_failures",
         static_cast<double>(exec::TaskPool::totalFailures())},
        // One result store serves the memo spill and the resume
        // manifest, so each pair of names reads one counter.
        {"checkpoint_entries_resumed",
         static_cast<double>(exec::ResultStore::totalEntriesLoaded())},
        {"checkpoint_flushes",
         static_cast<double>(exec::ResultStore::totalSaves())},
        {"checkpoint_load_rejects",
         static_cast<double>(exec::ResultStore::totalLoadRejects())},
        {"run_cache_spill_saves",
         static_cast<double>(exec::ResultStore::totalSaves())},
        {"run_cache_spill_save_failures",
         static_cast<double>(exec::ResultStore::totalSaveFailures())},
        {"run_cache_spill_load_rejects",
         static_cast<double>(exec::ResultStore::totalLoadRejects())},
    };
    out << _registry.toJson(derived);
}

} // namespace jsmt::trace
