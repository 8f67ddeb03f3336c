/**
 * @file
 * Metrics registry and machine collector.
 *
 * MetricsRegistry is a generic store of named metrics — monotonic
 * counters, point-in-time gauges and fixed-bucket histograms — each
 * labelled with the module it belongs to (core, mem, branch, os,
 * exec) and, where applicable, the logical CPU. snapshot() appends
 * an interval row (counter deltas since the previous snapshot plus
 * current gauge values); toJson() exports the whole registry as one
 * JSON document: metric catalogue, interval snapshots and derived
 * summary figures.
 *
 * MetricsCollector binds a registry to a Machine and knows how to
 * pull the standard observability set the paper's methodology needs:
 * per-context PMU event lines, pipeline-stage occupancy, cache and
 * TLB miss rates, BTB cross-context evictions, scheduler activity
 * and the parallel-engine counters (result-store hit ratio, TaskPool
 * work counts). Collection is pull-based and happens only at sample
 * edges and run end, so it costs nothing on the simulator hot path.
 */

#ifndef JSMT_TRACE_METRICS_H
#define JSMT_TRACE_METRICS_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <string>
#include <vector>

#include "common/types.h"
#include "pmu/events.h"

namespace jsmt {
class Machine;
}

namespace jsmt::trace {

/** What a metric measures. */
enum class MetricKind { kCounter, kGauge, kHistogram };

/** Catalogue entry of one registered metric. */
struct MetricDef
{
    std::string module;  ///< "core", "mem", "branch", "os", "exec".
    std::string name;    ///< e.g. "l1d_miss".
    std::string context; ///< "lcpu0", "lcpu1" or "" (machine-wide).
    MetricKind kind = MetricKind::kCounter;
};

/** One interval row captured by snapshot(). */
struct MetricsSnapshot
{
    Cycle cycle = 0;
    /** Counter deltas since the previous snapshot, by counter id. */
    std::vector<std::uint64_t> counterDeltas;
    /** Gauge values at the snapshot instant, by gauge id. */
    std::vector<double> gaugeValues;
};

/**
 * The registry. Metric ids are dense per kind (counter ids index
 * counterDeltas, gauge ids index gaugeValues). Not thread-safe; one
 * registry per measured run.
 */
class MetricsRegistry
{
  public:
    /** Register a counter; @return its counter id. */
    std::size_t addCounter(std::string module, std::string name,
                           std::string context = "");
    /** Register a gauge; @return its gauge id. */
    std::size_t addGauge(std::string module, std::string name,
                         std::string context = "");
    /** Register a histogram of @p buckets; @return its id. */
    std::size_t addHistogram(std::string module, std::string name,
                             std::size_t buckets);

    /**
     * Feed a counter its current absolute total (monotonic source,
     * e.g. a raw PMU accumulator). The first value a counter sees
     * becomes its baseline, so totals and snapshot deltas measure
     * only what happened after registration.
     */
    void setCounter(std::size_t id, std::uint64_t absolute_total);

    /** Set a gauge's current value. */
    void setGauge(std::size_t id, double value);

    /** Add one observation to histogram bucket @p bucket. */
    void observe(std::size_t id, std::size_t bucket);

    /** Overwrite a histogram bucket with an absolute count. */
    void setHistogramBucket(std::size_t id, std::size_t bucket,
                            std::uint64_t count);

    /** Append an interval row at simulated cycle @p now. */
    void snapshot(Cycle now);

    /** @return counter's total since its baseline. */
    std::uint64_t counterTotal(std::size_t id) const;

    /** @return gauge's current value. */
    double gaugeValue(std::size_t id) const;

    /** @return all interval rows so far. */
    const std::vector<MetricsSnapshot>& snapshots() const
    {
        return _snapshots;
    }

    /** @return number of registered counters. */
    std::size_t numCounters() const { return _counters.size(); }

    /** @return catalogue entry of counter @p id. */
    const MetricDef& counterDef(std::size_t id) const;

    /**
     * Export everything as one JSON document. @p derived appends
     * extra precomputed summary figures (name -> value).
     */
    std::string toJson(
        const std::vector<std::pair<std::string, double>>& derived =
            {}) const;

  private:
    struct CounterState
    {
        MetricDef def;
        bool initialized = false;
        std::uint64_t base = 0;
        std::uint64_t current = 0;
        std::uint64_t lastSnapshot = 0;
    };
    struct GaugeState
    {
        MetricDef def;
        double value = 0.0;
    };
    struct HistogramState
    {
        MetricDef def;
        std::vector<std::uint64_t> buckets;
    };

    std::vector<CounterState> _counters;
    std::vector<GaugeState> _gauges;
    std::vector<HistogramState> _histograms;
    std::vector<MetricsSnapshot> _snapshots;
};

/**
 * Pulls the standard machine observability set into a registry.
 *
 * Construct after the workload is set up and immediately before
 * run(): construction baselines every counter, so totals equal the
 * run's RunResult deltas. Call collect() at each sample edge (wire
 * it into Simulation::RunOptions::onSample) and finish() once after
 * the run.
 */
class MetricsCollector
{
  public:
    explicit MetricsCollector(Machine& machine);

    /** Update all metrics and append an interval snapshot. */
    void collect(Cycle now);

    /** Final update + snapshot (call once, after the run). */
    void finish(Cycle now) { collect(now); }

    /** @return the PMU events mirrored as per-context counters. */
    static const std::vector<EventId>& trackedEvents();

    /** @return counter id of @p event on @p ctx. */
    std::size_t counterIdOf(EventId event, ContextId ctx) const;

    /** @return the underlying registry. */
    MetricsRegistry& registry() { return _registry; }
    const MetricsRegistry& registry() const { return _registry; }

    /** Write the JSON document (registry + derived figures). */
    void writeJson(std::ostream& out) const;

  private:
    void update();

    Machine& _machine;
    MetricsRegistry _registry;
    /** counter ids: [event index][ctx]. */
    std::vector<std::array<std::size_t, kNumContexts>> _eventIds;

    // Structure-level counters.
    std::size_t _btbCrossEvictions = 0;
    std::size_t _tcEvictions = 0;
    std::size_t _tcCrossEvictions = 0;
    std::size_t _l1dEvictions = 0;
    std::size_t _l2Evictions = 0;
    std::size_t _schedMigrations = 0;
    std::size_t _ffCycles = 0;

    // Gauges.
    std::array<std::size_t, kNumContexts> _robOcc{};
    std::array<std::size_t, kNumContexts> _ldqOcc{};
    std::array<std::size_t, kNumContexts> _stqOcc{};
    std::size_t _runQueueDepth = 0;
    std::size_t _tcOccupancy = 0;
    std::size_t _l1dOccupancy = 0;
    std::size_t _l2Occupancy = 0;

    // Histograms.
    std::size_t _retireHistogram = 0;
    std::size_t _robHistogram = 0;
};

} // namespace jsmt::trace

#endif // JSMT_TRACE_METRICS_H
