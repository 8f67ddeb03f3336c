/**
 * @file
 * The counter series behind --sample-interval and --metrics.
 *
 * CounterSeries reads one row of a Machine at a time: the cycle,
 * Pmu::counts(), seven structure counters (cache and BTB evictions,
 * scheduler migrations, fast-forwarded cycles) and ten gauges
 * (ROB/LDQ/STQ occupancy per logical CPU, run-queue depth, cache
 * occupancy). It reads a baseline row at construction; its owner
 * records one row at each sample edge and one after the run, so
 * every counter figure is a difference of two rows: jsmt_run's
 * --sample-interval table is the countsDelta() of consecutive rows,
 * and writeMetricsJson() renders the --metrics document from the
 * same rows. Rows are read only at sample edges and run end, so the
 * series costs nothing on the simulator hot path.
 */

#ifndef JSMT_TRACE_METRICS_H
#define JSMT_TRACE_METRICS_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.h"
#include "pmu/pmu.h"

namespace jsmt {
class Machine;
}

namespace jsmt::trace {

/** Structure counters of a SeriesRow (monotonic totals). */
constexpr std::size_t kSeriesCounters = 7;
/** Gauges of a SeriesRow (values at the reading instant). */
constexpr std::size_t kSeriesGauges = 10;

/** One reading of the probed machine. */
struct SeriesRow
{
    Cycle cycle = 0;
    EventCounts counts{};
    std::array<std::uint64_t, kSeriesCounters> counters{};
    std::array<double, kSeriesGauges> gauges{};
};

/** A chip's allocation activity, exported as the alloc counters. */
struct AllocTotals
{
    std::uint64_t epochs = 0;
    std::uint64_t migrations = 0;
    std::uint64_t steals = 0;
};

/**
 * The recorded series of one machine. Construct it after the
 * workload is set up and immediately before run(), so the baseline
 * row lines up with the RunResult's own PMU snapshot; call record()
 * at each sample edge (Simulation::RunOptions::onSample) and once
 * after the run.
 */
class CounterSeries
{
  public:
    /** Read the baseline row of @p machine at cycle @p now. */
    CounterSeries(Machine& machine, Cycle now);

    /** Append the row of cycle @p now. */
    void record(Cycle now);

    /** @return every row, the baseline first. */
    const std::vector<SeriesRow>& rows() const { return _rows; }

    /** @return the PMU events --metrics exports per context. */
    static const std::vector<EventId>& trackedEvents();

  private:
    Machine& _machine;
    std::vector<SeriesRow> _rows;
};

/**
 * Write the --metrics document (schema version 1): the catalogue
 * with each counter's run total, the gauges and two histograms; one
 * snapshot per row after the baseline, holding counter deltas from
 * the row before and the row's gauges; and derived figures. A null
 * @p series (a batch mode, which probes no one machine) writes only
 * the exec and result-store figures. A non-null @p alloc adds the
 * alloc counters, whose totals join the last snapshot.
 */
void writeMetricsJson(std::ostream& out, const CounterSeries* series,
                      const AllocTotals* alloc);

} // namespace jsmt::trace

#endif // JSMT_TRACE_METRICS_H
