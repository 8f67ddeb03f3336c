/**
 * @file
 * Performance-monitoring unit modelled on the Pentium 4 PMU.
 *
 * The simulated machine drives one "event line" per EventId and
 * logical CPU, and the PMU accumulates every line, always (the
 * event detectors). Every counter reading is a delta of two
 * snapshots of those lines: a run's RunResult, each --sample-interval
 * row of jsmt_run. This replaces the Pentium 4's 18 programmable
 * counters and their logical-CPU qualification, which on a simulator
 * select nothing the raw lines do not already hold.
 */

#ifndef JSMT_PMU_PMU_H
#define JSMT_PMU_PMU_H

#include <array>
#include <cstdint>

#include "common/types.h"
#include "pmu/events.h"

namespace jsmt {

/** Count of every event line, per logical CPU. */
using EventCounts =
    std::array<std::array<std::uint64_t, kNumEventIds>, kNumContexts>;

/** @return @p later minus @p earlier, line by line. */
inline EventCounts
countsDelta(const EventCounts& later, const EventCounts& earlier)
{
    EventCounts delta;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e)
            delta[ctx][e] = later[ctx][e] - earlier[ctx][e];
    }
    return delta;
}

/** The performance-monitoring unit: one accumulator per event line. */
class Pmu
{
  public:
    /**
     * Publish @p n occurrences of @p event on logical CPU @p ctx.
     * Hot path: kept inline and branch-free.
     */
    void
    record(EventId event, ContextId ctx, std::uint64_t n = 1)
    {
        _raw[ctx][static_cast<std::size_t>(event)] += n;
    }

    /**
     * Publish @p n occurrences of @p event at once, on behalf of a
     * window of cycles that was fast-forwarded rather than simulated
     * one by one (see Simulation::RunOptions::fastForward). The raw
     * accumulators end up exactly as if record() had been called
     * once per skipped cycle.
     */
    void
    recordBulk(EventId event, ContextId ctx, std::uint64_t n)
    {
        if (n > 0)
            _raw[ctx][static_cast<std::size_t>(event)] += n;
    }

    /** @return raw accumulated count of @p event on @p ctx. */
    std::uint64_t
    raw(EventId event, ContextId ctx) const
    {
        return _raw[ctx][static_cast<std::size_t>(event)];
    }

    /** @return raw count summed over both logical CPUs. */
    std::uint64_t
    rawTotal(EventId event) const
    {
        std::uint64_t sum = 0;
        for (ContextId c = 0; c < kNumContexts; ++c)
            sum += raw(event, c);
        return sum;
    }

    /** @return a snapshot of every event line; see countsDelta(). */
    EventCounts counts() const { return _raw; }

  private:
    EventCounts _raw{};
};

} // namespace jsmt

#endif // JSMT_PMU_PMU_H
