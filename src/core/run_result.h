/**
 * @file
 * Results of a simulation run: per-process completion data plus a
 * delta snapshot of every PMU event over the run.
 */

#ifndef JSMT_CORE_RUN_RESULT_H
#define JSMT_CORE_RUN_RESULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "pmu/pmu.h"

namespace jsmt {

/** Completion record of one process. */
struct ProcessResult
{
    ProcessId pid = 0;
    std::string benchmark;
    bool complete = false;
    Cycle launchCycle = 0;
    Cycle completionCycle = 0;
    /** Execution time in cycles (0 if incomplete). */
    Cycle durationCycles = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t allocatedBytes = 0;
};

/**
 * Outcome of one Simulation::run() call.
 */
struct RunResult
{
    /** Cycles simulated by this run() call. */
    Cycle cycles = 0;
    /** Whether every process had completed when run() returned. */
    bool allComplete = false;
    /**
     * Whether the run was stopped by a cancellation token (deadline
     * or external cancel). A cancelled result is partial and must
     * not be cached — it is never serialized to the spill or
     * checkpoint wire format.
     */
    bool cancelled = false;
    std::vector<ProcessResult> processes;

    /** Event deltas per logical CPU over the run. */
    EventCounts events{};

    /** @return event count on one logical CPU. */
    std::uint64_t
    event(EventId id, ContextId ctx) const
    {
        return events[ctx][static_cast<std::size_t>(id)];
    }

    /** @return event count summed over both logical CPUs. */
    std::uint64_t
    total(EventId id) const
    {
        std::uint64_t sum = 0;
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx)
            sum += event(id, ctx);
        return sum;
    }

    /** @return retired instructions per cycle. */
    double ipc() const;

    /** @return cycles per retired instruction. */
    double cpi() const;

    /** @return occurrences of @p id per 1000 retired instructions. */
    double perKiloInstr(EventId id) const;

    /** @return ratio of @p num to @p den totals (0 if den is 0). */
    double ratio(EventId num, EventId den) const;

    /** @return fraction of cycles both logical CPUs were active. */
    double dualThreadFraction() const;

    /** @return fraction of busy cycles spent in kernel mode. */
    double osCycleFraction() const;
};

} // namespace jsmt

#endif // JSMT_CORE_RUN_RESULT_H
