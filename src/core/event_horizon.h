/**
 * @file
 * Next-event horizon engine for the simulation driver.
 *
 * Aggregates the next-event cycles of every simulator clock — the OS
 * scheduler (pending dispatches, quantum expiries), the SMT core
 * (ROB-head completions, fetch gates, window-resource frees, all via
 * the fused CoreBounds), the memory system and JVM helpers (both
 * event-driven; see their nextEventCycle() docs), and the driver's
 * own sampling/cancellation lattices — and decides how far the clock
 * may jump in one step. See DESIGN.md §9 for the contract:
 * components may only *shrink* a published horizon by bumping the
 * scheduler state epoch (directly or via SoftwareThread::setState);
 * within one epoch a cached horizon is exact.
 *
 * The scheduler horizon is the piece worth caching: it is
 * now-independent (0 / next quantum expiry / kNoCycle) and changes
 * only on an epoch bump, so the driver consults the cache instead of
 * calling Scheduler::tick() every cycle — ticks run only on cycles
 * where they provably act. The sampling, cancellation and maxCycles
 * edges fold into one precomputed jump cap so the skip decision in
 * the hot loop is a single min against the core/scheduler bound.
 */

#ifndef JSMT_CORE_EVENT_HORIZON_H
#define JSMT_CORE_EVENT_HORIZON_H

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "os/scheduler.h"

namespace jsmt {

/**
 * Composite next-event horizon of one Simulation::run() call.
 */
class EventHorizon
{
  public:
    /**
     * @param scheduler the machine's scheduler (horizon cached
     *        against its state epoch).
     * @param end first cycle past the run (start + maxCycles).
     * @param sample_interval onSample spacing (0 disables).
     * @param first_sample first sample edge (kNoCycle disables).
     * @param cancel_interval cancellation-check spacing.
     * @param first_cancel first cancellation edge (kNoCycle
     *        disables).
     */
    EventHorizon(const Scheduler& scheduler, Cycle end,
                 Cycle sample_interval, Cycle first_sample,
                 Cycle cancel_interval, Cycle first_cancel);

    /** @return first cycle past the run (maxCycles exhausted). */
    Cycle end() const { return _end; }

    /**
     * Fold a component's published next-event cycle (memory system,
     * JVM process) into the jump cap. All current components are
     * event-driven and publish kNoCycle; folding them here keeps the
     * aggregation honest if one ever grows a real clock.
     */
    void
    observeComponent(Cycle next)
    {
        if (next < _componentFloor) {
            _componentFloor = next;
            recomputeCap();
        }
    }

    /**
     * Whether Scheduler::tick(now) could act at @p now. Refreshes
     * the cached scheduler horizon only when the state epoch moved;
     * on the vast majority of cycles this is one load and one
     * compare, replacing the unconditional per-cycle tick() call.
     */
    bool
    schedulerDue(Cycle now)
    {
        refreshScheduler();
        return _schedEvent <= now;
    }

    /** Recompute the scheduler horizon after a tick() ran. */
    void
    noteTicked()
    {
        _schedEpoch = _scheduler.stateEpoch();
        _schedEvent = _scheduler.nextEventCycle();
    }

    /**
     * The scheduler's stall bound at @p now — identical to
     * Scheduler::stallBound(now), served from the epoch-validated
     * cache.
     */
    Cycle
    schedulerBound(Cycle now)
    {
        refreshScheduler();
        return _schedEvent > now ? _schedEvent : now;
    }

    /** @return the earlier of sampleEdge() and cancelEdge(). */
    Cycle nextEdge() const { return _nextEdge; }

    /** @return the cycle edge at which onSample fires next. */
    Cycle sampleEdge() const { return _nextSample; }

    /** Advance past a fired sample edge. */
    void
    advanceSample()
    {
        _nextSample += _sampleInterval;
        recomputeCap();
    }

    /** @return the cycle edge of the next cancellation check. */
    Cycle cancelEdge() const { return _nextCancel; }

    /** Advance past a fired cancellation check. */
    void
    advanceCancel()
    {
        _nextCancel += _cancelInterval;
        recomputeCap();
    }

    /**
     * Latest admissible jump target: one short of the next sample
     * and cancellation edges (so both fire on the exact clock edge
     * the cycle-by-cycle path would produce), capped by maxCycles
     * and by every observed component horizon. The caller min()s
     * this against the core/scheduler stall bound.
     */
    Cycle jumpCap() const { return _cap; }

  private:
    void
    refreshScheduler()
    {
        const std::uint64_t epoch = _scheduler.stateEpoch();
        if (epoch != _schedEpoch) {
            _schedEpoch = epoch;
            _schedEvent = _scheduler.nextEventCycle();
        }
    }

    void
    recomputeCap()
    {
        // The -1 edges never underflow: disabled lattices sit at
        // kNoCycle and active ones are strictly future cycles.
        _cap = std::min(
            {_end, _nextSample - 1, _nextCancel - 1,
             _componentFloor});
        _nextEdge = std::min(_nextSample, _nextCancel);
    }

    const Scheduler& _scheduler;
    const Cycle _end;
    const Cycle _sampleInterval;
    const Cycle _cancelInterval;
    Cycle _nextSample;
    Cycle _nextCancel;
    Cycle _componentFloor = kNoCycle;
    Cycle _cap = 0;
    Cycle _nextEdge = 0;
    std::uint64_t _schedEpoch;
    Cycle _schedEvent = 0;
};

} // namespace jsmt

#endif // JSMT_CORE_EVENT_HORIZON_H
