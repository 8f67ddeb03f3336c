/**
 * @file
 * Operating-system scheduler model.
 *
 * Models the relevant behaviour of the paper's RedHat Linux 9 in
 * single-user mode: a round-robin run queue multiplexing software
 * threads onto one (HT off) or two (HT on) logical CPUs, timer-driven
 * preemption, and kernel-mode work charged for every tick and context
 * switch. The quantum is scaled down with the synthetic benchmark
 * lengths so scheduling happens at the same per-instruction rate as
 * on the real machine (see DESIGN.md).
 */

#ifndef JSMT_OS_SCHEDULER_H
#define JSMT_OS_SCHEDULER_H

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/types.h"
#include "os/software_thread.h"
#include "pmu/pmu.h"
#include "trace/trace_sink.h"

namespace jsmt {

/** Operating-system model parameters. */
struct OsConfig
{
    /** Scheduling quantum in cycles (scaled; see DESIGN.md). */
    Cycle quantumCycles = 60'000;
    /** Kernel µops charged to the incoming thread per dispatch. */
    std::uint32_t contextSwitchUops = 350;
    /** Kernel µops charged per timer tick. */
    std::uint32_t timerTickUops = 40;
};

/**
 * Round-robin scheduler over the machine's hardware contexts.
 *
 * The core reads the active thread per context each cycle; blocking
 * and completion are discovered lazily on the next tick, costing one
 * cycle of latency, which is far below the modelled kernel overheads.
 */
class Scheduler
{
  public:
    Scheduler(const OsConfig& config, Pmu& pmu);

    /** Use 1 (HT disabled) or 2 (HT enabled) logical CPUs. */
    void setNumContexts(std::uint32_t n);

    /** @return number of logical CPUs in use. */
    std::uint32_t numContexts() const { return _numContexts; }

    /** Admit a thread; queued immediately if runnable. */
    void addThread(SoftwareThread* thread);

    /**
     * Evict a thread from this scheduler: removed from the run
     * queue, descheduled from any context it occupies, and dropped
     * from the affinity map. Used by the allocation layer to migrate
     * a thread to another core's scheduler (the thread keeps its
     * front-end state; the caller drains its in-flight µops out of
     * this core first). The caller re-admits it elsewhere via
     * addThread, which rebinds the state-epoch cell.
     */
    void removeThread(SoftwareThread* thread);

    /** Move a blocked thread to the run queue. */
    void wake(SoftwareThread* thread);

    /** Per-cycle scheduling: deschedule, dispatch, preempt. */
    void tick(Cycle now);

    /** @return thread currently on context @p ctx (may be null). */
    SoftwareThread*
    active(ContextId ctx) const
    {
        return _current[ctx];
    }

    /** @return number of threads waiting in the run queue. */
    std::size_t runQueueDepth() const { return _runQueue.size(); }

    /**
     * @return the run queue contents in dispatch order (invariant
     * checks and tests; not used on the simulation hot path).
     */
    std::vector<SoftwareThread*> runQueueSnapshot() const;

    /**
     * The scheduler's next-event horizon, independent of the current
     * cycle: 0 when a tick at any cycle would already act (a lazy
     * deschedule or a dispatch is pending), otherwise the earliest
     * quantum expiry of a running thread, or kNoCycle when nothing
     * is scheduled. Valid until stateEpoch() changes, so the
     * simulation driver caches it and skips the per-cycle tick()
     * call entirely between events (DESIGN.md §9). May only shrink
     * on an epoch bump; within one epoch it is exact, not merely a
     * bound.
     */
    Cycle nextEventCycle() const;

    /**
     * Monotonic counter bumped on every observable scheduler
     * mutation: thread state transitions (via the cell bound in
     * addThread), dispatches, lazy deschedules, quantum renewals,
     * admissions, context-count changes and reset(). A cached
     * nextEventCycle() result is valid exactly while this value is
     * unchanged.
     */
    std::uint64_t stateEpoch() const { return _stateEpoch; }

    /** Remove all threads (between harness runs). */
    void reset();

    /** @return OS configuration. */
    const OsConfig& config() const { return _config; }

    /**
     * @return dispatches that moved a thread to a different logical
     * CPU than it last ran on (cache/TLB affinity loss).
     */
    std::uint64_t migrations() const { return _migrations; }

    /** Attach (or detach, with nullptr) an event tracer. */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        _trace = sink;
    }

  private:
    void dispatch(ContextId ctx, Cycle now);

    OsConfig _config;
    Pmu& _pmu;
    trace::TraceSink* _trace = nullptr;
    std::uint32_t _numContexts = kNumContexts;
    std::deque<SoftwareThread*> _runQueue;
    std::array<SoftwareThread*, kNumContexts> _current{};
    std::array<Cycle, kNumContexts> _quantumEnd{};
    /** See stateEpoch(); also bumped by bound SoftwareThreads. */
    std::uint64_t _stateEpoch = 0;
    std::uint64_t _migrations = 0;
    /** Logical CPU each thread last ran on (migration detection). */
    std::map<const SoftwareThread*, ContextId> _lastContext;
};

} // namespace jsmt

#endif // JSMT_OS_SCHEDULER_H
