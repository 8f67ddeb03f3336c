/**
 * @file
 * The OS-visible thread abstraction.
 *
 * The scheduler multiplexes SoftwareThreads onto hardware contexts;
 * the SMT core pulls fetch bundles from whichever thread is active on
 * a context. Concrete workloads (Java application threads, the
 * garbage collector) subclass this in the jvm module.
 *
 * The base class also owns the per-thread dependence ring the core
 * uses to resolve µop register dependences: dependence distances in
 * a µop refer to program order within its software thread, which
 * survives migrations between hardware contexts.
 */

#ifndef JSMT_OS_SOFTWARE_THREAD_H
#define JSMT_OS_SOFTWARE_THREAD_H

#include <array>
#include <cstdint>

#include "common/types.h"
#include "common/uop.h"

namespace jsmt {

/** Lifecycle state of a software thread. */
enum class ThreadState {
    kRunnable, ///< Ready to run (queued or on a context).
    kBlocked,  ///< Waiting (barrier, monitor, GC, dormant collector).
    kDone,     ///< Will produce no more µops.
};

/**
 * Front-end state of a thread: the trace line currently being
 * consumed plus fetch gating timestamps. This state belongs to the
 * *thread*, not the hardware context, so a partially consumed line
 * survives preemption and migration — every generated µop is
 * eventually allocated and retired, which the completion accounting
 * relies on.
 */
struct ThreadFrontEnd
{
    FetchBundle bundle;
    std::uint8_t pos = 0;
    bool valid = false;
    /** µops of the current line deliverable at this cycle
     * (trace-cache fill latency). */
    Cycle bundleReadyAt = 0;
    /** Next line fetchable at this cycle (branch redirect/bubble). */
    Cycle nextFetchAt = 0;
};

/**
 * A schedulable instruction-producing entity.
 */
class SoftwareThread
{
  public:
    /** Capacity of the dependence ring (max dependence distance). */
    static constexpr std::uint32_t kRingSize = 128;

    SoftwareThread(ThreadId id, Asid asid);
    virtual ~SoftwareThread() = default;

    SoftwareThread(const SoftwareThread&) = delete;
    SoftwareThread& operator=(const SoftwareThread&) = delete;

    /**
     * Produce the next fetch bundle.
     *
     * May change the thread's state as a side effect (e.g. a thread
     * discovers a barrier and blocks).
     *
     * @retval true a bundle was produced.
     * @retval false no bundle: the thread just blocked or finished.
     */
    virtual bool nextBundle(Cycle now, FetchBundle& bundle) = 0;

    /**
     * Notification that one of this thread's µops retired. Used for
     * completion accounting. Non-virtual on purpose: retirement is
     * the hottest per-µop callback in the simulator, and for most
     * threads it is a single counter increment. Subclasses needing
     * per-µop work (GC attribution, drain detection) raise
     * _retireHook to route retirements through onRetireHook().
     */
    void
    onRetire(const Uop& uop, Cycle now)
    {
        ++_retiredUops;
        if (_retireHook)
            onRetireHook(uop, now);
    }

    /**
     * onRetire() for @p n µops at once. Only threads without a retire
     * hook can take it: @return false, retiring nothing, when the
     * hook is set, so the caller falls back to per-µop onRetire().
     */
    bool
    tryRetireBulk(std::uint64_t n)
    {
        if (_retireHook)
            return false;
        _retiredUops += n;
        return true;
    }

    /** @return OS-visible thread id. */
    ThreadId id() const { return _id; }

    /** @return address space the thread's user code runs in. */
    Asid asid() const { return _asid; }

    /** @return current lifecycle state. */
    ThreadState state() const { return _state; }

    /**
     * Set lifecycle state (used by scheduler and JVM internals).
     *
     * Every transition bumps the scheduler's state epoch through the
     * bound cell (see bindStateEpoch), so the simulation driver's
     * cached scheduler horizon is invalidated at the source of the
     * change. This matters because not every transition flows
     * through a scheduler call: a stop-the-world GC blocks *other*
     * runnable threads directly, and a drained collector is retired
     * to kDone from a µop retire hook (DESIGN.md §9).
     */
    void
    setState(ThreadState state)
    {
        _state = state;
        if (_stateEpochCell != nullptr)
            ++*_stateEpochCell;
    }

    /**
     * Bind the scheduler's state-epoch counter so setState() can
     * invalidate cached scheduler horizons. Installed by
     * Scheduler::addThread (a plain pointer avoids an include cycle
     * with the scheduler header); never unbound — the scheduler
     * outlives the threads it multiplexes.
     */
    void
    bindStateEpoch(std::uint64_t* cell)
    {
        _stateEpochCell = cell;
    }

    /**
     * Enqueue kernel-mode work (syscall body, scheduler path, timer
     * tick) that the thread must execute before any further user
     * µops.
     */
    void
    addKernelWork(std::uint64_t uops)
    {
        _pendingKernelUops += uops;
    }

    /** @return outstanding kernel-mode µops. */
    std::uint64_t pendingKernelUops() const
    {
        return _pendingKernelUops;
    }

    /** @name Dependence ring (used by the core). */
    ///@{
    /** Sequence number the next generated µop will get. */
    std::uint64_t
    allocSeq()
    {
        return _seq++;
    }

    /** Record the completion cycle of µop @p seq. */
    void
    recordCompletion(std::uint64_t seq, Cycle completion)
    {
        _ring[seq % kRingSize] = completion;
    }

    /**
     * Completion cycle of the µop @p dist before @p seq; 0 when the
     * producer is too old to matter (already complete).
     */
    Cycle
    producerCompletion(std::uint64_t seq, std::uint32_t dist) const
    {
        if (dist == 0 || dist >= kRingSize || seq < dist)
            return 0;
        return _ring[(seq - dist) % kRingSize];
    }
    ///@}

    /** @return the thread's front-end state (used by the core). */
    ThreadFrontEnd& frontEnd() { return _frontEnd; }

    /** @return µops this thread has retired so far. */
    std::uint64_t retiredUops() const { return _retiredUops; }

    /** @return µops this thread has generated so far. */
    std::uint64_t generatedUops() const { return _generatedUops; }

  protected:
    /** Per-µop retire work for subclasses with _retireHook set. */
    virtual void onRetireHook(const Uop& uop, Cycle now);

    /** Routes onRetire() through onRetireHook() while set. */
    bool _retireHook = false;

    /** Subclasses consume pending kernel work through this. */
    std::uint64_t
    takeKernelWork(std::uint64_t max_uops)
    {
        const std::uint64_t n =
            _pendingKernelUops < max_uops ? _pendingKernelUops
                                          : max_uops;
        _pendingKernelUops -= n;
        return n;
    }

    /** Subclasses account each generated µop. */
    void noteGenerated(std::uint64_t n) { _generatedUops += n; }

    std::uint64_t _retiredUops = 0;

  private:
    ThreadId _id;
    Asid _asid;
    ThreadState _state = ThreadState::kRunnable;
    /** Scheduler state-epoch cell; see bindStateEpoch(). */
    std::uint64_t* _stateEpochCell = nullptr;
    std::uint64_t _pendingKernelUops = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _generatedUops = 0;
    std::array<Cycle, kRingSize> _ring{};
    ThreadFrontEnd _frontEnd;
};

} // namespace jsmt

#endif // JSMT_OS_SOFTWARE_THREAD_H
