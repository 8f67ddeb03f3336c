/**
 * @file
 * Cycle-level model of a two-context SMT (Hyper-Threading) core.
 *
 * The pipeline is modelled in three coupled stages per cycle:
 *
 *  1. Retire: in-order per context, up to retireWidth µops total per
 *     cycle with alternating context preference (as on the P4). The
 *     per-cycle retirement histogram behind the paper's Figure 2 is
 *     collected here.
 *  2. Fetch+allocate: one context per cycle (alternating; an idle or
 *     stalled context donates its slots). Trace lines are fetched
 *     through the memory system; branches consult the predictor/BTB;
 *     µops enter the ROB and load/store buffers, which are statically
 *     halved per context when Hyper-Threading is on.
 *  3. Execution is latency-resolved at allocation: each µop's
 *     completion cycle is computed from its register dependence
 *     (per-thread dependence ring), a shared issue-bandwidth
 *     constraint, its unit latency, and — for loads — a full cache
 *     hierarchy walk. Retirement then enforces program order, so
 *     head-of-line blocking on long-latency loads emerges naturally.
 *
 * Wrong-path fetch is modelled as a front-end bubble until the
 * mispredicted branch resolves (no wrong-path cache pollution; see
 * DESIGN.md §7).
 *
 * Hot-path data layout (see DESIGN.md §8): the per-context ROB is a
 * fixed-capacity power-of-two ring buffer allocated once at
 * construction, so the steady-state cycle() path performs no heap
 * allocation; the earliest cycle each context could make progress is
 * maintained incrementally (ROB-head completion cache) so
 * stallBound() is O(1); and per-cycle busy/idle/mode accounting is
 * batched into a pending window that is flushed to the PMU only when
 * the machine state signature changes or an external reader needs
 * exact counts (run/sample boundaries).
 */

#ifndef JSMT_UARCH_SMT_CORE_H
#define JSMT_UARCH_SMT_CORE_H

#include <array>
#include <cstdint>
#include <vector>

#include "branch/branch_unit.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/uop.h"
#include "mem/memory_system.h"
#include "os/scheduler.h"
#include "pmu/pmu.h"
#include "trace/trace_sink.h"
#include "uarch/core_config.h"
#include "uarch/stage_profiler.h"

namespace jsmt {

/**
 * The SMT core.
 */
class SmtCore
{
  public:
    /** What one call to cycle() did (drives the simulation loop). */
    struct CycleOutcome
    {
        /** µops allocated this cycle. */
        std::uint32_t allocated = 0;
        /**
         * A thread declined to produce a fetch bundle this cycle
         * (it blocked or finished generation), or a retirement ran
         * a thread's retire hook. Process completion can only flip
         * on a cycle with this flag set, so the driver's completion
         * scan is skipped on all other cycles.
         */
        bool threadEvent = false;
    };

    /**
     * A drained core in Hyper-Threading mode @p hyper_threading,
     * applied to the scheduler, ITLB and BTB as setHyperThreading()
     * would, but with the fresh pipeline state left as built.
     */
    SmtCore(const CoreConfig& config, MemorySystem& mem,
            BranchUnit& branch, Scheduler& scheduler, Pmu& pmu,
            std::uint64_t seed, bool hyper_threading);

    /**
     * Enable/disable Hyper-Threading. Propagates to the scheduler
     * (1 vs 2 logical CPUs), ITLB (partitioning) and BTB (context
     * tagging), and resets pipeline state.
     */
    void setHyperThreading(bool enabled);

    /** @return whether Hyper-Threading is enabled. */
    bool hyperThreading() const { return _hyperThreading; }

    /**
     * Advance the machine by one cycle.
     * @return what the cycle did. An outcome with allocated == 0 is
     *         the cue for the driver to probe stallBound() for a
     *         skippable window.
     */
    CycleOutcome cycle(Cycle now);

    /**
     * Earliest future cycle at which the core could do real work
     * (retire a µop, fetch a line, allocate, detect a context
     * switch), assuming the scheduler takes no action in between.
     * Returns @p now when cycle(now) may make progress — i.e. the
     * window is not provably stalled — and kNoCycle when nothing is
     * in flight at all. The simulation driver uses this to jump the
     * clock over provably idle windows (long cache misses, drained
     * contexts) instead of simulating them cycle by cycle.
     *
     * O(1): reads the incrementally maintained ROB-head completion
     * cache and the per-thread front-end gates; never walks the ROB
     * or the memory system.
     */
    Cycle stallBound(Cycle now) const;

    /**
     * Account a fast-forwarded window of cycles [@p from, @p to):
     * bulk-record exactly the PMU events the per-cycle path would
     * have recorded for stalled cycles (kCycles, the retire-0
     * histogram bin, idle/user/OS cycle attribution and the
     * per-context stall event). Only valid when
     * stallBound(from) >= @p to.
     */
    void fastForwardAccount(Cycle from, Cycle to);

    /**
     * Flush the batched cycle/mode accounting window to the PMU.
     * Must be called before raw PMU counts are read externally (the
     * simulation driver does so at run, sample and callback
     * boundaries); harmless when nothing is pending.
     */
    void flushAccounting();

    /**
     * Cycles the driver jumped over via fastForwardAccount() since
     * construction (cumulative, like the raw PMU counters). The
     * horizon_skip_pct metric is this over the raw kCycles total.
     */
    std::uint64_t fastForwardedCycles() const { return _ffCycles; }

    /** @return true when no µops are in flight. */
    bool drained() const;

    /**
     * Retire every in-flight µop of @p thread at @p now, early: the
     * multi-core driver drains a migrating process's threads out of
     * their old core at the epoch edge, so no pipeline ever holds
     * µops of a thread it does not host. On each context's ROB the
     * thread's entries are removed (the other entries keep their
     * order) and take the thread's retire path oldest first, context
     * 0 before context 1, counted as retired µops, instructions and
     * branches on that context; their load/store buffer entries are
     * freed. The completion cycles in the thread's dependence ring
     * are left alone, so dependents still wait for the real results.
     * @return the number of µops drained.
     */
    std::uint32_t drainThread(SoftwareThread* thread, Cycle now);

    /** Clear all pipeline state (between harness runs). */
    void reset();

    /** @return configuration. */
    const CoreConfig& config() const { return _config; }

    /** @return per-context ROB capacity under static partitioning. */
    std::uint32_t robCap(ContextId ctx) const;
    /** @return per-context load-buffer capacity (static). */
    std::uint32_t ldqCap(ContextId ctx) const;
    /** @return per-context store-buffer capacity (static). */
    std::uint32_t stqCap(ContextId ctx) const;

    /** @return whether @p ctx may not allocate another ROB entry. */
    bool robFull(ContextId ctx) const;
    /** @return whether @p ctx may not allocate another load. */
    bool ldqFull(ContextId ctx) const;
    /** @return whether @p ctx may not allocate another store. */
    bool stqFull(ContextId ctx) const;

    /** @return current ROB occupancy of @p ctx (tests/metrics). */
    std::uint32_t robOccupancy(ContextId ctx) const;

    /** @return current load-buffer occupancy of @p ctx. */
    std::uint32_t
    ldqOccupancy(ContextId ctx) const
    {
        return _ctx[ctx].ldqOcc;
    }

    /** @return current store-buffer occupancy of @p ctx. */
    std::uint32_t
    stqOccupancy(ContextId ctx) const
    {
        return _ctx[ctx].stqOcc;
    }

    /** Attach (or detach, with nullptr) an event tracer. */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        _trace = sink;
    }

    /**
     * Attach (or detach, with nullptr) a per-stage wall-time
     * profiler (jsmt_run --profile). One executed cycle in
     * StageProfiler::kSamplePeriod is timed, which costs a little
     * real time; simulation results are unaffected.
     */
    void
    setProfiler(StageProfiler* profiler)
    {
        _profiler = profiler;
        _memoryProbe = nullptr;
    }

    /** @return the attached profiler (null when detached). */
    StageProfiler* profiler() const { return _profiler; }

  private:
    /**
     * Set the mode and its derived capacities, and propagate it to
     * the scheduler, memory system and branch unit; pipeline state
     * is left alone.
     */
    void applyMode(bool enabled);

    /**
     * Retired-entry bookkeeping for one in-flight µop. Only the µop
     * attributes the retire stage and its onRetire consumers read
     * (type and mode; see retireStage) are retained, keeping ring
     * slots at 24 bytes so a full window stays cache-resident.
     */
    struct RobEntry
    {
        Cycle completion = 0;
        SoftwareThread* thread = nullptr;
        UopType type = UopType::kAlu;
        bool kernelMode = false;
    };

    /**
     * Fixed-capacity power-of-two ring buffer of in-flight µops.
     * Storage is allocated once (sized for the whole machine window,
     * so a lone context under the dynamic partition policy still
     * fits) and never reallocated: push/pop are index arithmetic,
     * keeping the steady-state cycle() path free of heap traffic.
     */
    class RobRing
    {
      public:
        /** Allocate storage for at least @p min_capacity entries. */
        void
        init(std::uint32_t min_capacity)
        {
            std::uint32_t cap = 1;
            while (cap < min_capacity)
                cap <<= 1;
            _slots.assign(cap, RobEntry{});
            _mask = cap - 1;
            _head = 0;
            _count = 0;
        }

        bool empty() const { return _count == 0; }
        std::uint32_t size() const { return _count; }
        std::uint32_t capacity() const { return _mask + 1; }

        RobEntry& front() { return _slots[_head]; }
        const RobEntry& front() const { return _slots[_head]; }

        /** @return the @p i-th oldest entry (i < size()). */
        const RobEntry&
        entry(std::uint32_t i) const
        {
            return _slots[(_head + i) & _mask];
        }

        /**
         * Remove every entry owned by @p thread, keeping the others
         * in order; @p removed sees each removed entry, oldest
         * first. @return the number removed.
         */
        template <typename Fn>
        std::uint32_t
        removeThread(const SoftwareThread* thread, Fn&& removed)
        {
            std::uint32_t kept = 0;
            for (std::uint32_t i = 0; i < _count; ++i) {
                const RobEntry& entry = _slots[(_head + i) & _mask];
                if (entry.thread == thread)
                    removed(entry);
                else
                    _slots[(_head + kept++) & _mask] = entry;
            }
            const std::uint32_t n = _count - kept;
            _count = kept;
            return n;
        }

        /** Drop the @p n oldest entries (n <= size()). */
        void
        pop_front(std::uint32_t n)
        {
            _head = (_head + n) & _mask;
            _count -= n;
        }

        /** Claim the next tail slot (caller fills it in place). */
        RobEntry&
        push_back()
        {
            RobEntry& entry = _slots[(_head + _count) & _mask];
            ++_count;
            return entry;
        }

        void
        clear()
        {
            _head = 0;
            _count = 0;
        }

      private:
        std::vector<RobEntry> _slots;
        std::uint32_t _mask = 0;
        std::uint32_t _head = 0;
        std::uint32_t _count = 0;
    };

    /** Per-logical-CPU pipeline state. */
    struct ContextState
    {
        RobRing rob;
        std::uint32_t ldqOcc = 0;
        std::uint32_t stqOcc = 0;
        /** Front end blocked until here (context-switch flush). */
        Cycle resumeAt = 0;
        SoftwareThread* lastThread = nullptr;
        bool kernelMode = false;
        /**
         * Completion cycle of the ROB head (kNoCycle when empty),
         * maintained at allocate/retire time so stallBound() never
         * touches the ring storage.
         */
        Cycle headCompletion = kNoCycle;
    };

    /**
     * Machine-state signature of one accounted cycle: which thread
     * (if any) occupies each context and in which mode, plus the
     * active context count. Cycles with an identical signature
     * record identical accounting events, so they are batched into
     * one pending window and flushed with recordBulk.
     */
    struct AccountingSignature
    {
        std::array<const SoftwareThread*, kNumContexts> thread{};
        std::array<bool, kNumContexts> kernel{};
        std::uint32_t contexts = 0;

        bool
        operator==(const AccountingSignature& o) const
        {
            return thread == o.thread && kernel == o.kernel &&
                   contexts == o.contexts;
        }
    };

    /**
     * Free window entries of one context: how many more µops,
     * loads and stores it may allocate before robFull(), ldqFull()
     * or stqFull() would report full.
     */
    struct WindowRoom
    {
        std::uint32_t rob = 0;
        std::uint32_t ldq = 0;
        std::uint32_t stq = 0;
    };

    std::uint32_t fetchAllocStage(Cycle now);
    std::uint32_t allocFromContext(ContextId ctx, Cycle now,
                                   std::uint32_t budget);

    /**
     * Start a cycle's profiling: counts the cycle, points
     * _memoryProbe at the profiler when this cycle samples the
     * memory walks, and @return the profiler when it samples the
     * stages (null otherwise, and always when detached).
     */
    StageProfiler*
    sampleProbes()
    {
        if (_profiler == nullptr)
            return nullptr;
        const StageProbe probe = _profiler->nextCycle();
        _memoryProbe =
            probe == StageProbe::kMemory ? _profiler : nullptr;
        return probe == StageProbe::kStages ? _profiler : nullptr;
    }

    void
    retireStage(Cycle now)
    {
        // Nothing can retire before either ROB head completes
        // (entries retire in order, so only the heads matter). The
        // cached head completions are exact (kNoCycle when empty; an
        // inactive context's stays kNoCycle), making this inline
        // early-out record the same single kRetire0 event the full
        // scan would.
        if (_ctx[0].headCompletion > now &&
            _ctx[1].headCompletion > now) {
            _pmu.record(EventId::kRetire0, 0);
            return;
        }
        retireHeads(now);
    }

    /** retireStage() once some ROB head has completed. */
    void retireHeads(Cycle now);
    /**
     * Per-µop onRetire() for the @p uops oldest entries of @p rob, in
     * program order: the path for retire hooks and for prefixes that
     * mix threads. Kept out of line so the common bulk path stays
     * small.
     */
    [[gnu::noinline]] void retireEach(const RobRing& rob,
                                      std::uint32_t uops, Cycle now);
    /** Stall event @p ctx records per cycle in a stalled window. */
    EventId stallEventFor(ContextId ctx, Cycle now) const;

    /** @return the free window entries of @p ctx right now. */
    WindowRoom
    windowRoom(ContextId ctx) const
    {
        // Occupancy at or above the cap leaves no room.
        const auto room = [](std::uint32_t occupied,
                             std::uint32_t cap) {
            return occupied < cap ? cap - occupied : 0;
        };
        if (_dynamicShared) {
            // Shared pool: the lone constraint is total occupancy.
            return {room(_ctx[0].rob.size() + _ctx[1].rob.size(),
                         _config.robEntries),
                    room(_ctx[0].ldqOcc + _ctx[1].ldqOcc,
                         _config.loadBufEntries),
                    room(_ctx[0].stqOcc + _ctx[1].stqOcc,
                         _config.storeBufEntries)};
        }
        const ContextState& cs = _ctx[ctx];
        return {room(cs.rob.size(), _robCapCache[ctx]),
                room(cs.ldqOcc, _ldqCapCache[ctx]),
                room(cs.stqOcc, _stqCapCache[ctx])};
    }
    /**
     * Batch @p cycles cycles of busy/idle/mode accounting. Inline
     * fast path: nothing that feeds the signature changed since the
     * last rebuild (see _acctEpochSeen), so the pending window just
     * grows. This is the per-cycle common case — signatures change
     * at scheduling events, tens of thousands of cycles apart.
     */
    void
    accountWindow(std::uint64_t cycles)
    {
        if (_scheduler.stateEpoch() == _acctEpochSeen &&
            !_acctKernelFlip) {
            _acctPending += cycles;
            return;
        }
        accountWindowRebuild(cycles);
    }

    /** Out-of-line signature rebuild for accountWindow(). */
    void accountWindowRebuild(std::uint64_t cycles);

    /** Reserve an issue slot at or after @p earliest. */
    Cycle findIssueSlot(Cycle earliest);

    /** Number of contexts in the current mode. */
    std::uint32_t
    activeContexts() const
    {
        return _hyperThreading ? kNumContexts : 1;
    }

    CoreConfig _config;
    MemorySystem& _mem;
    BranchUnit& _branch;
    Scheduler& _scheduler;
    Pmu& _pmu;
    trace::TraceSink* _trace = nullptr;
    StageProfiler* _profiler = nullptr;
    /** _profiler while the current cycle samples memory walks. */
    StageProfiler* _memoryProbe = nullptr;
    Rng _rng;
    bool _hyperThreading = true;

    // Mode-derived values recomputed in setHyperThreading() so the
    // per-µop fullness checks read plain fields.
    bool _dynamicShared = false;
    std::array<std::uint32_t, kNumContexts> _robCapCache{};
    std::array<std::uint32_t, kNumContexts> _ldqCapCache{};
    std::array<std::uint32_t, kNumContexts> _stqCapCache{};

    std::array<ContextState, kNumContexts> _ctx;

    /** Set by allocFromContext when a nextBundle() call declined. */
    bool _threadEvent = false;

    // Batched cycle/mode accounting (see AccountingSignature).
    AccountingSignature _acctSig;
    std::uint64_t _acctPending = 0;
    /**
     * Scheduler state epoch the signature was last rebuilt at. While
     * the epoch is unchanged and no context flipped kernel mode
     * (_acctKernelFlip), the live signature provably equals _acctSig
     * — every signature input (active-thread set, context count,
     * kernel flags of occupied contexts) can only change through an
     * epoch-bumping scheduler mutation or a flagged kernel-mode
     * write — so accountWindow() extends the pending window without
     * re-deriving it. ~0 forces a rebuild on first use and after
     * reset().
     */
    std::uint64_t _acctEpochSeen = ~std::uint64_t{0};
    /** A context's kernelMode changed since the last rebuild. */
    bool _acctKernelFlip = true;
    /** Cycles skipped via fastForwardAccount() (cumulative). */
    std::uint64_t _ffCycles = 0;

    // Shared issue-bandwidth ring (stamp-validated counters). Each
    // slot packs (stamp << 8) | count into one word so the scan in
    // findIssueSlot() — the hottest loop of the allocation path —
    // costs one load per probed cycle instead of two. 56 stamp bits
    // comfortably hold any simulated cycle count.
    static constexpr std::uint32_t kIssueRingBits = 13;
    static constexpr std::uint32_t kIssueRingSize =
        1u << kIssueRingBits;
    std::array<std::uint64_t, kIssueRingSize> _issueSlot{};
};

} // namespace jsmt

#endif // JSMT_UARCH_SMT_CORE_H
