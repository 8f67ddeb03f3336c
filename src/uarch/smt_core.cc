#include "uarch/smt_core.h"

#include <algorithm>

#include "common/log.h"

namespace jsmt {

namespace {

/** Static trace-event name for a per-context stall event. */
const char*
stallName(EventId event)
{
    switch (event) {
      case EventId::kRobFullStall:
        return "rob_full";
      case EventId::kLdqFullStall:
        return "ldq_full";
      case EventId::kStqFullStall:
        return "stq_full";
      default:
        return "fetch_stall";
    }
}

} // namespace

SmtCore::SmtCore(const CoreConfig& config, MemorySystem& mem,
                 BranchUnit& branch, Scheduler& scheduler, Pmu& pmu,
                 std::uint64_t seed)
    : _config(config),
      _mem(mem),
      _branch(branch),
      _scheduler(scheduler),
      _pmu(pmu),
      _rng(seed ^ 0x5eed'c0de'd00dULL)
{
    if (config.fetchAllocWidth == 0 || config.issueWidth == 0 ||
        config.retireWidth == 0) {
        fatal("core: widths must be positive");
    }
    if (config.retireWidth > 3) {
        fatal("core: retireWidth above 3 is unsupported (the "
              "retirement histogram models the P4's 3-uop limit)");
    }
    if (config.robEntries < 2 * kNumContexts)
        fatal("core: ROB too small to partition");
    // Ring storage is sized for the whole machine window once, here:
    // under the dynamic partition policy a lone context may occupy
    // every ROB entry, and reset() never reallocates.
    for (ContextState& cs : _ctx)
        cs.rob.init(config.robEntries);
    setHyperThreading(true);
}

void
SmtCore::setHyperThreading(bool enabled)
{
    _hyperThreading = enabled;
    _dynamicShared =
        enabled &&
        _config.partitionPolicy == PartitionPolicy::kDynamic;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        _robCapCache[ctx] = robCap(ctx);
        _ldqCapCache[ctx] = ldqCap(ctx);
        _stqCapCache[ctx] = stqCap(ctx);
    }
    _scheduler.setNumContexts(enabled ? kNumContexts : 1);
    _mem.setHyperThreading(enabled);
    _branch.setHyperThreading(enabled);
    reset();
}

std::uint32_t
SmtCore::robCap(ContextId ctx) const
{
    if (_hyperThreading)
        return _config.robEntries / kNumContexts;
    return ctx == 0 ? _config.robEntries : 0;
}

std::uint32_t
SmtCore::ldqCap(ContextId ctx) const
{
    if (_hyperThreading)
        return _config.loadBufEntries / kNumContexts;
    return ctx == 0 ? _config.loadBufEntries : 0;
}

std::uint32_t
SmtCore::stqCap(ContextId ctx) const
{
    if (_hyperThreading)
        return _config.storeBufEntries / kNumContexts;
    return ctx == 0 ? _config.storeBufEntries : 0;
}

std::uint32_t
SmtCore::robOccupancy(ContextId ctx) const
{
    return _ctx[ctx].rob.size();
}

bool
SmtCore::robFull(ContextId ctx) const
{
    if (_dynamicShared) {
        // Shared pool: the lone constraint is total occupancy.
        return _ctx[0].rob.size() + _ctx[1].rob.size() >=
               _config.robEntries;
    }
    return _ctx[ctx].rob.size() >= _robCapCache[ctx];
}

bool
SmtCore::ldqFull(ContextId ctx) const
{
    if (_dynamicShared) {
        return _ctx[0].ldqOcc + _ctx[1].ldqOcc >=
               _config.loadBufEntries;
    }
    return _ctx[ctx].ldqOcc >= _ldqCapCache[ctx];
}

bool
SmtCore::stqFull(ContextId ctx) const
{
    if (_dynamicShared) {
        return _ctx[0].stqOcc + _ctx[1].stqOcc >=
               _config.storeBufEntries;
    }
    return _ctx[ctx].stqOcc >= _stqCapCache[ctx];
}

bool
SmtCore::drained() const
{
    for (const ContextState& cs : _ctx) {
        if (!cs.rob.empty())
            return false;
    }
    return true;
}

bool
SmtCore::holdsUopsOf(const SoftwareThread* thread) const
{
    for (const ContextState& cs : _ctx) {
        for (std::uint32_t i = 0; i < cs.rob.size(); ++i) {
            if (cs.rob.entry(i).thread == thread)
                return true;
        }
    }
    return false;
}

void
SmtCore::reset()
{
    // Pending accounting cycles predate the reset but were really
    // simulated; land them before the signature is wiped.
    flushAccounting();
    _acctSig = AccountingSignature{};
    _acctEpochSeen = ~std::uint64_t{0};
    _acctKernelFlip = true;
    for (ContextState& cs : _ctx) {
        // In place: the ring's storage survives across runs.
        cs.rob.clear();
        cs.ldqOcc = 0;
        cs.stqOcc = 0;
        cs.resumeAt = 0;
        cs.lastThread = nullptr;
        cs.kernelMode = false;
        cs.headCompletion = kNoCycle;
    }
    _issueSlot.fill(0);
}

Cycle
SmtCore::findIssueSlot(Cycle earliest)
{
    const Cycle horizon = earliest + kIssueRingSize - 1;
    const std::uint64_t width = _config.issueWidth;
    for (Cycle c = earliest; c < horizon; ++c) {
        std::uint64_t& slot = _issueSlot[c & (kIssueRingSize - 1)];
        // A slot stamped with another cycle is stale: it counts as
        // empty. Selecting the count instead of branching on the
        // stamp leaves one (almost always taken) exit branch.
        const std::uint64_t used = (slot >> 8) == c ? slot & 0xff : 0;
        if (used < width) {
            slot = (c << 8) + used + 1;
            return c;
        }
    }
    // Pathologically far in the future: stop constraining.
    return horizon;
}

void
SmtCore::retireHeads(Cycle now)
{
    std::uint32_t budget = _config.retireWidth;
    std::uint32_t retired_total = 0;
    const std::uint32_t contexts = activeContexts();
    const ContextId first =
        contexts > 1 ? static_cast<ContextId>(now & 1) : 0;

    for (std::uint32_t k = 0; k < contexts && budget > 0; ++k) {
        // contexts is 1 or 2, so the modulo reduces to a mask (a
        // hardware divide here costs more than the rest of a
        // retire-0 call).
        const ContextId ctx =
            static_cast<ContextId>((first + k) & (contexts - 1));
        ContextState& cs = _ctx[ctx];
        if (cs.headCompletion > now)
            continue;

        // The completed prefix of the ROB (entries retire in order),
        // counted by type in one pass. The per-type counts are 8-bit
        // lanes of one register (a prefix holds at most retireWidth
        // <= 3 µops), so counting is a shift and an add instead of a
        // branch on each entry's random type.
        const std::uint32_t limit = std::min(budget, cs.rob.size());
        std::uint64_t by_type = 0;
        SoftwareThread* const owner = cs.rob.front().thread;
        bool one_owner = true;
        std::uint32_t uops = 0;
        while (uops < limit && cs.rob.entry(uops).completion <= now) {
            const RobEntry& entry = cs.rob.entry(uops);
            by_type += std::uint64_t{1}
                       << (8 * static_cast<std::uint32_t>(entry.type));
            one_owner &= entry.thread == owner;
            ++uops;
        }
        const auto count = [by_type](UopType type) {
            return static_cast<std::uint32_t>(
                (by_type >> (8 * static_cast<std::uint32_t>(type))) &
                0xff);
        };
        // A prefix owned by one hook-free thread retires as a single
        // counter add; otherwise every µop takes onRetire() in
        // program order, exactly as a per-entry loop would. Only a
        // retire hook can complete a process, so only this path
        // cues the driver's completion scan.
        if (!one_owner || !owner->tryRetireBulk(uops))
            retireEach(cs.rob, uops, now);
        cs.rob.pop_front(uops);
        cs.ldqOcc -= count(UopType::kLoad);
        cs.stqOcc -= count(UopType::kStore);
        budget -= uops;
        cs.headCompletion =
            cs.rob.empty() ? kNoCycle : cs.rob.front().completion;
        // Per-cycle batched counter updates (hot path: one PMU
        // access per event line instead of one per retired µop;
        // record() adds a zero count without a branch).
        _pmu.record(EventId::kUopsRetired, ctx, uops);
        _pmu.record(EventId::kInstrRetired, ctx, uops);
        _pmu.record(EventId::kBranchRetired, ctx,
                    count(UopType::kBranch));
        retired_total += uops;
    }

    // Machine-wide retirement histogram (Figure 2).
    static constexpr EventId kHistogram[4] = {
        EventId::kRetire0, EventId::kRetire1, EventId::kRetire2,
        EventId::kRetire3};
    _pmu.record(kHistogram[std::min<std::uint32_t>(retired_total, 3)],
                0);
}

void
SmtCore::retireEach(const RobRing& rob, std::uint32_t uops, Cycle now)
{
    _threadEvent = true;
    Uop retired_uop;
    for (std::uint32_t i = 0; i < uops; ++i) {
        const RobEntry& entry = rob.entry(i);
        retired_uop.type = entry.type;
        retired_uop.kernelMode = entry.kernelMode;
        entry.thread->onRetire(retired_uop, now);
    }
}

template <bool kProfiled>
std::uint32_t
SmtCore::allocFromContext(ContextId ctx, Cycle now,
                          std::uint32_t budget)
{
    ContextState& cs = _ctx[ctx];
    SoftwareThread* thread = _scheduler.active(ctx);
    if (!thread)
        return 0;

    // Detect an OS context switch: flush the context's front end.
    if (thread != cs.lastThread) {
        cs.lastThread = thread;
        cs.resumeAt = std::max<Cycle>(
            cs.resumeAt, now + _config.contextSwitchFlushCycles);
        _pmu.record(EventId::kPipelineFlush, ctx);
        if (_trace != nullptr && _trace->enabled()) {
            _trace->instantArg(trace::contextTrack(ctx),
                               "ctx_switch_flush", now, "tid",
                               thread->id());
        }
    }

    if (now < cs.resumeAt) {
        _pmu.record(EventId::kFetchStallCycles, ctx);
        if (_trace != nullptr && _trace->enabled()) {
            _trace->span(trace::contextTrack(ctx), "fetch_stall",
                         now, now + 1);
        }
        return 0;
    }

    ThreadFrontEnd& fe = thread->frontEnd();
    std::uint32_t used = 0;
    while (used < budget) {
        if (!fe.valid) {
            if (now < fe.nextFetchAt) {
                // Redirect/bubble: the next line is not fetchable
                // yet.
                if (used == 0) {
                    _pmu.record(EventId::kFetchStallCycles, ctx);
                    if (_trace != nullptr && _trace->enabled()) {
                        _trace->span(trace::contextTrack(ctx),
                                     "fetch_stall", now, now + 1);
                    }
                }
                return used;
            }
            if (!thread->nextBundle(now, fe.bundle)) {
                // Thread blocked or finished; the scheduler reacts
                // on its next tick. Completion may have flipped —
                // cue the driver's scan.
                _threadEvent = true;
                return used;
            }
            fe.pos = 0;
            fe.valid = true;
            if (cs.kernelMode != fe.bundle.kernelMode) {
                cs.kernelMode = fe.bundle.kernelMode;
                _acctKernelFlip = true;
            }
            const bool stale_trace =
                fe.bundle.rebuildProb > 0.0f &&
                _rng.chance(fe.bundle.rebuildProb);
            StageClock<kProfiled> clock(_memoryProbe);
            const FetchLineResult fetch = _mem.fetchLine(
                fe.bundle.asid, fe.bundle.lineVaddr,
                fe.bundle.traceAddr, ctx, now, stale_trace);
            clock.lap(&StageProfiler::memorySeconds);
            if (fetch.latency > 0) {
                // Trace-cache miss: µops deliverable after rebuild.
                fe.bundleReadyAt = now + fetch.latency;
                return used;
            }
            fe.bundleReadyAt = now;
        }

        if (now < fe.bundleReadyAt) {
            if (used == 0) {
                _pmu.record(EventId::kFetchStallCycles, ctx);
                if (_trace != nullptr && _trace->enabled()) {
                    _trace->span(trace::contextTrack(ctx),
                                 "fetch_stall", now, now + 1);
                }
            }
            return used;
        }
        if (cs.kernelMode != fe.bundle.kernelMode) {
            cs.kernelMode = fe.bundle.kernelMode;
            _acctKernelFlip = true;
        }

        // Window room, derived once per delivered line instead of
        // three fullness checks per µop: only this context allocates
        // during the call and nothing retires, so each allocation
        // just uses up room.
        WindowRoom room = windowRoom(ctx);
        while (used < budget && fe.pos < fe.bundle.count) {
            const Uop& uop = fe.bundle.uops[fe.pos];
            const bool is_load = uop.type == UopType::kLoad;
            const bool is_store = uop.type == UopType::kStore;

            // Window resource checks (divided per the configured
            // partition policy in HT mode), folded into one rarely
            // taken branch; the event keeps the check order.
            if ((room.rob == 0) | (is_load & (room.ldq == 0)) |
                (is_store & (room.stq == 0))) {
                _pmu.record(room.rob == 0 ? EventId::kRobFullStall
                            : is_load     ? EventId::kLdqFullStall
                                          : EventId::kStqFullStall,
                            ctx);
                return used;
            }

            const std::uint64_t seq = thread->allocSeq();
            const Cycle dep_ready =
                thread->producerCompletion(seq, uop.depDist);
            const Cycle ready = std::max<Cycle>(now + 1, dep_ready);

            Cycle latency = uop.execLatency;
            bool mispredicted = false;
            std::uint32_t fetch_bubble = 0;
            if (is_load | is_store) {
                // Stores are buffered: they affect the caches, not
                // the critical path.
                StageClock<kProfiled> clock(_memoryProbe);
                const DataAccessResult access =
                    _mem.dataAccess(fe.bundle.asid, uop.dataVaddr,
                                    ctx, is_store, ready);
                clock.lap(&StageProfiler::memorySeconds);
                latency = is_load ? access.latency : 1;
                _pmu.record(EventId::kMemStallCycles, ctx,
                            is_load && !access.l1Hit ? access.latency
                                                     : 0);
            } else if (uop.type == UopType::kBranch) {
                const bool line_end =
                    fe.pos + 1 == fe.bundle.count;
                const BranchOutcome outcome = _branch.predict(
                    fe.bundle.asid, uop.pc, ctx,
                    uop.mispredictProb, _rng, line_end);
                mispredicted = outcome.mispredicted;
                fetch_bubble = outcome.fetchBubble;
            }

            const Cycle issue = findIssueSlot(ready);
            const Cycle completion = issue + latency;
            thread->recordCompletion(seq, completion);

            RobEntry& entry = cs.rob.push_back();
            entry.completion = completion;
            entry.thread = thread;
            entry.type = uop.type;
            entry.kernelMode = uop.kernelMode;
            if (cs.rob.size() == 1)
                cs.headCompletion = completion;
            --room.rob;
            room.ldq -= is_load;
            room.stq -= is_store;
            cs.ldqOcc += is_load;
            cs.stqOcc += is_store;
            ++fe.pos;
            ++used;

            if (mispredicted) {
                // The already-delivered remainder of this trace
                // line is the correct continuation; the penalty is
                // that no further line can be fetched until the
                // branch resolves and fetch redirects.
                fe.nextFetchAt = std::max<Cycle>(
                    fe.nextFetchAt,
                    completion + _config.mispredictRedirectCycles);
                _pmu.record(EventId::kPipelineFlush, ctx);
            } else if (fetch_bubble > 0) {
                // BTB miss on a taken branch: the next line's fetch
                // is delayed by the decode-redirect bubble.
                fe.nextFetchAt = std::max<Cycle>(
                    fe.nextFetchAt, now + fetch_bubble);
            }
        }

        if (fe.pos >= fe.bundle.count)
            fe.valid = false;
    }
    return used;
}

template <bool kProfiled>
std::uint32_t
SmtCore::fetchAllocStage(Cycle now)
{
    const std::uint32_t contexts = activeContexts();
    const std::uint32_t budget = _config.fetchAllocWidth;
    const ContextId first =
        contexts > 1 ? static_cast<ContextId>(now & 1) : 0;
    // Strict P4-style alternation: the whole allocation bandwidth
    // belongs to one logical processor per cycle. The slot is only
    // donated when the preferred context has no thread at all; a
    // merely stalled thread wastes its slot, which is what bounds
    // SMT gains on the real machine.
    ContextId ctx = first;
    if (contexts > 1 && _scheduler.active(first) == nullptr)
        ctx = static_cast<ContextId>((first + 1) & 1);
    return allocFromContext<kProfiled>(ctx, now, budget);
}

void
SmtCore::accountWindowRebuild(std::uint64_t cycles)
{
    _acctEpochSeen = _scheduler.stateEpoch();
    _acctKernelFlip = false;

    AccountingSignature sig;
    sig.contexts = activeContexts();
    for (ContextId ctx = 0; ctx < sig.contexts; ++ctx) {
        const SoftwareThread* thread = _scheduler.active(ctx);
        sig.thread[ctx] = thread;
        // Normalized to false when idle so mode flips on an empty
        // context never force a flush.
        sig.kernel[ctx] =
            thread != nullptr && _ctx[ctx].kernelMode;
    }
    if (!(sig == _acctSig)) {
        flushAccounting();
        _acctSig = sig;
    }
    _acctPending += cycles;
}

void
SmtCore::flushAccounting()
{
    if (_acctPending == 0)
        return;
    const std::uint64_t n = _acctPending;
    _acctPending = 0;
    // Replays exactly what n identical per-cycle accountings would
    // have recorded, from the stored signature (the live scheduler
    // state may already have moved on).
    _pmu.recordBulk(EventId::kCycles, 0, n);
    std::uint32_t active = 0;
    for (ContextId ctx = 0; ctx < _acctSig.contexts; ++ctx) {
        if (_acctSig.thread[ctx] == nullptr) {
            _pmu.recordBulk(EventId::kIdleCycles, ctx, n);
            continue;
        }
        ++active;
        _pmu.recordBulk(_acctSig.kernel[ctx] ? EventId::kOsCycles
                                             : EventId::kUserCycles,
                        ctx, n);
    }
    if (active == 2)
        _pmu.recordBulk(EventId::kDualThreadCycles, 0, n);
    else if (active == 1)
        _pmu.recordBulk(EventId::kSingleThreadCycles, 0, n);
}

template <bool kProfiled>
SmtCore::CycleOutcome
SmtCore::cycleStages(Cycle now)
{
    CycleOutcome outcome;
    _threadEvent = false;
    StageClock<kProfiled> clock(sampleProbes<kProfiled>());
    retireStage(now);
    clock.lap(&StageProfiler::retireSeconds);
    outcome.allocated = fetchAllocStage<kProfiled>(now);
    clock.lap(&StageProfiler::fetchAllocSeconds);
    accountWindow(1);
    clock.lap(&StageProfiler::accountSeconds);
    outcome.threadEvent = _threadEvent;
    return outcome;
}

SmtCore::CycleOutcome
SmtCore::cycle(Cycle now)
{
    // The one profiler check of the cycle: the unprofiled variant
    // carries no timer code at all.
    return _profiler != nullptr ? cycleStages<true>(now)
                                : cycleStages<false>(now);
}

Cycle
SmtCore::stallBound(Cycle now) const
{
    return bounds(now).stall;
}

Cycle
SmtCore::allocBound(Cycle now) const
{
    return bounds(now).alloc;
}

SmtCore::CoreBounds
SmtCore::bounds(Cycle now) const
{
    CoreBounds b;
    const std::uint32_t contexts = activeContexts();
    // With both contexts occupied, the P4-style alternation gives a
    // context the allocation slot only on cycles of its parity (a
    // stalled context wastes its slot; see fetchAllocStage). A
    // context that could allocate but does not own the current
    // cycle's slot therefore bounds the window at its next slot
    // instead of cutting it to zero. The active-thread set cannot
    // change inside the window (the scheduler bound caps it), so
    // the parity rule holds throughout.
    const bool alternating =
        contexts > 1 && _scheduler.active(0) != nullptr &&
        _scheduler.active(1) != nullptr;
    for (ContextId ctx = 0; ctx < contexts; ++ctx) {
        const ContextState& cs = _ctx[ctx];
        // Incrementally maintained ROB-head completion (kNoCycle
        // when the ROB is empty) — no ring access here. Retirements
        // cut the stall bound only; the alloc bound ignores them
        // unless allocation is resource-blocked (below).
        const Cycle head = cs.headCompletion;
        if (head != kNoCycle)
            b.stall = std::min(b.stall, head > now ? head : now);
        const SoftwareThread* thread = _scheduler.active(ctx);
        if (!thread)
            continue;
        if (thread != cs.lastThread) {
            // Context-switch flush not yet taken: both bounds cut.
            b.stall = now;
            b.alloc = now;
            return b;
        }
        const ThreadFrontEnd& fe =
            const_cast<SoftwareThread*>(thread)->frontEnd();
        const Cycle gate = std::max(
            cs.resumeAt,
            fe.valid ? fe.bundleReadyAt : fe.nextFetchAt);
        // Earliest cycle this context both has work and owns the
        // allocation slot.
        Cycle at = gate > now ? gate : now;
        if (alternating && (at & 1) != ctx)
            ++at;
        if (gate > now || !fe.valid) {
            // Fetch-gated, or a new trace line could be fetched at
            // the next owned slot.
            b.stall = std::min(b.stall, at);
            b.alloc = std::min(b.alloc, at);
            continue;
        }
        // Line ready but the window may have no room. For the stall
        // bound the retirement that frees a slot is already covered
        // by a ROB-head bound (a full queue implies a non-empty
        // ROB). For the alloc bound the earliest possibly-unblocking
        // event is the first retirement — the ROB head (either
        // context's under the shared dynamic partition). The head
        // may not free the right resource; the bound only needs to
        // be conservative (no later than the true alloc cycle).
        const Uop& uop = fe.bundle.uops[fe.pos];
        const bool blocked =
            robFull(ctx) ||
            (uop.type == UopType::kLoad && ldqFull(ctx)) ||
            (uop.type == UopType::kStore && stqFull(ctx));
        if (!blocked) {
            b.stall = std::min(b.stall, at);
            b.alloc = std::min(b.alloc, at);
        } else {
            Cycle h = cs.headCompletion;
            if (_dynamicShared)
                h = std::min(h, _ctx[ctx ^ 1].headCompletion);
            Cycle aat = h > now ? h : now;
            if (alternating && (aat & 1) != ctx)
                ++aat;
            b.alloc = std::min(b.alloc, aat);
        }
    }
    return b;
}

template <bool kProfiled>
SmtCore::CycleOutcome
SmtCore::retireOnlyStages(Cycle now)
{
    CycleOutcome outcome;
    _threadEvent = false;
    StageClock<kProfiled> clock(sampleProbes<kProfiled>());
    retireStage(now);
    clock.lap(&StageProfiler::retireSeconds);
    // Replicate the one stall event the slot-owning context would
    // have recorded in fetchAllocStage (the window precondition
    // guarantees it cannot allocate or call nextBundle this cycle).
    const std::uint32_t contexts = activeContexts();
    ContextId ctx =
        contexts > 1 ? static_cast<ContextId>(now & 1) : 0;
    if (contexts > 1 && _scheduler.active(ctx) == nullptr)
        ctx = static_cast<ContextId>((ctx + 1) & 1);
    if (_scheduler.active(ctx) != nullptr)
        _pmu.record(stallEventFor(ctx, now), ctx);
    accountWindow(1);
    clock.lap(&StageProfiler::accountSeconds);
    outcome.threadEvent = _threadEvent;
    return outcome;
}

SmtCore::CycleOutcome
SmtCore::retireOnlyCycle(Cycle now)
{
    return _profiler != nullptr ? retireOnlyStages<true>(now)
                                : retireOnlyStages<false>(now);
}

EventId
SmtCore::stallEventFor(ContextId ctx, Cycle now) const
{
    const ContextState& cs = _ctx[ctx];
    const SoftwareThread* thread = _scheduler.active(ctx);
    const ThreadFrontEnd& fe =
        const_cast<SoftwareThread*>(thread)->frontEnd();
    const Cycle gate = std::max(
        cs.resumeAt, fe.valid ? fe.bundleReadyAt : fe.nextFetchAt);
    if (gate > now)
        return EventId::kFetchStallCycles;
    // Resource-blocked, mirroring allocFromContext's check order.
    if (robFull(ctx))
        return EventId::kRobFullStall;
    return fe.bundle.uops[fe.pos].type == UopType::kLoad
               ? EventId::kLdqFullStall
               : EventId::kStqFullStall;
}

void
SmtCore::fastForwardAccount(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    const std::uint64_t window = to - from;
    _ffCycles += window;
    const std::uint32_t contexts = activeContexts();

    // retireStage: every skipped cycle retires zero µops.
    _pmu.recordBulk(EventId::kRetire0, 0, window);

    // accountCycle equivalent: the active-thread set and kernel-mode
    // flags cannot change inside a provably stalled window, so the
    // whole window folds into the batched accounting accumulator
    // (usually without even a signature change, since the stalled
    // cycles before and after the jump account identically).
    accountWindow(window);

    // fetchAllocStage: the one chosen context records one stall
    // event per cycle. With both contexts occupied the P4-style
    // alternation splits the window by cycle parity; otherwise the
    // occupied context (if any) owns every cycle.
    std::array<std::uint64_t, kNumContexts> chosen{};
    if (contexts == 1) {
        chosen[0] = _scheduler.active(0) ? window : 0;
    } else {
        const bool has0 = _scheduler.active(0) != nullptr;
        const bool has1 = _scheduler.active(1) != nullptr;
        // Cycles c in [from, to) with (c & 1) == 0.
        const std::uint64_t even = (to + 1) / 2 - (from + 1) / 2;
        if (has0 && has1) {
            chosen[0] = even;
            chosen[1] = window - even;
        } else if (has0) {
            chosen[0] = window;
        } else if (has1) {
            chosen[1] = window;
        }
    }
    for (ContextId ctx = 0; ctx < contexts; ++ctx) {
        if (chosen[ctx] == 0)
            continue;
        const EventId stall = stallEventFor(ctx, from);
        _pmu.recordBulk(stall, ctx, chosen[ctx]);
        if (_trace != nullptr && _trace->enabled()) {
            _trace->span(trace::contextTrack(ctx), stallName(stall),
                         from, to);
        }
    }
    if (_trace != nullptr && _trace->enabled())
        _trace->complete(trace::Track::kMachine, "fast_forward",
                         from, to);
}

} // namespace jsmt
