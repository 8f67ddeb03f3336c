/**
 * @file
 * The full memory hierarchy of the modelled machine.
 *
 * Geometry follows the paper's platform, a 2.8 GHz Pentium 4
 * (Northwood) with Hyper-Threading: a 12 Kµops trace cache as the L1
 * instruction store, an 8 KB 4-way L1 data cache, a 1 MB 8-way unified
 * on-chip L2, 64-byte lines throughout, a partitioned-per-context
 * ITLB, a shared DTLB, and DDR memory behind an 800 MT/s front-side
 * bus whose occupancy is modelled as line-transfer slots.
 */

#ifndef JSMT_MEM_MEMORY_SYSTEM_H
#define JSMT_MEM_MEMORY_SYSTEM_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/tlb.h"
#include "pmu/pmu.h"
#include "trace/trace_sink.h"

namespace jsmt {

/** Configuration of the memory hierarchy. */
struct MemConfig
{
    /**
     * Trace cache: 12 Kµops organised as 2048 six-µop trace lines,
     * 8-way set associative. Each trace line corresponds to a 64-byte
     * block of code in the synthetic code space.
     */
    std::uint32_t traceCacheLines = 2048;
    std::uint32_t traceCacheWays = 8;
    std::uint32_t uopsPerTraceLine = 6;

    std::uint64_t l1dBytes = 8 * 1024;
    std::uint32_t l1dWays = 4;
    std::uint64_t l2Bytes = 1024 * 1024;
    std::uint32_t l2Ways = 8;
    std::uint32_t lineBytes = 64;

    std::uint32_t itlbEntries = 64;
    std::uint32_t itlbWays = 4;
    std::uint32_t dtlbEntries = 128;
    std::uint32_t dtlbWays = 4;
    std::uint32_t pageBytes = 4096;

    // Latencies in core cycles at 2.8 GHz.
    std::uint32_t l1dHitCycles = 2;
    std::uint32_t l2HitCycles = 18;
    std::uint32_t dramCycles = 250;
    std::uint32_t pageWalkCycles = 55;
    /** Trace-build penalty on a trace-cache miss (decode pipeline). */
    std::uint32_t traceBuildCycles = 16;
    /** FSB occupancy per 64-byte line transfer. */
    std::uint32_t fsbCyclesPerLine = 24;
    /**
     * L2 port occupancy per access. The unified L2 is single-ported;
     * under SMT the combined L1/TC miss streams of both contexts
     * queue here — the compounding resource contention the paper
     * blames for pipeline inefficiency.
     */
    std::uint32_t l2PortCycles = 2;
};

/** Outcome of an instruction fetch-line request. */
struct FetchLineResult
{
    std::uint32_t latency = 0; ///< Cycles until µops are deliverable.
    bool traceCacheHit = true;
    bool itlbMiss = false;
};

/** Outcome of a data access. */
struct DataAccessResult
{
    std::uint32_t latency = 0; ///< Load-to-use cycles.
    bool l1Hit = true;
    bool l2Hit = true;
};

/**
 * One shared-L2 access a chip slice made in the current quantum. The
 * L2 is never set-partitioned, so the context plays no part.
 */
struct L2LogEntry
{
    Cycle cycle = 0; ///< The slice's stepping cycle at the access.
    Addr paddr = 0;
    Asid asid = 0;
};

/**
 * A chip slice's view of the shared L2 for one quantum (DESIGN.md
 * §11): the shared L2 as it stood at the quantum start, plus the
 * slice's own fills and LRU updates since. It holds only the sets
 * the slice touched this quantum, each copied from the shared L2 on
 * first touch into a compact pool and then walked by the hit scan
 * and victim choice of Cache::access(); the shared L2 itself is
 * only read.
 */
class L2Overlay
{
  public:
    /** A view of @p shared, which must not be set-partitioned. */
    explicit L2Overlay(const Cache& shared);

    /**
     * Start a quantum: drop every copied set and take the shared
     * L2's LRU clock, so stamps made during the quantum order after
     * every stamp copied from it.
     */
    void begin();

    /** Cache::access() through the view. @return true on hit. */
    bool access(Asid asid, Addr addr);

  private:
    const Cache& _shared;
    std::uint64_t _useClock = 0;
    /** Per shared-L2 set: 1 + its index in _sets, 0 if not copied. */
    std::vector<std::uint32_t> _slotOf;
    /** The sets copied this quantum, in first-touch order. */
    std::vector<std::uint32_t> _sets;
    /**
     * Their lines, slot-major: per copied set its ways() keys, then
     * their ways() stamps.
     */
    std::vector<std::uint64_t> _lines;
};

/**
 * Memory hierarchy facade used by the SMT core.
 *
 * All structures are presence-only models; accesses update replacement
 * state and publish PMU events attributed to the requesting hardware
 * context.
 */
class MemorySystem
{
  public:
    /**
     * @param shared_l2 when non-null, this externally owned cache
     *        replaces the hierarchy's private L2: a multi-core
     *        machine passes one Cache to every per-core memory
     *        system so all cores compete for the same capacity
     *        (ASID-tagged lines make the sharing correct across
     *        address spaces). FSB/L2-port occupancy cursors stay
     *        per-core (private bus ports). The hierarchy then builds
     *        no L2 of its own: it reads the shared one through an
     *        L2Overlay and logs every access for the barrier merge
     *        (see MultiCoreSystem::l2Barrier). Null (the default)
     *        keeps the single-core behaviour bit-identical.
     */
    MemorySystem(const MemConfig& config, Pmu& pmu,
                 Cache* shared_l2 = nullptr);

    /**
     * @return the geometry the hierarchy uses for its unified L2.
     * The multi-core machine builds its shared L2 from this so the
     * externally owned cache has the geometry a private one would.
     */
    static CacheConfig l2CacheConfig(const MemConfig& config);

    /**
     * Switch Hyper-Threading mode: partitions (HT on) or unifies
     * (HT off) the ITLB. Caches are shared in both modes.
     */
    void setHyperThreading(bool enabled);

    /**
     * Request the trace line containing code address @p vaddr.
     * A trace-cache hit delivers µops with no extra latency; a miss
     * walks the ITLB, reads the code block through the L2 and pays
     * the trace-build penalty.
     *
     * @param vaddr code virtual address (ITLB/L2 path).
     * @param trace_addr dense trace id (trace-cache key).
     * @param now current cycle (for FSB occupancy).
     * @param force_rebuild treat a resident trace as stale (path
     *        mismatch) and take the full rebuild path.
     */
    FetchLineResult fetchLine(Asid asid, Addr vaddr, Addr trace_addr,
                              ContextId ctx, Cycle now,
                              bool force_rebuild = false);

    /**
     * Perform a data access at @p vaddr.
     * Walks DTLB, L1D, L2 and DRAM as needed.
     */
    DataAccessResult dataAccess(Asid asid, Addr vaddr, ContextId ctx,
                                bool is_write, Cycle now);

    /**
     * Deterministic page-granular virtual-to-physical mapping.
     * Exposed for tests; models an OS page allocator by hashing
     * (asid, virtual page) to a physical page.
     */
    Addr translate(Asid asid, Addr vaddr) const;

    /** @return trace cache structure (tests/inspection). */
    const Cache& traceCache() const { return _traceCache; }
    /** @return L1 data cache structure. */
    const Cache& l1d() const { return _l1d; }
    /** @return unified L2 structure (shared one when attached). */
    const Cache& l2() const { return *_l2; }
    /** @return instruction TLB. */
    const Tlb& itlb() const { return _itlb; }
    /** @return data TLB. */
    const Tlb& dtlb() const { return _dtlb; }
    /** @return configuration. */
    const MemConfig& config() const { return _config; }

    /** Attach (or detach, with nullptr) an event tracer. */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        _trace = sink;
    }

    /** @name Shared-L2 quantum view (chip slices only) */
    ///@{
    /** @return whether this hierarchy reads a shared L2. */
    bool sharesL2() const { return _overlay.has_value(); }

    /**
     * Record the stepping cycle that keys the accesses that follow
     * in the log; the Stepper stamps it every cycle.
     */
    void stampL2Clock(Cycle cycle) { _l2Clock = cycle; }

    /**
     * @return the shared-L2 accesses of the current quantum, in
     * program order. The barrier merges and clears it.
     */
    std::vector<L2LogEntry>& l2Log() { return _l2Log; }

    /**
     * Start a quantum: the overlay drops its copies and reads the
     * shared L2 as it stands now. Call with an empty log.
     */
    void beginL2Quantum() { _overlay->begin(); }
    ///@}

  private:
    /** Charge one line transfer on the FSB; @return queueing delay. */
    std::uint32_t fsbOccupy(Cycle now);

    /** Charge one L2 port slot; @return queueing delay. */
    std::uint32_t l2Occupy(Cycle now);

    /**
     * Walk the page tables for @p vaddr: fetches the PTE through
     * the L2. @return total walk latency.
     */
    std::uint32_t pageWalk(Asid asid, Addr vaddr, ContextId ctx,
                           Cycle now);

    /** L2-and-below access shared by code and data paths. */
    std::uint32_t accessL2Line(Asid asid, Addr paddr, ContextId ctx,
                               Cycle now, bool& l2_hit);

    MemConfig _config;
    Pmu& _pmu;
    trace::TraceSink* _trace = nullptr;
    bool _hyperThreading = false;
    Cache _traceCache;
    Cache _l1d;
    /** The private L2; empty on a chip slice. */
    std::optional<Cache> _privateL2;
    /** Points at _privateL2 or at the chip's shared L2. */
    Cache* _l2;
    /** A chip slice's view of the shared L2; empty otherwise. */
    std::optional<L2Overlay> _overlay;
    Cycle _l2Clock = 0;
    std::vector<L2LogEntry> _l2Log;
    Tlb _itlb;
    Tlb _dtlb;
    Cycle _fsbNextFree = 0;
    Cycle _l2NextFree = 0;

    /** log2(pageBytes); pages are validated power-of-two. */
    std::uint32_t _pageShift = 12;
};

} // namespace jsmt

#endif // JSMT_MEM_MEMORY_SYSTEM_H
