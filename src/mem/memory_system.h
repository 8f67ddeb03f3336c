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

#include <array>
#include <cstdint>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/l2_gate.h"
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
     *        per-core (private bus ports). Null (the default) keeps
     *        the single-core behaviour bit-identical.
     */
    MemorySystem(const MemConfig& config, Pmu& pmu,
                 Cache* shared_l2 = nullptr);

    /**
     * @return the geometry the hierarchy uses for its unified L2.
     * The multi-core machine builds its shared L2 from this so the
     * externally owned cache matches the private one exactly.
     */
    static CacheConfig l2CacheConfig(const MemConfig& config);

    /**
     * Switch Hyper-Threading mode: partitions (HT on) or unifies
     * (HT off) the ITLB. Caches are shared in both modes.
     */
    void setHyperThreading(bool enabled);

    /**
     * The memory system's contribution to the simulation event
     * horizon (DESIGN.md §9). Always kNoCycle: the hierarchy has no
     * autonomous clocked events — every miss and bus/DRAM queueing
     * delay is latency-resolved at access time, so each
     * memory-driven wakeup already surfaces through the core's
     * ROB-head completion and fetch-gate bounds. The FSB/L2 busy
     * cursors (_fsbNextFree/_l2NextFree) constrain only *future*
     * accesses; they never wake a stalled machine by themselves.
     */
    Cycle nextEventCycle() const { return kNoCycle; }

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

    /** Drop all cached state (used between harness runs). */
    void flushAll();

    /** @return trace cache structure (tests/inspection). */
    const Cache& traceCache() const { return _traceCache; }
    /** @return L1 data cache structure. */
    const Cache& l1d() const { return _l1d; }
    /** @return unified L2 structure (shared one when attached). */
    const Cache& l2() const { return *_l2use; }
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

    /**
     * Attach (or detach, with nullptr) the cross-core ordering gate
     * of the shared L2, identifying this hierarchy as core
     * @p core of the chip. While attached, every access that reaches
     * the L2 first awaits its turn in the deterministic global
     * access order (see L2AccessGate); the multi-core stepping
     * engine attaches the gate for the duration of a run. Only
     * meaningful with a shared L2 — a private L2 has no cross-core
     * accesses to order.
     */
    void
    setL2Gate(L2AccessGate* gate, std::uint32_t core = 0)
    {
        _l2Gate = gate;
        _l2GateCore = core;
    }

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
    /** Cross-core ordering gate of the shared L2 (engine-attached). */
    L2AccessGate* _l2Gate = nullptr;
    std::uint32_t _l2GateCore = 0;
    bool _hyperThreading = false;
    Cache _traceCache;
    Cache _l1d;
    Cache _l2;
    /** Points at _l2 or at an external shared L2 (multi-core). */
    Cache* _l2use;
    Tlb _itlb;
    Tlb _dtlb;
    Cycle _fsbNextFree = 0;
    Cycle _l2NextFree = 0;

    /** log2(pageBytes); pages are validated power-of-two. */
    std::uint32_t _pageShift = 12;

    // Access memos (bit-identical fast paths, Cache::accessFast).
    // Instruction fetch re-touches the same trace line, so one memo
    // per context suffices; data streams hop lines/pages, so the
    // DTLB and L1D keep direct-mapped memo tables indexed by the
    // low tag bits. 256 slots covers every resident line of the
    // 128-line L1D / 128-entry DTLB, so nearly all hits take the
    // walk-free path.
    static constexpr std::uint32_t kMemoSlots = 256;
    using AccessMemoTable =
        std::array<Cache::AccessMemo, kMemoSlots>;
    std::array<Cache::AccessMemo, kNumContexts> _tcMemo{};
    std::array<AccessMemoTable, kNumContexts> _l1dMemo{};
    std::array<AccessMemoTable, kNumContexts> _dtlbMemo{};
};

} // namespace jsmt

#endif // JSMT_MEM_MEMORY_SYSTEM_H
