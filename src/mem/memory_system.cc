#include "mem/memory_system.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace jsmt {

namespace {

/** Stateless 64-bit mix (SplitMix64 finaliser). */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

CacheConfig
traceCacheConfig(const MemConfig& config)
{
    CacheConfig cache_config;
    cache_config.name = "trace_cache";
    cache_config.lineBytes = config.lineBytes;
    cache_config.sizeBytes =
        static_cast<std::uint64_t>(config.traceCacheLines) *
        config.lineBytes;
    cache_config.ways = config.traceCacheWays;
    cache_config.sharing = Sharing::kShared;
    return cache_config;
}

CacheConfig
l1dConfig(const MemConfig& config)
{
    CacheConfig cache_config;
    cache_config.name = "l1d";
    cache_config.lineBytes = config.lineBytes;
    cache_config.sizeBytes = config.l1dBytes;
    cache_config.ways = config.l1dWays;
    cache_config.sharing = Sharing::kShared;
    return cache_config;
}

CacheConfig
l2Config(const MemConfig& config)
{
    CacheConfig cache_config;
    cache_config.name = "l2";
    cache_config.lineBytes = config.lineBytes;
    cache_config.sizeBytes = config.l2Bytes;
    cache_config.ways = config.l2Ways;
    cache_config.sharing = Sharing::kShared;
    return cache_config;
}

TlbConfig
itlbConfig(const MemConfig& config)
{
    TlbConfig tlb_config;
    tlb_config.name = "itlb";
    tlb_config.entries = config.itlbEntries;
    tlb_config.ways = config.itlbWays;
    tlb_config.pageBytes = config.pageBytes;
    // Starts shared; setHyperThreading() partitions it.
    tlb_config.sharing = Sharing::kShared;
    return tlb_config;
}

TlbConfig
dtlbConfig(const MemConfig& config)
{
    TlbConfig tlb_config;
    tlb_config.name = "dtlb";
    tlb_config.entries = config.dtlbEntries;
    tlb_config.ways = config.dtlbWays;
    tlb_config.pageBytes = config.pageBytes;
    tlb_config.sharing = Sharing::kShared;
    return tlb_config;
}

} // namespace

CacheConfig
MemorySystem::l2CacheConfig(const MemConfig& config)
{
    return l2Config(config);
}

L2Overlay::L2Overlay(const Cache& shared)
    : _shared(shared), _slotOf(shared.numSets(), 0)
{
    begin();
}

void
L2Overlay::begin()
{
    for (const std::uint32_t set : _sets)
        _slotOf[set] = 0;
    _sets.clear();
    _lines.clear();
    _useClock = _shared._useClock;
}

bool
L2Overlay::access(Asid asid, Addr addr)
{
    ++_useClock;
    const std::uint32_t set = _shared.setIndex(addr, 0);
    const Cache::LineKey key = _shared.keyOf(asid, addr);
    const std::uint32_t ways = _shared.ways();
    if (_slotOf[set] == 0) {
        _sets.push_back(set);
        _slotOf[set] = static_cast<std::uint32_t>(_sets.size());
        const auto keys =
            _shared._block.begin() + static_cast<std::size_t>(set) * ways;
        const auto stamps = keys + _shared._numLines;
        _lines.insert(_lines.end(), keys, keys + ways);
        _lines.insert(_lines.end(), stamps, stamps + ways);
    }
    std::uint64_t* const keys =
        &_lines[static_cast<std::size_t>(_slotOf[set] - 1) * 2 * ways];
    std::uint64_t* const stamps = keys + ways;
    const std::uint32_t hit = Cache::findWay(keys, ways, key);
    const std::uint32_t way =
        hit != ways ? hit : Cache::victimWay(stamps, ways);
    keys[way] = key;
    stamps[way] = _useClock;
    return hit != ways;
}

MemorySystem::MemorySystem(const MemConfig& config, Pmu& pmu,
                           Cache* shared_l2)
    : _config(config),
      _pmu(pmu),
      _traceCache(traceCacheConfig(config)),
      _l1d(l1dConfig(config)),
      _l2(shared_l2),
      _itlb(itlbConfig(config)),
      _dtlb(dtlbConfig(config))
{
    if (config.uopsPerTraceLine == 0)
        fatal("memory system: uopsPerTraceLine must be positive");
    // Translation has always assumed power-of-two pages (the offset
    // mask); make that explicit and precompute the shift so the hot
    // translate path needs no division.
    if (config.pageBytes == 0 ||
        (config.pageBytes & (config.pageBytes - 1)) != 0)
        fatal("memory system: pageBytes must be a power of two");
    _pageShift = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(config.pageBytes)));
    if (shared_l2 != nullptr)
        _overlay.emplace(*shared_l2);
    else
        _l2 = &_privateL2.emplace(l2Config(config));
}

void
MemorySystem::setHyperThreading(bool enabled)
{
    if (enabled == _hyperThreading)
        return;
    _hyperThreading = enabled;
    // On the Pentium 4 each logical processor has a private ITLB;
    // modelled as a static set partition of one structure.
    _itlb.setPartitioned(enabled);
    // Trace-cache entries are tagged with the logical-processor id
    // in HT mode; the tag scheme changes, so invalidate.
    _traceCache.flush();
}

Addr
MemorySystem::translate(Asid asid, Addr vaddr) const
{
    // Recomputed on every call: the hash is a few multiplies, cheaper
    // than the mispredicted memo check it would need on data streams
    // that alternate between pages. 1 GB of simulated physical
    // memory, as on the paper's machine.
    const Addr vpn = vaddr >> _pageShift;
    const Addr phys_pages = (1ULL << 30) >> _pageShift;
    const Addr ppn =
        mix64((static_cast<std::uint64_t>(asid) << 40) ^ vpn) &
        (phys_pages - 1);
    return (ppn << _pageShift) + (vaddr & (_config.pageBytes - 1));
}

std::uint32_t
MemorySystem::fsbOccupy(Cycle now)
{
    const Cycle start = std::max(now, _fsbNextFree);
    const auto wait = static_cast<std::uint32_t>(start - now);
    _fsbNextFree = start + _config.fsbCyclesPerLine;
    return wait;
}

std::uint32_t
MemorySystem::l2Occupy(Cycle now)
{
    const Cycle start = std::max(now, _l2NextFree);
    const auto wait = static_cast<std::uint32_t>(start - now);
    _l2NextFree = start + _config.l2PortCycles;
    return wait;
}

std::uint32_t
MemorySystem::pageWalk(Asid asid, Addr vaddr, ContextId ctx,
                       Cycle now)
{
    _pmu.record(EventId::kPageWalk, ctx);
    // The leaf page-table entry is fetched through the L2: page
    // tables live in memory. Each simulated page has an 8-byte PTE
    // in a per-asid table region, so workloads with wide page
    // footprints also push their page tables out of the L2.
    const Addr vpn = vaddr >> _pageShift;
    const Addr pte_vaddr =
        0x3'0000'0000ULL +
        (static_cast<Addr>(asid) << 28) + vpn * 8;
    const Addr pte_paddr = translate(kKernelAsid, pte_vaddr);
    bool l2_hit = true;
    const std::uint32_t mem_latency =
        accessL2Line(kKernelAsid, pte_paddr, ctx, now, l2_hit);
    return _config.pageWalkCycles + mem_latency;
}

std::uint32_t
MemorySystem::accessL2Line(Asid asid, Addr paddr, ContextId ctx,
                           Cycle now, bool& l2_hit)
{
    _pmu.record(EventId::kL2Access, ctx);
    const std::uint32_t port_wait = l2Occupy(now);
    if (_overlay) {
        // Chip slice: the shared L2 is read-only between barriers,
        // so read it through this quantum's overlay and log the
        // access for the barrier to apply (DESIGN.md §11).
        l2_hit = _overlay->access(asid, paddr);
        _l2Log.push_back({_l2Clock, paddr, asid});
    } else {
        l2_hit = _l2->access(asid, paddr, ctx);
    }
    if (l2_hit)
        return _config.l2HitCycles + port_wait;
    _pmu.record(EventId::kL2Miss, ctx);
    _pmu.record(EventId::kDramAccess, ctx);
    if (_trace != nullptr && _trace->enabled()) {
        _trace->instantArg(trace::Track::kMemory, "l2_miss", now,
                           "lcpu", ctx);
    }
    const std::uint32_t fsb_wait = fsbOccupy(now + port_wait);
    if (fsb_wait > 0)
        _pmu.record(EventId::kFsbBusyCycles, ctx, fsb_wait);
    return _config.l2HitCycles + _config.dramCycles + port_wait +
           fsb_wait;
}

FetchLineResult
MemorySystem::fetchLine(Asid asid, Addr vaddr, Addr trace_addr,
                        ContextId ctx, Cycle now,
                        bool force_rebuild)
{
    FetchLineResult result;
    _pmu.record(EventId::kTraceCacheAccess, ctx);
    // The trace cache is virtually addressed (a hit bypasses
    // translation) and, in HT mode, entries are tagged with the
    // logical-processor id: the two contexts compete for capacity
    // and cannot share traces, even when running identical code —
    // the mechanism behind the paper's Figure 3.
    const Asid tc_asid =
        asid * 2 + (_hyperThreading ? (ctx % kNumContexts) : 0);
    if (_traceCache.access(tc_asid, trace_addr, ctx) &&
        !force_rebuild) {
        result.latency = 0;
        return result;
    }
    result.traceCacheHit = false;
    _pmu.record(EventId::kTraceCacheMiss, ctx);
    if (_trace != nullptr && _trace->enabled()) {
        _trace->instantArg(trace::Track::kMemory, "tc_miss", now,
                           "lcpu", ctx);
    }

    // Miss path: translate through the ITLB, then build the trace
    // from the L2 image of the code.
    std::uint32_t latency = _config.traceBuildCycles;
    _pmu.record(EventId::kItlbAccess, ctx);
    if (!_itlb.access(asid, vaddr, ctx)) {
        result.itlbMiss = true;
        _pmu.record(EventId::kItlbMiss, ctx);
        latency += pageWalk(asid, vaddr, ctx, now + latency);
    }
    const Addr paddr = translate(asid, vaddr);
    bool l2_hit = true;
    latency += accessL2Line(asid, paddr, ctx, now + latency, l2_hit);
    result.latency = latency;
    return result;
}

DataAccessResult
MemorySystem::dataAccess(Asid asid, Addr vaddr, ContextId ctx,
                         bool is_write, Cycle now)
{
    (void)is_write; // Presence-only model: fills are identical.
    DataAccessResult result;
    std::uint32_t latency = 0;

    _pmu.record(EventId::kDtlbAccess, ctx);
    if (!_dtlb.access(asid, vaddr, ctx)) {
        _pmu.record(EventId::kDtlbMiss, ctx);
        latency += pageWalk(asid, vaddr, ctx, now);
    }

    const Addr paddr = translate(asid, vaddr);
    _pmu.record(EventId::kL1dAccess, ctx);
    if (_l1d.access(asid, paddr, ctx)) {
        result.latency = latency + _config.l1dHitCycles;
        return result;
    }
    result.l1Hit = false;
    _pmu.record(EventId::kL1dMiss, ctx);

    latency += _config.l1dHitCycles;
    bool l2_hit = true;
    latency += accessL2Line(asid, paddr, ctx, now + latency, l2_hit);
    result.l2Hit = l2_hit;
    result.latency = latency;
    return result;
}

} // namespace jsmt
