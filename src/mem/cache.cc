#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace jsmt {

namespace {

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig& config)
    : _config(config),
      _partitioned(config.sharing == Sharing::kPartitionedSets)
{
    if (config.lineBytes == 0 || !isPowerOfTwo(config.lineBytes))
        fatal("cache " + config.name + ": line size must be a power "
              "of two");
    if (config.ways == 0)
        fatal("cache " + config.name + ": needs at least one way");
    const std::uint64_t lines =
        config.sizeBytes / config.lineBytes;
    if (lines == 0 || lines % config.ways != 0)
        fatal("cache " + config.name + ": size/line/ways mismatch");
    const std::uint64_t sets = lines / config.ways;
    if (!isPowerOfTwo(sets))
        fatal("cache " + config.name + ": set count must be a power "
              "of two");
    if (_partitioned && sets < 2)
        fatal("cache " + config.name + ": cannot partition one set");
    _numSets = static_cast<std::uint32_t>(sets);
    _lineShift = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(config.lineBytes)));
    _lines.resize(static_cast<std::size_t>(_numSets) * config.ways);
}

std::uint32_t
Cache::setIndex(Addr addr, ContextId ctx) const
{
    const Addr line = addr >> _lineShift;
    if (!_partitioned)
        return static_cast<std::uint32_t>(line & (_numSets - 1));
    // Static partition: each context indexes only its half of the
    // sets, modelling the P4's per-logical-processor split.
    const std::uint32_t half = _numSets / 2;
    const auto within =
        static_cast<std::uint32_t>(line & (half - 1));
    return within + (ctx % kNumContexts) * half;
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> _lineShift;
}

bool
Cache::access(Asid asid, Addr addr, ContextId ctx)
{
    ++_accesses;
    ++_useClock;
    const std::uint32_t set = setIndex(addr, ctx);
    const Addr tag = tagOf(addr);
    if ((tag >> kAsidShift) != 0 || asid >= kMaxAsid)
        fatal("cache " + _config.name +
              ": address/asid exceeds packed-key width");
    const LineKey key = makeKey(asid, tag);
    Line* const base =
        &_lines[static_cast<std::size_t>(set) * _config.ways];
    const std::uint32_t ways = _config.ways;

    // One walk over every way, selects instead of branches and no
    // early exit: it finds the hit way, if any, and the victim —
    // the last invalid way if there is one, else the least recently
    // used. Invalid lines stamp 0 and valid stamps are distinct and
    // positive, so the victim is the last way whose stamp is <=
    // every earlier one.
    std::uint32_t hit = ways;
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < ways; ++w) {
        const Line& line = base[w];
        hit = line.key == key ? w : hit;
        const bool older = line.lastUse <= oldest;
        victim = older ? w : victim;
        oldest = older ? line.lastUse : oldest;
    }
    if (hit != ways) {
        base[hit].lastUse = _useClock;
        return true;
    }

    Line& line = base[victim];
    ++_misses;
    if (line.key != 0) {
        ++_evictions;
        if ((line.key >> kAsidShift) !=
            (static_cast<LineKey>(asid) + 1))
            ++_crossAsidEvictions;
    } else {
        ++_validLines;
    }
    line.key = key;
    line.lastUse = _useClock;
    return false;
}

bool
Cache::lookup(Asid asid, Addr addr, ContextId ctx) const
{
    const std::uint32_t set = setIndex(addr, ctx);
    const Addr tag = tagOf(addr);
    if ((tag >> kAsidShift) != 0 || asid >= kMaxAsid)
        return false; // Could never have been installed.
    const LineKey key = makeKey(asid, tag);
    const Line* base =
        &_lines[static_cast<std::size_t>(set) * _config.ways];
    for (std::uint32_t w = 0; w < _config.ways; ++w) {
        if (base[w].key == key)
            return true;
    }
    return false;
}

void
Cache::beginOverlay(const Cache& base)
{
    _overlayStamp.resize(_numSets);
    ++_overlayQuantum;
    _useClock = base._useClock;
}

bool
Cache::accessOverlay(const Cache& base, Asid asid, Addr addr)
{
    const std::uint32_t set = setIndex(addr, 0);
    if (_overlayStamp[set] != _overlayQuantum) {
        _overlayStamp[set] = _overlayQuantum;
        const std::size_t first =
            static_cast<std::size_t>(set) * _config.ways;
        std::copy_n(base._lines.begin() + first, _config.ways,
                    _lines.begin() + first);
    }
    return access(asid, addr, 0);
}

void
Cache::flush()
{
    for (Line& line : _lines)
        line = Line{};
    _validLines = 0;
}

void
Cache::flushAsid(Asid asid)
{
    const LineKey owner = static_cast<LineKey>(asid) + 1;
    for (Line& line : _lines) {
        if (line.key != 0 && (line.key >> kAsidShift) == owner) {
            line = Line{};
            --_validLines;
        }
    }
}

void
Cache::setPartitioned(bool partitioned_flag)
{
    if (partitioned_flag == _partitioned)
        return;
    _partitioned = partitioned_flag;
    // Repartitioning changes the index function; invalidate so stale
    // placements cannot produce phantom hits.
    flush();
}

void
Cache::clearStats()
{
    _accesses = 0;
    _misses = 0;
    _evictions = 0;
    _crossAsidEvictions = 0;
}

} // namespace jsmt
