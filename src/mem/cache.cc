#include "mem/cache.h"

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

void
Cache::keyTooWide() const
{
    fatal("cache " + _config.name +
          ": address/asid exceeds packed-key width");
}

bool
Cache::access(Asid asid, Addr addr, ContextId ctx)
{
    ++_accesses;
    ++_useClock;
    const std::uint32_t set = setIndex(addr, ctx);
    const LineKey key = keyOf(asid, addr);
    Line* const base =
        &_lines[static_cast<std::size_t>(set) * _config.ways];
    const std::uint32_t ways = _config.ways;
    std::uint32_t victim = 0;
    const std::uint32_t hit = walkSet(base, ways, key, victim);
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
    const Addr tag = addr >> _lineShift;
    if ((tag >> kAsidShift) != 0 || asid >= kMaxAsid)
        return false; // Could never have been installed.
    const LineKey key = makeKey(asid, tag);
    const Line* base = setLines(set);
    for (std::uint32_t w = 0; w < _config.ways; ++w) {
        if (base[w].key == key)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line& line : _lines)
        line = Line{};
    _validLines = 0;
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

} // namespace jsmt
