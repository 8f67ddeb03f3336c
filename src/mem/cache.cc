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
    _numLines = static_cast<std::size_t>(_numSets) * config.ways;
    _block.resize(2 * _numLines);
}

void
Cache::keyTooWide() const
{
    fatal("cache " + _config.name +
          ": address/asid exceeds packed-key width");
}

std::uint32_t
Cache::victimWay(const std::uint64_t* stamps, std::uint32_t ways)
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < ways; ++w) {
        const bool older = stamps[w] <= oldest;
        victim = older ? w : victim;
        oldest = older ? stamps[w] : oldest;
    }
    return victim;
}

void
Cache::fill(std::size_t first, LineKey key)
{
    const std::size_t line =
        first + victimWay(&_block[_numLines + first], _config.ways);
    const LineKey victim = _block[line];
    ++_misses;
    if (victim != 0) {
        ++_evictions;
        if ((victim >> kAsidShift) != (key >> kAsidShift))
            ++_crossAsidEvictions;
    } else {
        ++_validLines;
    }
    _block[line] = key;
    _block[_numLines + line] = _useClock;
}

bool
Cache::lookup(Asid asid, Addr addr, ContextId ctx) const
{
    const std::uint32_t set = setIndex(addr, ctx);
    const Addr tag = addr >> _lineShift;
    if ((tag >> kAsidShift) != 0 || asid >= kMaxAsid)
        return false; // Could never have been installed.
    const std::uint32_t ways = _config.ways;
    return findWay(&_block[static_cast<std::size_t>(set) * ways], ways,
                   makeKey(asid, tag)) != ways;
}

void
Cache::flush()
{
    // Every fill counts a valid line, so none means all zeros.
    if (_validLines == 0)
        return;
    std::fill(_block.begin(), _block.end(), 0);
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
