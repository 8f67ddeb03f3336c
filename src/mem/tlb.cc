#include "mem/tlb.h"

#include "common/log.h"

namespace jsmt {

namespace {

CacheConfig
toCacheConfig(const TlbConfig& config)
{
    if (config.entries == 0)
        fatal("tlb " + config.name + ": needs at least one entry");
    CacheConfig cache_config;
    cache_config.name = config.name;
    cache_config.lineBytes = config.pageBytes;
    cache_config.sizeBytes =
        static_cast<std::uint64_t>(config.entries) * config.pageBytes;
    cache_config.ways = config.ways;
    cache_config.sharing = config.sharing;
    return cache_config;
}

} // namespace

Tlb::Tlb(const TlbConfig& config)
    : _pageBytes(config.pageBytes), _cache(toCacheConfig(config))
{
}

bool
Tlb::access(Asid asid, Addr vaddr, ContextId ctx)
{
    return _cache.access(asid, vaddr, ctx);
}

void
Tlb::flush()
{
    _cache.flush();
}

void
Tlb::setPartitioned(bool partitioned_flag)
{
    _cache.setPartitioned(partitioned_flag);
}

} // namespace jsmt
