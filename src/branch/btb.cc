#include "branch/btb.h"

namespace jsmt {

namespace {

CacheConfig
toCacheConfig(const BtbConfig& config)
{
    CacheConfig cache_config;
    cache_config.name = "btb";
    // One entry per 64-byte code line: the model consults the BTB
    // once per line-ending taken branch, so indexing at line
    // granularity spreads consecutive branches across sets.
    cache_config.lineBytes = 64;
    cache_config.sizeBytes =
        static_cast<std::uint64_t>(config.entries) * 64;
    cache_config.ways = config.ways;
    cache_config.sharing = Sharing::kShared;
    return cache_config;
}

} // namespace

Btb::Btb(const BtbConfig& config) : _cache(toCacheConfig(config))
{
}

Asid
Btb::effectiveAsid(Asid asid, ContextId ctx) const
{
    // In HT mode the logical-processor id is folded into the tag:
    // contexts can evict but never reuse each other's entries.
    if (_hyperThreading)
        return asid * 2 + (ctx % kNumContexts);
    return asid * 2;
}

bool
Btb::access(Asid asid, Addr pc, ContextId ctx)
{
    // pc is dense (trace-id based), so raw indexing spreads
    // consecutive branches across consecutive sets.
    return _cache.access(effectiveAsid(asid, ctx), pc, ctx);
}

void
Btb::setHyperThreading(bool enabled)
{
    if (enabled == _hyperThreading)
        return;
    _hyperThreading = enabled;
    _cache.flush();
}

} // namespace jsmt
