#include "common/rng.h"

#include <cmath>
#include <map>
#include <mutex>

namespace jsmt {

namespace {

/** SplitMix64 step, used for seed expansion. */
std::uint64_t
splitMix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& word : _state)
        word = splitMix64(s);
    // xoshiro must not be seeded with all zeros; SplitMix64 cannot
    // produce four zero outputs in a row, but be defensive anyway.
    if (_state[0] == 0 && _state[1] == 0 && _state[2] == 0 &&
        _state[3] == 0) {
        _state[0] = 1;
    }
}

const Rng::GeoDist Rng::kNoGeoDist{};

const Rng::GeoDist&
Rng::geoDistFor(double p)
{
    // Built once per distinct p and never freed (the registry itself
    // is deliberately leaked): std::map nodes never move, so
    // references handed out stay valid through later insertions,
    // across threads and through static destruction.
    static std::mutex mutex;
    static auto* const tables = new std::map<double, GeoDist>();
    const std::lock_guard<std::mutex> lock(mutex);
    GeoDist& dist = (*tables)[p];
    if (dist.p == p)
        return dist;
    dist.p = p;
    dist.logDenom = std::log1p(-p);
    // Interval for result k, shrunk by kMargin in quotient units on
    // each side. The quotient's rounding error is bounded by a few
    // ulps (|q| <= 48 here, so absolute error < 1e-13), and the
    // expm1 below is itself faithful, so any u inside [lo, hi] is
    // guaranteed to floor to k in the reference computation.
    constexpr double kMargin = 1e-6;
    for (std::size_t k = 0; k < dist.lo.size(); ++k) {
        const double q = static_cast<double>(k);
        const double lo = -std::expm1((q + kMargin) * dist.logDenom);
        const double hi =
            -std::expm1((q + 1.0 - kMargin) * dist.logDenom);
        if (!(lo < hi) || !(hi < 1.0))
            break;
        dist.lo[k] = lo;
        dist.hi[k] = hi;
        ++dist.len;
    }
    // The quotient is never negative (both logs are negative), so
    // every u below hi[0] floors to 0.
    if (dist.len > 0)
        dist.lo[0] = 0.0;
    // Bucket table: j covers u in [j, j+1) / kBuckets (both edges
    // exact doubles). The bucket takes interval k only when it lies
    // entirely inside [lo[k], hi[k]]: then any u in the bucket
    // satisfies lo[k] <= u < hi[k], and since u > hi[k-1] the scan's
    // first match is k. Everything else keeps the slow marker.
    dist.bucket.fill(GeoDist::kSlowBucket);
    std::uint32_t k = 0;
    for (std::uint32_t j = 0; j < GeoDist::kBuckets; ++j) {
        const double blo = static_cast<double>(j) / GeoDist::kBuckets;
        const double bhi =
            static_cast<double>(j + 1) / GeoDist::kBuckets;
        while (k < dist.len && dist.hi[k] < bhi)
            ++k;
        if (k >= dist.len)
            break;
        if (dist.lo[k] <= blo && bhi <= dist.hi[k])
            dist.bucket[j] = static_cast<std::uint8_t>(k);
    }
    return dist;
}

std::uint64_t
Rng::geometricSlow(double u, const GeoDist& dist, std::uint64_t cap)
{
    const double v = std::log1p(-u) / dist.logDenom;
    const auto n = static_cast<std::uint64_t>(v);
    return n > cap ? cap : n;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace jsmt
