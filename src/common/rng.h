/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in jsmt flows through Rng so that runs are
 * exactly reproducible from a seed. The generator is xoshiro256**,
 * seeded through SplitMix64, both implemented locally so results do
 * not depend on standard-library implementation details.
 */

#ifndef JSMT_COMMON_RNG_H
#define JSMT_COMMON_RNG_H

#include <array>
#include <cmath>
#include <cstdint>

namespace jsmt {

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Each simulated thread owns its own Rng forked from the machine seed,
 * so adding or removing one thread never perturbs the random streams
 * of the others.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    // The draw primitives are inline: workload synthesis makes tens
    // of millions of draws per simulated second, so the call
    // overhead of an out-of-line xoshiro step is measurable.

    /** @return next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;
        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);
        return result;
    }

    /** @return uniform integer in [0, bound); bound 0 yields 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Simple modulo mapping; the tiny modulo bias is irrelevant
        // for workload synthesis.
        return next() % bound;
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        if (hi <= lo)
            return lo;
        return lo + below(hi - lo + 1);
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** threshold() of any p >= 1: every draw lies below it. */
    static constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;

    /**
     * Integer form of the comparison `uniform() < p`: with
     * x = next() >> 11, the draw is x * 2^-53, and x * 2^-53 < p holds
     * exactly when x < threshold(p) = ceil(p * 2^53) (the scaling by a
     * power of two is exact, and x is an integer). Clamped to 0 for
     * p <= 0 and to kAlways for p >= 1, so the equivalence holds for
     * every p; NaN maps to 0 (profiles reject NaN fractions).
     */
    static std::uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kAlways;
        return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    }

    /**
     * chance(p) for a precomputed threshold(p): bit-identical result
     * and draw consumption (no draw when p <= 0 or p >= 1), but one
     * integer compare instead of a conversion and two float compares.
     */
    bool
    chanceBelow(std::uint64_t threshold)
    {
        // One unsigned compare catches both no-draw edges: 0 wraps
        // to the maximum, kAlways lands exactly on the bound.
        if (threshold - 1 >= kAlways - 1)
            return threshold != 0;
        return (next() >> 11) < threshold;
    }

    /**
     * Geometric distribution: number of failures before first success
     * with success probability p, clamped to [0, cap].
     *
     * Inline hot path: one draw plus a short scan of the shared
     * acceptance intervals for p (see GeoDist); the table build and
     * the boundary-sliver reference computation stay out of line.
     */
    std::uint64_t
    geometric(double p, std::uint64_t cap = 1u << 20)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return cap;
        if (_geo->p != p)
            _geo = &geoDistFor(p);
        const GeoDist& dist = *_geo;
        // O(1) dispatch: buckets provably inside one acceptance
        // interval store its k. The draw u is raw * 2^-53 and the
        // bucket count is a power of two, so the bucket index
        // floor(u * kBuckets) is just the top kBucketBits of raw —
        // the common case never touches a double at all.
        const std::uint64_t raw = next() >> 11;
        const std::uint32_t k =
            dist.bucket[raw >> (53 - GeoDist::kBucketBits)];
        if (k != GeoDist::kSlowBucket)
            return k > cap ? cap : k;
        const double u = static_cast<double>(raw) * 0x1.0p-53;
        for (std::uint32_t j = 0; j < dist.len; ++j) {
            if (u <= dist.hi[j]) {
                if (u >= dist.lo[j])
                    return j > cap ? cap : j;
                break; // Boundary sliver: reference path.
            }
        }
        return geometricSlow(u, dist, cap);
    }

    /**
     * Fork a statistically independent child generator. Used to hand
     * each thread/component its own stream.
     */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * Acceptance intervals for one geometric(p), shared by every Rng
     * in the process (see geoDistFor).
     *
     * The reference draw is n = floor(log1p(-u) / log1p(-p)). For
     * each small n this precomputes a slightly-shrunk u interval on
     * which the floored quotient is provably n even under the
     * rounding of log1p and the division (the shrink margin is ~1e-6
     * in quotient units, ten orders of magnitude above the actual
     * rounding error). Draws landing inside an interval skip the
     * libm call; the ~1e-6 sliver near each boundary — and the tail
     * past the table — falls back to the reference computation, so
     * every draw is bit-identical to it.
     */
    struct GeoDist
    {
        /**
         * Bucket-table dispatch over u-space: bucket j covers
         * [j, j+1) / kBuckets. A bucket lying entirely inside one
         * acceptance interval stores that interval's k and the hot
         * path answers with one table load; buckets straddling an
         * interval boundary (or past the table) store kSlowBucket
         * and fall back to the scan, so every draw still returns
         * exactly what the reference computation would.
         */
        static constexpr std::uint32_t kBucketBits = 11;
        static constexpr std::uint32_t kBuckets = 1u << kBucketBits;
        static constexpr std::uint8_t kSlowBucket = 0xff;

        double p = -1.0;
        double logDenom = 0.0;
        std::uint32_t len = 0;
        std::array<double, 48> lo{};
        std::array<double, 48> hi{};
        std::array<std::uint8_t, kBuckets> bucket{};
    };

    /**
     * @return the process-wide interval table for @p p, built on
     * first use. Tables are immutable and never freed, so the
     * returned reference stays valid for the life of the process and
     * may be shared by any number of threads.
     */
    static const GeoDist& geoDistFor(double p);

    /** Reference computation for draws outside the interval table. */
    static std::uint64_t geometricSlow(double u, const GeoDist& dist,
                                       std::uint64_t cap);

    /** Sentinel table (p = -1) that no geometric(p) call matches. */
    static const GeoDist kNoGeoDist;

    std::array<std::uint64_t, 4> _state;

    // Most-recently-used shared table: each Rng sees at most a
    // handful of distinct p values (app, kernel and collector
    // profiles) and mostly the same one back to back, so the common
    // case is a single compare; a change of p costs one registry
    // lookup.
    const GeoDist* _geo = &kNoGeoDist;
};

} // namespace jsmt

#endif // JSMT_COMMON_RNG_H
