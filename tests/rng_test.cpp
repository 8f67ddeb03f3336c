/**
 * @file
 * Unit tests for the deterministic random-number generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "jvm/benchmarks.h"

namespace jsmt {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(19);
    const double p = 0.25;
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / kN, 3.0, 0.15);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(rng.geometric(0.001, 10), 10u);
    EXPECT_EQ(rng.geometric(0.0, 42), 42u);
    EXPECT_EQ(rng.geometric(1.0), 0u);
}

/** Probabilities the threshold form must decide exactly. */
std::vector<double>
thresholdProbes()
{
    std::vector<double> ps = {0.0, 1.0, -0.25, 1.25, 0.3};
    // Dyadic p (exact multiples of 2^-k, where x * 2^-53 can equal p)
    // and their neighbours one ulp either side.
    for (int k = 1; k <= 53; ++k) {
        for (const double m : {1.0, 3.0, 5.0}) {
            const double d = std::ldexp(m, -k - 2);
            ps.push_back(d);
            ps.push_back(std::nextafter(d, 0.0));
            ps.push_back(std::nextafter(d, 2.0));
        }
    }
    ps.push_back(std::nextafter(1.0, 0.0));
    ps.push_back(std::nextafter(0.0, 1.0));
    // Every fraction (and cumulative mix bound) a profile draws
    // against.
    std::vector<WorkloadProfile> profiles = {kernelProfile()};
    for (const std::string& name : benchmarkNames())
        profiles.push_back(benchmarkProfile(name));
    for (const WorkloadProfile& p : profiles) {
        const double store_hi = p.loadFrac + p.storeFrac;
        const double fp_hi = store_hi + p.fpFrac;
        for (const double f :
             {p.loadFrac, store_hi, fp_hi, fp_hi + p.branchFrac,
              p.mispredictRate, p.codeJumpLocal, p.traceDiversity,
              p.privateFrac, p.crossThreadFrac, p.sweepFrac, p.hotFrac,
              p.hotFrac + p.warmFrac}) {
            ps.push_back(f);
        }
    }
    return ps;
}

TEST(Rng, ThresholdDecidesExactlyLikeUniformCompare)
{
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
    Rng rng(37);
    for (const double p : thresholdProbes()) {
        const std::uint64_t t = Rng::threshold(p);
        // Raws at and around the threshold, the range ends, and
        // random draws.
        std::vector<std::uint64_t> xs = {0, 1, kTop - 1};
        for (const std::uint64_t dx : {0ull, 1ull, 2ull}) {
            if (t >= dx && t - dx < kTop)
                xs.push_back(t - dx);
            if (t + dx < kTop)
                xs.push_back(t + dx);
        }
        for (int i = 0; i < 2000; ++i)
            xs.push_back(rng.next() >> 11);
        for (const std::uint64_t x : xs) {
            ASSERT_EQ(static_cast<double>(x) * 0x1.0p-53 < p, x < t)
                << "p=" << p << " x=" << x << " threshold=" << t;
        }
    }
}

TEST(Rng, ChanceBelowMatchesChanceAndDrawCount)
{
    for (const double p : thresholdProbes()) {
        Rng a(41);
        Rng b(41);
        const std::uint64_t t = Rng::threshold(p);
        for (int i = 0; i < 500; ++i)
            ASSERT_EQ(a.chance(p), b.chanceBelow(t)) << "p=" << p;
        // Both consumed the same number of draws.
        EXPECT_EQ(a.next(), b.next()) << "p=" << p;
    }
}

TEST(Rng, ForkIndependence)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next() == child.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

} // namespace
} // namespace jsmt
