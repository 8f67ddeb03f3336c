/**
 * @file
 * Unit tests for ExactDiv: the precomputed quotient and remainder
 * equal the hardware `/` and `%` on edge numerators for every class
 * of divisor, and constructing a divisor again — in sequence or from
 * concurrent TaskPool workers — yields the same exact reductions.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/exact_div.h"
#include "common/rng.h"
#include "exec/task_pool.h"

namespace jsmt {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

/** 1, 3, 7, 2^63 + 1, and 2^k, 2^k - 1, 2^k + 1 for k in [1, 63]. */
std::vector<std::uint64_t>
divisors()
{
    std::vector<std::uint64_t> out = {1, 3, 7, (std::uint64_t{1} << 63) + 1};
    for (int k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        out.push_back(p);
        out.push_back(p - 1);
        out.push_back(p + 1);
    }
    return out;
}

/** Expect @p div to reduce like `/` and `%` on the edge numerators. */
void
expectExact(const ExactDiv& div)
{
    const std::uint64_t d = div.divisor();
    for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                                  d - 1, d, d + 1, kMax}) {
        EXPECT_EQ(div.quotient(n), n / d) << n << " / " << d;
        EXPECT_EQ(div.mod(n), n % d) << n << " % " << d;
    }
}

TEST(ExactDiv, MatchesHardwareDivideOnEdgeNumerators)
{
    for (const std::uint64_t d : divisors())
        expectExact(ExactDiv(d));
}

TEST(ExactDiv, ConstructingADivisorAgainGivesTheSameReductions)
{
    for (const std::uint64_t d : divisors()) {
        const ExactDiv first(d);
        const ExactDiv second(d);
        expectExact(second);
        for (const std::uint64_t n : {std::uint64_t{12345}, kMax / 3})
            EXPECT_EQ(first.quotient(n), second.quotient(n));
    }
}

TEST(ExactDiv, DrawReproducesRngBelow)
{
    for (const std::uint64_t d : {std::uint64_t{0}, std::uint64_t{7},
                                  std::uint64_t{4096},
                                  std::uint64_t{1000003}}) {
        Rng via_div(99);
        Rng via_below(99);
        const ExactDiv div(d);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(div.draw(via_div), via_below.below(d));
        // A zero divisor consumes no draw, as below(0) does not.
        EXPECT_EQ(via_div.next(), via_below.next());
    }
}

TEST(ExactDiv, ConcurrentConstructionFromPoolWorkers)
{
    // Every worker builds every divisor, so first constructions of a
    // divisor race each other through the checked-divisor registry.
    // Divisors no other test builds come first, so the workers race
    // on first constructions too.
    std::vector<std::uint64_t> all;
    for (const std::uint64_t d : divisors())
        all.push_back((d | 1) * 1'000'003); // Odd, so never 0.
    for (const std::uint64_t d : divisors())
        all.push_back(d);
    exec::TaskPool pool(4);
    std::vector<int> exact(16, 0);
    pool.parallelFor(exact.size(), [&](std::size_t i) {
        bool ok = true;
        for (const std::uint64_t d : all) {
            const ExactDiv div(d);
            ok = ok && div.quotient(kMax) == kMax / d &&
                 div.mod(kMax - i) == (kMax - i) % d;
        }
        exact[i] = ok ? 1 : 0;
    });
    for (const int ok : exact)
        EXPECT_EQ(ok, 1);
}

} // namespace
} // namespace jsmt
