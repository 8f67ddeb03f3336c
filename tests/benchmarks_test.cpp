/**
 * @file
 * Tests for the benchmark registry and profile validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "jvm/benchmarks.h"

namespace jsmt {
namespace {

TEST(Benchmarks, RegistryMatchesPaperTable1)
{
    const auto& names = benchmarkNames();
    EXPECT_EQ(names.size(), 10u);
    // Table 1 contents.
    for (const char* expected :
         {"compress", "jess", "db", "javac", "mpegaudio", "jack",
          "MolDyn", "MonteCarlo", "RayTracer", "PseudoJBB"}) {
        EXPECT_TRUE(isBenchmark(expected)) << expected;
    }
}

TEST(Benchmarks, NineSingleThreadedPrograms)
{
    const auto& singles = singleThreadedNames();
    EXPECT_EQ(singles.size(), 9u);
    // PseudoJBB is not usable single-threaded in the paper's cross
    // product.
    for (const auto& name : singles)
        EXPECT_NE(name, "PseudoJBB");
}

TEST(Benchmarks, FourMultithreadedPrograms)
{
    const auto& multis = multiThreadedNames();
    EXPECT_EQ(multis.size(), 4u);
    for (const auto& name : multis) {
        EXPECT_GE(benchmarkProfile(name).defaultThreads, 2u)
            << name;
    }
}

TEST(Benchmarks, SpecJvmProgramsAreSingleThreadedByDefault)
{
    for (const char* name :
         {"compress", "jess", "db", "javac", "mpegaudio", "jack"}) {
        EXPECT_EQ(benchmarkProfile(name).defaultThreads, 1u)
            << name;
    }
}

TEST(Benchmarks, AllProfilesValidate)
{
    for (const auto& name : benchmarkNames()) {
        const WorkloadProfile& profile = benchmarkProfile(name);
        profile.validate(); // fatal() on violation.
        EXPECT_EQ(profile.name, name);
        EXPECT_GT(profile.uopsPerThread, 100'000u) << name;
    }
}

TEST(Benchmarks, BadPartnersAreTraceCacheHungry)
{
    // The paper's three bad partners have the largest code
    // footprints (trace-cache appetite predicts pairing quality).
    const std::set<std::string> bad = {"jack", "javac", "jess"};
    std::uint32_t min_bad = ~0u;
    std::uint32_t max_good = 0;
    for (const auto& name : singleThreadedNames()) {
        const std::uint32_t lines =
            benchmarkProfile(name).codeLines;
        if (bad.count(name))
            min_bad = std::min(min_bad, lines);
        else
            max_good = std::max(max_good, lines);
    }
    EXPECT_GT(min_bad, max_good);
}

TEST(Benchmarks, KernelProfileValidates)
{
    const WorkloadProfile kernel = kernelProfile();
    EXPECT_EQ(kernel.name, "kernel");
    EXPECT_LT(kernel.codeJumpLocal, 0.95); // Poor locality.
}

TEST(BenchmarksDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(benchmarkProfile("quux"),
                testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(ProfileDeath, ValidationCatchesBadMix)
{
    WorkloadProfile profile;
    profile.name = "bad";
    profile.loadFrac = 0.9;
    profile.storeFrac = 0.9;
    EXPECT_EXIT(profile.validate(), testing::ExitedWithCode(1),
                "mix");
}

TEST(ProfileDeath, ValidationCatchesBadFractions)
{
    WorkloadProfile profile;
    profile.name = "bad";
    profile.mispredictRate = 1.5;
    EXPECT_EXIT(profile.validate(), testing::ExitedWithCode(1),
                "mispredictRate");
}

TEST(ProfileDeath, ValidationCatchesNanFraction)
{
    WorkloadProfile profile;
    profile.name = "bad";
    profile.sweepFrac = std::nan("");
    EXPECT_EXIT(profile.validate(), testing::ExitedWithCode(1),
                "sweepFrac");
}

TEST(ProfileDeath, ValidationCatchesBadStride)
{
    WorkloadProfile profile;
    profile.name = "bad";
    profile.codeBytesPerLine = 100; // Not a multiple of 64.
    EXPECT_EXIT(profile.validate(), testing::ExitedWithCode(1),
                "codeBytesPerLine");
}

} // namespace
} // namespace jsmt
