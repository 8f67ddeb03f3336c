/**
 * @file
 * Unit tests for JavaThread µop-stream generation.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "jvm/benchmarks.h"
#include "jvm/process.h"

namespace jsmt {
namespace {

struct ThreadFixture
{
    explicit ThreadFixture(const WorkloadProfile& profile,
                           std::uint32_t threads = 1)
        : scheduler(OsConfig{}, pmu),
          process(1, 5, profile, threads, 1.0, 99, scheduler, pmu)
    {
    }

    JavaThread& app(std::size_t i = 0)
    {
        return *process.threads()[i];
    }

    Pmu pmu;
    Scheduler scheduler;
    JavaProcess process;
};

WorkloadProfile
tinyProfile()
{
    WorkloadProfile profile;
    profile.name = "tiny";
    profile.uopsPerThread = 600;
    profile.syscallIntervalUops = 0;
    profile.barrierIntervalUops = 0;
    profile.monitorIntervalUops = 0;
    profile.allocBytesPerUop = 0.0;
    return profile;
}

TEST(JavaThread, ProducesBundlesUntilQuota)
{
    ThreadFixture fixture(tinyProfile());
    JavaThread& thread = fixture.app();
    FetchBundle bundle;
    std::uint64_t user_uops = 0;
    int guard = 0;
    while (thread.nextBundle(0, bundle)) {
        ASSERT_LT(guard++, 10000);
        EXPECT_GT(bundle.count, 0u);
        EXPECT_LE(bundle.count, FetchBundle::kMaxUops);
        if (!bundle.kernelMode)
            user_uops += bundle.count;
    }
    EXPECT_GE(user_uops, 600u);
    EXPECT_EQ(thread.state(), ThreadState::kDone);
    EXPECT_TRUE(thread.generationDone());
}

TEST(JavaThread, BundleAddressesBelongToProcess)
{
    ThreadFixture fixture(tinyProfile());
    JavaThread& thread = fixture.app();
    FetchBundle bundle;
    while (thread.nextBundle(0, bundle)) {
        if (bundle.kernelMode) {
            EXPECT_EQ(bundle.asid, kKernelAsid);
        } else {
            EXPECT_EQ(bundle.asid, fixture.process.asid());
        }
    }
}

TEST(JavaThread, KernelWorkIsServedFirst)
{
    ThreadFixture fixture(tinyProfile());
    JavaThread& thread = fixture.app();
    thread.addKernelWork(10);
    FetchBundle bundle;
    ASSERT_TRUE(thread.nextBundle(0, bundle));
    EXPECT_TRUE(bundle.kernelMode);
    ASSERT_TRUE(thread.nextBundle(0, bundle));
    EXPECT_TRUE(bundle.kernelMode); // 10 µops need two lines.
    ASSERT_TRUE(thread.nextBundle(0, bundle));
    EXPECT_FALSE(bundle.kernelMode);
}

TEST(JavaThread, UopMixRoughlyMatchesProfile)
{
    WorkloadProfile profile = tinyProfile();
    profile.uopsPerThread = 120'000;
    profile.loadFrac = 0.3;
    profile.storeFrac = 0.1;
    profile.branchFrac = 0.1;
    profile.fpFrac = 0.1;
    ThreadFixture fixture(profile);
    JavaThread& thread = fixture.app();
    FetchBundle bundle;
    std::uint64_t loads = 0;
    std::uint64_t total = 0;
    while (thread.nextBundle(0, bundle)) {
        if (bundle.kernelMode)
            continue;
        for (std::uint8_t i = 0; i < bundle.count; ++i) {
            ++total;
            if (bundle.uops[i].type == UopType::kLoad)
                ++loads;
        }
    }
    EXPECT_NEAR(static_cast<double>(loads) /
                    static_cast<double>(total),
                0.3, 0.02);
}

TEST(JavaThread, LoadsCarryAddressesAndDeps)
{
    ThreadFixture fixture(tinyProfile());
    JavaThread& thread = fixture.app();
    FetchBundle bundle;
    while (thread.nextBundle(0, bundle)) {
        for (std::uint8_t i = 0; i < bundle.count; ++i) {
            const Uop& uop = bundle.uops[i];
            if (uop.type == UopType::kLoad ||
                uop.type == UopType::kStore) {
                EXPECT_NE(uop.dataVaddr, 0u);
            }
            EXPECT_GE(uop.depDist, 1u);
            EXPECT_LT(uop.depDist, SoftwareThread::kRingSize);
            EXPECT_GE(uop.execLatency, 1u);
        }
    }
}

TEST(JavaThread, SyscallsEnterKernelMode)
{
    WorkloadProfile profile = tinyProfile();
    profile.uopsPerThread = 20'000;
    profile.syscallIntervalUops = 2'000;
    profile.syscallUops = 100;
    ThreadFixture fixture(profile);
    JavaThread& thread = fixture.app();
    FetchBundle bundle;
    std::uint64_t kernel_uops = 0;
    while (thread.nextBundle(0, bundle)) {
        if (bundle.kernelMode)
            kernel_uops += bundle.count;
    }
    EXPECT_GT(kernel_uops, 500u);
    EXPECT_GT(fixture.pmu.rawTotal(EventId::kSyscalls), 3u);
}

TEST(JavaThread, CollectorScansAndGoesDormant)
{
    ThreadFixture fixture(tinyProfile());
    JavaThread& gc = fixture.process.collector();
    gc.startCollection(50);
    gc.setState(ThreadState::kRunnable);
    FetchBundle bundle;
    std::uint64_t scanned = 0;
    while (gc.nextBundle(0, bundle))
        scanned += bundle.count;
    EXPECT_GE(scanned, 50u);
    EXPECT_EQ(gc.state(), ThreadState::kBlocked);
    EXPECT_EQ(gc.blockReason(), BlockReason::kDormant);
    // Finishing the scan reset the heap accounting.
    EXPECT_EQ(fixture.process.heap().sinceGc(), 0u);
}

TEST(JavaThread, DependenceRingTracksCompletions)
{
    ThreadFixture fixture(tinyProfile());
    JavaThread& thread = fixture.app();
    const std::uint64_t seq = thread.allocSeq();
    thread.recordCompletion(seq, 1234);
    EXPECT_EQ(thread.producerCompletion(seq + 1, 1), 1234u);
    EXPECT_EQ(thread.producerCompletion(seq + 1, 0), 0u);
    // Distances beyond the ring are treated as long complete.
    EXPECT_EQ(thread.producerCompletion(
                  seq + 1, SoftwareThread::kRingSize),
              0u);
}

/**
 * Digest of the first @p bundles bundles an app thread of @p profile
 * synthesizes: every µop's type, dependence distance, pc, mode and
 * (for loads and stores, the only µops that carry one) data address.
 */
std::uint64_t
streamDigest(const WorkloadProfile& profile, int bundles)
{
    ThreadFixture fixture(profile, 2);
    JavaThread& thread = fixture.app();
    FetchBundle bundle;
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
    };
    for (int b = 0; b < bundles && thread.nextBundle(0, bundle); ++b) {
        for (std::uint8_t i = 0; i < bundle.count; ++i) {
            const Uop& uop = bundle.uops[i];
            mix(static_cast<std::uint64_t>(uop.type));
            mix(uop.depDist);
            mix(uop.pc);
            mix(uop.kernelMode ? 1 : 0);
            if (uop.type == UopType::kLoad || uop.type == UopType::kStore)
                mix(uop.dataVaddr);
        }
    }
    return h;
}

TEST(JavaThread, BundleStreamsArePinned)
{
    // Recorded from the reference synthesis; a rewrite that changes
    // any draw, its order or its interpretation fails here before it
    // reaches the golden runs.
    const std::map<std::string, std::uint64_t> expected = {
        {"compress", 10849377076753347309ULL},
        {"jess", 17084112377695216070ULL},
        {"db", 15292887607413213423ULL},
        {"javac", 11337160893813286701ULL},
        {"mpegaudio", 1768274850477469722ULL},
        {"jack", 15592471749371634631ULL},
        {"MolDyn", 14718951006023124074ULL},
        {"MonteCarlo", 14046359632739547833ULL},
        {"RayTracer", 6845722062698503398ULL},
        {"PseudoJBB", 4883944147515773008ULL},
    };
    ASSERT_EQ(expected.size(), benchmarkNames().size());
    for (const auto& [name, digest] : expected) {
        EXPECT_EQ(streamDigest(benchmarkProfile(name), 3000), digest)
            << name;
    }
}

} // namespace
} // namespace jsmt
