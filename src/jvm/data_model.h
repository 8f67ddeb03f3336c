/**
 * @file
 * Synthetic data-address generator.
 *
 * Each application thread draws data addresses from a layered model:
 *
 *  - a per-thread private region (stack, thread-local allocation
 *    buffers, per-thread arrays), with optional cross-thread accesses
 *    modelling reductions — these make the aggregate working set grow
 *    with thread count (the MolDyn effect in Figure 12);
 *  - a process-shared heap region with a hot subset and an optional
 *    phase-aligned sequential sweep — co-scheduled threads sweep in
 *    lockstep and prefetch L2 lines for each other (constructive
 *    interference, Figure 5), while time-sliced threads diverge by a
 *    scheduling quantum and re-fetch.
 *
 * Address layout per process (virtual):
 *    code     0x0040'0000
 *    private  0x1000'0000 + thread_index * stride
 *    shared   0x8000'0000
 */

#ifndef JSMT_JVM_DATA_MODEL_H
#define JSMT_JVM_DATA_MODEL_H

#include <array>
#include <cstdint>

#include "common/exact_div.h"
#include "common/rng.h"
#include "common/types.h"
#include "jvm/profile.h"

namespace jsmt {

/** Generates the data-address stream of one application thread. */
class DataModel
{
  public:
    /** Base of the first thread-private region. */
    static constexpr Addr kPrivateBase = 0x1000'0000;
    /** Base of the process-shared heap region. */
    static constexpr Addr kSharedBase = 0x8000'0000;

    /**
     * @param profile behavioural parameters.
     * @param rng deterministic stream owned by this thread.
     * @param thread_index index among the process's app threads.
     * @param num_threads total app threads in the process.
     */
    DataModel(const WorkloadProfile& profile, Rng rng,
              std::uint32_t thread_index, std::uint32_t num_threads);

    /** @return the next effective data address (8-byte aligned). */
    Addr nextAddr();

    /** @return start of thread @p index's private region. */
    Addr privateBaseOf(std::uint32_t index) const;

    /** @return stride between consecutive private regions. */
    std::uint64_t privateStride() const { return _privateStride; }

  private:
    /** Reuse-tier spans of one region: hot, warm, cold (whole). */
    using Tiers = std::array<ExactDiv, 3>;

    Addr regionAddr(Addr base, const Tiers& tiers);

    const WorkloadProfile& _profile;
    Rng _rng;
    std::uint32_t _threadIndex;
    std::uint32_t _numThreads;
    std::uint64_t _privateStride;
    std::uint64_t _sweepPos = 0;

    // Rng::threshold() of the profile's fractions, so every random
    // decision is one integer compare on a raw draw.
    std::uint64_t _private;
    std::uint64_t _crossThread;
    std::uint64_t _sweep;
    std::uint64_t _hot;
    std::uint64_t _hotWarm;

    // Reduction spans are fixed per profile, so the `% span` on
    // every generated address uses a precomputed exact divide
    // (bit-identical to the hardware `%`, far cheaper).
    Tiers _privTiers;
    Tiers _sharedTiers;
    ExactDiv _peerPick;
};

} // namespace jsmt

#endif // JSMT_JVM_DATA_MODEL_H
