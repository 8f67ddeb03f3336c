#include "jvm/data_model.h"

#include <algorithm>

namespace jsmt {

namespace {

std::uint64_t
roundUpToPage(std::uint64_t bytes)
{
    constexpr std::uint64_t kPage = 4096;
    return (bytes + kPage - 1) & ~(kPage - 1);
}

} // namespace

DataModel::DataModel(const WorkloadProfile& profile, Rng rng,
                     std::uint32_t thread_index,
                     std::uint32_t num_threads)
    : _profile(profile),
      _rng(std::move(rng)),
      _threadIndex(thread_index),
      _numThreads(std::max(1u, num_threads)),
      _privateStride(roundUpToPage(profile.privateBytes)),
      _private(Rng::threshold(profile.privateFrac)),
      _crossThread(Rng::threshold(profile.crossThreadFrac)),
      _sweep(Rng::threshold(profile.sweepFrac)),
      _hot(Rng::threshold(profile.hotFrac)),
      _hotWarm(Rng::threshold(profile.hotFrac + profile.warmFrac)),
      _privTiers{ExactDiv(std::min(profile.hotBytes, profile.privateBytes)),
                 ExactDiv(std::min(profile.warmBytes, profile.privateBytes)),
                 ExactDiv(profile.privateBytes)},
      _sharedTiers{ExactDiv(std::min(profile.hotBytes, profile.sharedBytes)),
                   ExactDiv(std::min(profile.warmBytes, profile.sharedBytes)),
                   ExactDiv(profile.sharedBytes)},
      _peerPick(_numThreads > 1 ? _numThreads - 1 : 0)
{
}

Addr
DataModel::privateBaseOf(std::uint32_t index) const
{
    return kPrivateBase +
           static_cast<Addr>(index) * _privateStride;
}

Addr
DataModel::regionAddr(Addr base, const Tiers& tiers)
{
    // Three-tier reuse model: hot (cache-resident), warm
    // (L2-resident), cold (whole footprint). The tier is the number
    // of ascending thresholds the draw crossed — the same outcome as
    // comparing uniform() against hotFrac and hotFrac + warmFrac —
    // and ExactDiv::draw() reproduces Rng::below() exactly.
    const std::uint64_t x = _rng.next() >> 11;
    const std::size_t tier = static_cast<std::size_t>(x >= _hot) +
                             static_cast<std::size_t>(x >= _hotWarm);
    return (base + tiers[tier].draw(_rng)) & ~Addr{7};
}

Addr
DataModel::nextAddr()
{
    if (_rng.chanceBelow(_private)) {
        // Private-region access, possibly to another thread's data
        // (reduction/communication traffic). Cross-thread accesses
        // span the peer's whole region — no reuse tiers — so the
        // aggregate working set grows with the thread count.
        if (_numThreads > 1 && _rng.chanceBelow(_crossThread)) {
            std::uint32_t owner = static_cast<std::uint32_t>(
                _peerPick.draw(_rng));
            if (owner >= _threadIndex)
                ++owner;
            return (privateBaseOf(owner) +
                    _privTiers[2].draw(_rng)) &
                   ~Addr{7};
        }
        return regionAddr(privateBaseOf(_threadIndex), _privTiers);
    }

    // Shared-region access: phase-aligned sweep or tiered random.
    if (_rng.chanceBelow(_sweep)) {
        const Addr addr =
            kSharedBase + _sharedTiers[2].mod(_sweepPos);
        _sweepPos += _profile.sweepStride;
        return addr & ~Addr{7};
    }
    return regionAddr(kSharedBase, _sharedTiers);
}

} // namespace jsmt
