/**
 * @file
 * Generic set-associative cache model with true-LRU replacement.
 *
 * The same structure models the L1 data cache, the unified L2, the
 * trace cache (with trace-line granularity) and, with partitioning
 * enabled, per-context halves of the instruction TLB. Tags carry the
 * address-space id, so two processes whose virtual layouts coincide
 * still conflict (destructive interference) while threads of one
 * process share lines (constructive interference) — the two effects
 * at the heart of the paper's cache observations.
 */

#ifndef JSMT_MEM_CACHE_H
#define JSMT_MEM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace jsmt {

/** How a structure is shared between hardware contexts. */
enum class Sharing {
    kShared,          ///< Fully shared: any context may use any set.
    kPartitionedSets, ///< Static split: each context owns half the sets.
};

/** Geometry and policy of one cache-like structure. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 8 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 4;
    Sharing sharing = Sharing::kShared;
};

/**
 * Set-associative cache with per-line ASID tags and LRU replacement.
 *
 * The cache tracks presence only (no data); lookup() probes, access()
 * probes and fills on miss. Local hit/miss statistics support unit
 * testing; system-level event accounting is done by the caller.
 */
class Cache
{
  public:
    /**
     * Identity of one line packed into a single word so the set walk
     * — the hottest loop of the memory model — is one load and one
     * compare per way. Layout: ((asid + 1) << kAsidShift) | tag,
     * with 0 meaning invalid (the +1 keeps a valid kernel-asid
     * tag-0 line distinct from an empty way). Tag and asid widths
     * are enforced at access time (see kAsidShift).
     */
    using LineKey = std::uint64_t;

    /** Bit position of the asid field within a LineKey. */
    static constexpr std::uint32_t kAsidShift = 44;

    /** Exclusive upper bound on asids (asid + 1 must fit 20 bits). */
    static constexpr Asid kMaxAsid = (1u << 20) - 1;

    /** @return the packed key for (@p asid, @p tag). */
    static LineKey
    makeKey(Asid asid, Addr tag)
    {
        return ((static_cast<LineKey>(asid) + 1) << kAsidShift) |
               tag;
    }

    explicit Cache(const CacheConfig& config);

    /**
     * Probe and, on miss, fill the line containing @p addr.
     *
     * @param asid address-space the access belongs to.
     * @param addr byte address (virtual or physical per the caller).
     * @param ctx hardware context issuing the access (used for
     *            partitioned structures).
     * @return true on hit.
     */
    bool
    access(Asid asid, Addr addr, ContextId ctx)
    {
        ++_accesses;
        ++_useClock;
        const std::size_t first =
            static_cast<std::size_t>(setIndex(addr, ctx)) * _config.ways;
        const LineKey key = keyOf(asid, addr);
        const std::uint32_t way =
            findWay(&_block[first], _config.ways, key);
        if (way == _config.ways) {
            fill(first, key);
            return false;
        }
        _block[_numLines + first + way] = _useClock;
        return true;
    }

    /** Probe without filling. @return true on hit. */
    bool lookup(Asid asid, Addr addr, ContextId ctx) const;

    /** Invalidate everything. */
    void flush();

    /** Enable/disable set partitioning at run time (HT on/off). */
    void setPartitioned(bool partitioned);

    /** @return whether set partitioning is currently active. */
    bool partitioned() const { return _partitioned; }

    /** @return number of sets. */
    std::uint32_t numSets() const { return _numSets; }

    /** @return associativity. */
    std::uint32_t ways() const { return _config.ways; }

    /** @return line size in bytes. */
    std::uint32_t lineBytes() const { return _config.lineBytes; }

    /** @return total accesses since construction. */
    std::uint64_t accesses() const { return _accesses; }

    /** @return total misses since construction. */
    std::uint64_t misses() const { return _misses; }

    /** @return fills that replaced a valid line. */
    std::uint64_t evictions() const { return _evictions; }

    /**
     * @return evictions whose victim belonged to a different ASID
     * than the filling access. Structures that fold the hardware
     * context into the tag ASID (trace cache, BTB in HT mode) read
     * this as cross-thread destructive interference.
     */
    std::uint64_t
    crossAsidEvictions() const
    {
        return _crossAsidEvictions;
    }

    /** @return number of currently valid lines. */
    std::uint64_t validLines() const { return _validLines; }

    /** @return configuration this cache was built with. */
    const CacheConfig& config() const { return _config; }

  private:
    /** A chip slice's overlay walks this cache's sets directly. */
    friend class L2Overlay;

    /**
     * The hit scan behind access(), shared with L2Overlay: one pass
     * over the keys of a set's @p ways lines, selects instead of
     * branches and no early exit.
     *
     * @return the way holding @p key, or @p ways on a miss.
     */
    static std::uint32_t
    findWay(const LineKey* keys, std::uint32_t ways, LineKey key)
    {
        std::uint32_t hit = ways;
        for (std::uint32_t w = 0; w < ways; ++w)
            hit = keys[w] == key ? w : hit;
        return hit;
    }

    /**
     * The way a miss fills, shared with L2Overlay: the last invalid
     * way if there is one, else the least recently used. Invalid
     * lines stamp 0 and valid stamps are distinct and positive, so
     * it is the last way whose stamp is <= every earlier one.
     */
    static std::uint32_t victimWay(const std::uint64_t* stamps,
                                   std::uint32_t ways);

    /**
     * The miss path of access(): fill the victim way of the set
     * whose first line is @p first with @p key, counting the miss
     * and any eviction.
     */
    void fill(std::size_t first, LineKey key);

    /** @return the set @p addr indexes from context @p ctx. */
    std::uint32_t
    setIndex(Addr addr, ContextId ctx) const
    {
        const Addr line = addr >> _lineShift;
        if (!_partitioned)
            return static_cast<std::uint32_t>(line & (_numSets - 1));
        // Static partition: each context indexes only its half of
        // the sets, modelling the P4's per-logical-processor split.
        const std::uint32_t half = _numSets / 2;
        const auto within = static_cast<std::uint32_t>(line & (half - 1));
        return within + (ctx % kNumContexts) * half;
    }

    /**
     * @return the key of the line holding @p addr in @p asid; a
     * tag or asid too wide for its field is fatal.
     */
    LineKey
    keyOf(Asid asid, Addr addr) const
    {
        const Addr tag = addr >> _lineShift;
        if ((tag >> kAsidShift) != 0 || asid >= kMaxAsid)
            keyTooWide();
        return makeKey(asid, tag);
    }

    /** The fatal error of keyOf(), kept out of the inlined path. */
    [[noreturn]] void keyTooWide() const;

    CacheConfig _config;
    std::uint32_t _numSets;
    std::uint32_t _lineShift;
    bool _partitioned;
    std::size_t _numLines;
    /**
     * Every line's key (0: invalid), set-major, then every line's
     * LRU stamp (0: invalid, else distinct and positive) in the
     * same order: one zero-initialised allocation, so a hit reads
     * only its set's keys and a flush is one fill.
     */
    std::vector<std::uint64_t> _block;
    std::uint64_t _useClock = 0;  ///< LRU timestamp source.
    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _crossAsidEvictions = 0;
    std::uint64_t _validLines = 0;
};

} // namespace jsmt

#endif // JSMT_MEM_CACHE_H
