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
    bool access(Asid asid, Addr addr, ContextId ctx);

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
     * One line's bookkeeping. An invalid line has key 0 and
     * lastUse 0; a valid line's lastUse is a distinct positive
     * stamp.
     */
    struct Line
    {
        LineKey key = 0;
        std::uint64_t lastUse = 0;
    };

    /**
     * The set walk behind access(), shared with L2Overlay. One
     * pass over every way, selects instead of branches and no early
     * exit: it finds the way holding @p key, if any, and the victim
     * a miss fills — the last invalid way if there is one, else the
     * least recently used. Invalid lines stamp 0 and valid stamps are distinct and
     * positive, so the victim is the last way whose stamp is <=
     * every earlier one.
     *
     * @return the way holding @p key, or @p ways on a miss.
     */
    static std::uint32_t
    walkSet(const Line* set, std::uint32_t ways, LineKey key,
            std::uint32_t& victim)
    {
        std::uint32_t hit = ways;
        victim = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::uint32_t w = 0; w < ways; ++w) {
            const Line& line = set[w];
            hit = line.key == key ? w : hit;
            const bool older = line.lastUse <= oldest;
            victim = older ? w : victim;
            oldest = older ? line.lastUse : oldest;
        }
        return hit;
    }

    /** @return the set @p addr indexes from context @p ctx. */
    std::uint32_t setIndex(Addr addr, ContextId ctx) const;

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

    /** @return the ways() lines of set @p set, in way order. */
    const Line*
    setLines(std::uint32_t set) const
    {
        return &_lines[static_cast<std::size_t>(set) * _config.ways];
    }

    /** The fatal error of keyOf(), kept out of the inlined path. */
    [[noreturn]] void keyTooWide() const;

    CacheConfig _config;
    std::uint32_t _numSets;
    std::uint32_t _lineShift;
    bool _partitioned;
    std::vector<Line> _lines;     ///< numSets * ways, row-major.
    std::uint64_t _useClock = 0;  ///< LRU timestamp source.
    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _crossAsidEvictions = 0;
    std::uint64_t _validLines = 0;
};

} // namespace jsmt

#endif // JSMT_MEM_CACHE_H
