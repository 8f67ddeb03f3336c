/**
 * @file
 * Branch target buffer model.
 *
 * The Pentium 4 shares one BTB between both logical processors; in
 * Hyper-Threading mode entries are tagged with the logical-processor
 * id, so the two contexts compete destructively for capacity and
 * never share entries — even when running the same code. This is the
 * mechanism behind the paper's Figure 7 (higher BTB miss ratios under
 * HT).
 */

#ifndef JSMT_BRANCH_BTB_H
#define JSMT_BRANCH_BTB_H

#include <cstdint>

#include "mem/cache.h"

namespace jsmt {

/** Geometry of the branch target buffer. */
struct BtbConfig
{
    std::uint32_t entries = 2048;
    std::uint32_t ways = 4;
};

/**
 * Set-associative BTB. Capacity is always shared; when Hyper-
 * Threading is on, the logical-processor id participates in the tag.
 */
class Btb
{
  public:
    explicit Btb(const BtbConfig& config);

    /**
     * Probe for the target of the branch at @p pc and install it on a
     * miss.
     * @return true if the target was present (BTB hit).
     */
    bool access(Asid asid, Addr pc, ContextId ctx);

    /** Switch context tagging (HT on/off). Flushes the structure. */
    void setHyperThreading(bool enabled);

    /** @return total lookups. */
    std::uint64_t accesses() const { return _cache.accesses(); }

    /** @return lookups that missed. */
    std::uint64_t misses() const { return _cache.misses(); }

    /**
     * @return entries evicted by the other logical processor (or
     * another process). In HT mode the context id participates in
     * the tag, so this counts the destructive cross-thread
     * competition behind the paper's Figure 7.
     */
    std::uint64_t
    crossAsidEvictions() const
    {
        return _cache.crossAsidEvictions();
    }

  private:
    Asid effectiveAsid(Asid asid, ContextId ctx) const;

    bool _hyperThreading = false;
    Cache _cache;
};

} // namespace jsmt

#endif // JSMT_BRANCH_BTB_H
