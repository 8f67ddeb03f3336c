/**
 * @file
 * Translation lookaside buffer model.
 *
 * A TLB is a set-associative structure over page numbers. The
 * instruction TLB of the modelled machine is statically partitioned
 * between logical CPUs when Hyper-Threading is enabled (each logical
 * processor has its own ITLB on the Pentium 4); the data TLB is
 * shared.
 */

#ifndef JSMT_MEM_TLB_H
#define JSMT_MEM_TLB_H

#include <cstdint>
#include <string>

#include "mem/cache.h"

namespace jsmt {

/** Geometry of a TLB. */
struct TlbConfig
{
    std::string name = "tlb";
    std::uint32_t entries = 64;
    std::uint32_t ways = 4;
    std::uint32_t pageBytes = 4096;
    Sharing sharing = Sharing::kShared;
};

/**
 * Set-associative TLB built on the generic cache structure, with one
 * "line" per page.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig& config);

    /**
     * Probe and, on miss, install the translation for @p vaddr.
     * @return true on hit.
     */
    bool access(Asid asid, Addr vaddr, ContextId ctx);

    /** Enable/disable the static per-context partition. */
    void setPartitioned(bool partitioned);

    /** @return whether partitioned. */
    bool partitioned() const { return _cache.partitioned(); }

    /** @return page size in bytes. */
    std::uint32_t pageBytes() const { return _pageBytes; }

    /** @return total lookups. */
    std::uint64_t accesses() const { return _cache.accesses(); }

    /** @return total misses. */
    std::uint64_t misses() const { return _cache.misses(); }

  private:
    std::uint32_t _pageBytes;
    Cache _cache;
};

} // namespace jsmt

#endif // JSMT_MEM_TLB_H
