/**
 * @file
 * Synthetic instruction-address sequence generator.
 *
 * Models a program's control flow over its code footprint as runs of
 * sequential trace lines punctuated by jumps: mostly loop-local
 * (within a sliding window of recently executed code) with occasional
 * long-range transfers (calls into other methods, JIT stubs,
 * interpreter dispatch). Trace-cache and ITLB behaviour emerge from
 * the footprint and locality parameters.
 */

#ifndef JSMT_JVM_CODE_WALKER_H
#define JSMT_JVM_CODE_WALKER_H

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "jvm/profile.h"

namespace jsmt {

/**
 * Walks a synthetic code region line by line.
 */
class CodeWalker
{
  public:
    /** Base virtual address of every process's code region. */
    static constexpr Addr kCodeBase = 0x0040'0000;
    /** Bytes per trace line of code. */
    static constexpr std::uint32_t kLineBytes = 64;

    /**
     * @param profile source of footprint/locality parameters.
     * @param rng deterministic stream owned by the caller's thread.
     * @param base base address of the code region.
     */
    CodeWalker(const WorkloadProfile& profile, Rng rng,
               Addr base = kCodeBase);

    /**
     * Advance to the next trace line.
     * @return the virtual address of that line.
     */
    Addr nextLine();

    /**
     * Whether the step that produced the current line ended a
     * sequential run (i.e. the line ends in a taken branch).
     */
    bool lastStepWasJump() const { return _lastWasJump; }

    /** @return current line index within the code region. */
    std::uint32_t currentLine() const { return _line; }

    /** @return virtual address of the current line. */
    Addr
    currentAddr() const
    {
        return _base + static_cast<Addr>(_line) *
                           _profile.codeBytesPerLine;
    }

    /**
     * @return dense per-line trace id (64-byte stride regardless of
     * the code layout), used as the trace-cache key.
     */
    Addr
    currentDenseAddr() const
    {
        return _base + static_cast<Addr>(_line) * kLineBytes;
    }

  private:
    const WorkloadProfile& _profile;
    Rng _rng;
    Addr _base;
    /** Rng::threshold() of the profile's codeJumpLocal. */
    std::uint64_t _jumpLocal;
    std::uint32_t _line = 0;
    std::uint32_t _runRemaining = 0;
    bool _lastWasJump = false;
};

} // namespace jsmt

#endif // JSMT_JVM_CODE_WALKER_H
