/**
 * @file
 * Cooperative cancellation for simulation tasks.
 *
 * A CancellationToken is a shared flag, set by an operator abort or
 * by the passing of an optional wall-clock deadline, and polled by
 * the work it governs. Simulation::run checks it on a fixed
 * simulated-cycle lattice — the same lattice whether or not the
 * fast-forward optimisation is on — so the set of cycles at which a
 * run *can* stop is deterministic, and a poll costs one flag load
 * plus, with a deadline, one clock read.
 *
 * Header-only on purpose: jsmt_core polls tokens without linking
 * against the exec library that drives them.
 */

#ifndef JSMT_COMMON_CANCELLATION_H
#define JSMT_COMMON_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace jsmt {

/** Shared cancel flag with an optional deadline; thread-safe. */
class CancellationToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancellationToken() = default;
    /** A token that also reads as cancelled from @p deadline on. */
    explicit CancellationToken(Clock::time_point deadline)
        : _deadline(deadline)
    {
    }
    CancellationToken(const CancellationToken&) = delete;
    CancellationToken& operator=(const CancellationToken&) = delete;

    /**
     * @return the deadline @p seconds from now, or
     * Clock::time_point::max() (no deadline) when @p seconds is not
     * positive or lies beyond what the clock can represent.
     */
    static Clock::time_point
    deadlineAfter(double seconds)
    {
        if (!(seconds > 0.0))
            return Clock::time_point::max();
        const Clock::time_point now = Clock::now();
        // Keep a second of headroom: the double-to-tick conversion
        // rounds, and the sum must not overflow the tick count.
        const double headroom =
            std::chrono::duration<double>(Clock::time_point::max() -
                                          now)
                .count() -
            1.0;
        if (!(seconds < headroom))
            return Clock::time_point::max();
        return now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    }

    /** Request cancellation (idempotent). */
    void
    cancel() noexcept
    {
        _cancelled.store(true, std::memory_order_release);
    }

    /** @return whether cancellation was requested or is due. */
    bool
    cancelled() const noexcept
    {
        return _cancelled.load(std::memory_order_acquire) || expired();
    }

    /** @return whether the deadline, if any, has passed. */
    bool
    expired() const noexcept
    {
        return _deadline != Clock::time_point::max() &&
               Clock::now() >= _deadline;
    }

  private:
    std::atomic<bool> _cancelled{false};
    Clock::time_point _deadline = Clock::time_point::max();
};

/**
 * Thrown by measurement helpers when a run stopped because its
 * cancellation token fired (usually: its deadline passed). The
 * task pool reports the task as a kTimeout failure.
 */
class TaskCancelledError : public std::runtime_error
{
  public:
    explicit TaskCancelledError(const std::string& message)
        : std::runtime_error(message)
    {
    }
};

} // namespace jsmt

#endif // JSMT_COMMON_CANCELLATION_H
