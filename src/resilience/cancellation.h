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
 * against the resilience library that drives them.
 */

#ifndef JSMT_RESILIENCE_CANCELLATION_H
#define JSMT_RESILIENCE_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace jsmt::resilience {

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
 * supervisor reports the task as a kTimeout failure.
 */
class TaskCancelledError : public std::runtime_error
{
  public:
    explicit TaskCancelledError(const std::string& message)
        : std::runtime_error(message)
    {
    }
};

} // namespace jsmt::resilience

#endif // JSMT_RESILIENCE_CANCELLATION_H
