/**
 * @file
 * Supervised parallel execution: deadlines and failure reports.
 *
 * TaskPool::parallelFor is all-or-nothing — one thrown exception
 * fails the batch. A sweep wants the opposite: a wedged or failing
 * point should be reported while the other configurations
 * complete. Supervisor wraps a TaskPool with exactly that policy:
 *
 *  - every task gets a CancellationToken carrying its wall-clock
 *    deadline (--task-timeout / JSMT_TASK_TIMEOUT); the simulator
 *    polls the token at deterministic cycle boundaries and stops
 *    once the deadline has passed;
 *  - each task runs once; whatever fails is returned as a
 *    structured TaskFailure in a BatchReport instead of unwinding
 *    the sweep. The simulator is deterministic, so re-running a
 *    failed task could only fail the same way.
 *
 * The FaultPlan task-delay clause fires inside the supervised body,
 * so the deadline and reporting paths are testable without any
 * real wedge.
 */

#ifndef JSMT_RESILIENCE_SUPERVISOR_H
#define JSMT_RESILIENCE_SUPERVISOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/task_pool.h"
#include "resilience/cancellation.h"
#include "resilience/fault_plan.h"

namespace jsmt::resilience {

/** Policy knobs for a Supervisor. */
struct SupervisorOptions
{
    /** Worker threads; 0 = TaskPool::defaultJobs() (JSMT_JOBS). */
    std::size_t jobs = 0;
    /** Wall-clock deadline per task in seconds; 0 disables. */
    double taskTimeoutSeconds = 0.0;
    /** Fault plan override; nullptr = FaultPlan::global(). */
    const FaultPlan* faultPlan = nullptr;

    /**
     * Defaults overlaid with JSMT_TASK_TIMEOUT (seconds, fractional
     * allowed). A malformed value warns and keeps the default.
     */
    static SupervisorOptions fromEnvironment();
};

/** What a supervised task body sees about its own execution. */
struct TaskContext
{
    /** Task index within the batch. */
    std::size_t index = 0;
    /**
     * Cancellation token for this task; pass it to
     * Simulation::RunOptions::cancellation so a passed deadline stops
     * a wedged run at the next check boundary.
     */
    const CancellationToken* token = nullptr;
};

/** Classification of a failed task. */
enum class FailureKind
{
    /** Failed after its wall-clock deadline fired. */
    kTimeout,
    /** Threw before any deadline fired. */
    kException,
};

/** @return a stable lowercase name for @p kind. */
const char* failureKindName(FailureKind kind);

/** One task that failed. */
struct TaskFailure
{
    std::size_t index = 0;
    std::string name;
    FailureKind kind = FailureKind::kException;
    /** what() of the failure. */
    std::string message;
};

/** Outcome of one supervised batch. */
struct BatchReport
{
    /** Tasks in the batch. */
    std::size_t tasks = 0;
    /** Tasks that succeeded. */
    std::size_t succeeded = 0;
    /** Tasks that failed after their deadline fired. */
    std::uint64_t timeouts = 0;
    /** Failed tasks, ordered by index. */
    std::vector<TaskFailure> failures;

    /** @return whether every task succeeded. */
    bool ok() const { return failures.empty(); }
    /** One-line human summary. */
    std::string summary() const;
    /** Append the report as a JSON object to @p out. */
    void toJson(std::string& out) const;
};

/**
 * Supervised TaskPool: runs batches under the deadline policy in
 * its SupervisorOptions and reports failures instead of throwing.
 */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions options = {});

    Supervisor(const Supervisor&) = delete;
    Supervisor& operator=(const Supervisor&) = delete;

    const SupervisorOptions& options() const { return _options; }

    /** @return resolved worker count of the underlying pool. */
    std::size_t jobs() const { return _pool.jobs(); }

    /**
     * Run @p body for indices [0, count) under supervision.
     * @p name_of labels tasks for fault matching and reports.
     * Never throws on task failure — inspect the BatchReport.
     */
    BatchReport run(
        std::size_t count,
        const std::function<std::string(std::size_t)>& name_of,
        const std::function<void(TaskContext&)>& body);

    /** @name Process-wide totals (metrics export) */
    ///@{
    /** Tasks whose deadline passed before they finished. */
    static std::uint64_t totalDeadlineCancels();
    /** Tasks that failed with kTimeout. */
    static std::uint64_t totalTimeouts();
    /** Failed tasks (all kinds). */
    static std::uint64_t totalFailures();
    ///@}

  private:
    const FaultPlan& plan() const;

    SupervisorOptions _options;
    exec::TaskPool _pool;
};

} // namespace jsmt::resilience

#endif // JSMT_RESILIENCE_SUPERVISOR_H
