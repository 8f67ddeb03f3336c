/**
 * @file
 * Parallel experiment execution: a fixed-size worker pool that fans
 * independent simulation tasks out over OS threads.
 *
 * Every experiment in the harness is a matrix of independent
 * measurements (benchmark x thread count x HT mode, plus the 9x9
 * multiprogrammed cross product), each of which builds its own
 * Machine from a shared SystemConfig. TaskPool runs such a matrix
 * with results collected by task *index*, so the outcome is
 * bit-identical regardless of the job count or the order in which
 * workers finish.
 *
 * One loop runs every batch. Each task runs once, with its own
 * CancellationToken carrying an optional wall-clock deadline (only
 * `jsmt_run --sweep --task-timeout` sets one); the simulator polls
 * the token at deterministic cycle boundaries. Whatever a task throws
 * becomes a TaskFailure in the batch's BatchReport instead of
 * unwinding the batch — the simulator is deterministic, so running
 * a failed task again could only fail the same way. run() returns
 * the report; parallelFor() throws it inside a BatchError.
 *
 * The job count comes from (highest priority first) the explicit
 * constructor argument, the JSMT_JOBS environment variable, and
 * std::thread::hardware_concurrency().
 */

#ifndef JSMT_EXEC_TASK_POOL_H
#define JSMT_EXEC_TASK_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"

namespace jsmt::exec {

/** What a task body sees about its own execution. */
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

/** Outcome of one batch. */
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
};

/**
 * Thrown by TaskPool::parallelFor when any task threw. Carries the
 * batch's report, so a sweep can name every failed configuration
 * instead of only the first; what() names the count and the first
 * failure.
 */
class BatchError : public std::runtime_error
{
  public:
    explicit BatchError(BatchReport report);

    /** @return the failed batch's report. */
    const BatchReport& report() const { return _report; }

  private:
    BatchReport _report;
};

/**
 * A pool of worker threads executing indexed task batches.
 *
 * One batch runs at a time; run() blocks until the batch is done
 * (the calling thread works on the batch too, so a pool of J jobs
 * uses J threads total, not J+1). Nested batches on the same pool
 * are not supported. Idle threads poll for kSpinMicros before they
 * block, so a caller that submits short batches back to back (the
 * multi-core engine's quanta) finds its workers awake.
 */
class TaskPool
{
  public:
    /**
     * Test seam: called with a task's name and token just before its
     * body. A hook that throws fails the task like its body would.
     */
    using BeforeTaskHook = std::function<void(
        const std::string& name, const CancellationToken& token)>;

    /**
     * @param jobs worker count; 0 resolves via JSMT_JOBS and then
     *        hardware_concurrency(). A pool of 1 job runs every
     *        batch inline on the calling thread.
     */
    explicit TaskPool(std::size_t jobs = 0);

    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /** @return resolved job count. */
    std::size_t jobs() const { return _jobs; }

    /**
     * Run @p body for indices [0, count) and wait for all of them.
     * Indices are claimed dynamically (cheap work stealing), so long
     * tasks do not serialize behind short ones. Each task gets a
     * token whose deadline is @p timeout_s seconds after its start
     * (0, or too large to represent, means none). @p name_of labels
     * tasks in the report (nullptr: "(task I)"). Never throws on
     * task failure — inspect the BatchReport.
     */
    BatchReport run(
        std::size_t count,
        const std::function<std::string(std::size_t)>& name_of,
        const std::function<void(TaskContext&)>& body,
        double timeout_s = 0.0);

    /**
     * run() without names or deadlines, for batches that must not
     * fail: throws a BatchError carrying the report if any task
     * threw.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)>& body);

    /**
     * Convenience: materialize `make(i)` for i in [0, count) into a
     * vector indexed by i — the deterministic fan-out/collect shape
     * every experiment driver uses.
     */
    template <typename T, typename Make>
    std::vector<T>
    map(std::size_t count, Make&& make)
    {
        std::vector<T> results(count);
        parallelFor(count, [&](std::size_t i) {
            results[i] = make(i);
        });
        return results;
    }

    /** Job count from JSMT_JOBS, else hardware_concurrency(). */
    static std::size_t defaultJobs();

    /** @return @p requested if positive, else defaultJobs(). */
    static std::size_t resolveJobs(std::size_t requested);

    /** Install @p hook for every later batch (empty = none). */
    static void setBeforeTaskHook(BeforeTaskHook hook);

    /** @name Process-wide totals (metrics export) */
    ///@{
    /** Tasks executed by every pool (includes failed tasks). */
    static std::uint64_t totalTasksRun();
    /** Batches executed by every pool. */
    static std::uint64_t totalBatchesRun();
    /** Tasks whose deadline passed before they finished. */
    static std::uint64_t totalDeadlineCancels();
    /** Tasks that failed with kTimeout. */
    static std::uint64_t totalTimeouts();
    /** Failed tasks (all kinds). */
    static std::uint64_t totalFailures();
    ///@}

  private:
    void workerLoop();
    /**
     * Claim and run indices of the batch identified by
     * @p generation until none are left. Claims happen under
     * _mutex with the generation re-checked on every loop: a
     * worker that finishes the last task of batch N and loops
     * around while the caller is already setting up batch N+1
     * must bounce back to workerLoop's cv handshake instead of
     * leaking into the new batch without a happens-before edge.
     */
    void drainBatch(std::uint64_t generation);
    /** Run @p task for [0, count) across the pool; task must not throw. */
    void dispatch(std::size_t count,
                  const std::function<void(std::size_t)>& task);

    /** How long an idle thread polls before it blocks. */
    static constexpr int kSpinMicros = 200;

    std::size_t _jobs;
    std::vector<std::thread> _workers;

    std::mutex _mutex;
    std::condition_variable _wake;
    std::condition_variable _batchDone;
    // Written under _mutex; atomic so idle threads can poll them.
    std::atomic<std::uint64_t> _generation{0};
    std::atomic<bool> _shutdown{false};

    // State of the in-flight batch (valid while _task != nullptr;
    // all fields written under _mutex).
    const std::function<void(std::size_t)>* _task = nullptr;
    std::size_t _count = 0;
    std::size_t _nextIndex = 0;
    std::atomic<std::size_t> _finished{0};
};

} // namespace jsmt::exec

#endif // JSMT_EXEC_TASK_POOL_H
