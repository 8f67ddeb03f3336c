#include "exec/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/env.h"
#include "common/log.h"

namespace jsmt::exec {

namespace {

/** Process-wide execution totals (metrics export). */
std::atomic<std::uint64_t> g_totalTasks{0};
std::atomic<std::uint64_t> g_totalBatches{0};
std::atomic<std::uint64_t> g_deadlineCancels{0};
std::atomic<std::uint64_t> g_timeouts{0};
std::atomic<std::uint64_t> g_failures{0};

std::mutex g_hookMutex;
TaskPool::BeforeTaskHook g_beforeTask;

} // namespace

const char*
failureKindName(FailureKind kind)
{
    switch (kind) {
        case FailureKind::kTimeout: return "timeout";
        case FailureKind::kException: return "exception";
    }
    return "unknown";
}

std::string
BatchReport::summary() const
{
    return std::to_string(succeeded) + "/" + std::to_string(tasks) +
           " tasks succeeded, " + std::to_string(timeouts) +
           " timeouts, " + std::to_string(failures.size()) +
           " failures";
}

BatchError::BatchError(BatchReport report)
    : std::runtime_error(
          std::to_string(report.failures.size()) +
          " task(s) failed; first at index " +
          std::to_string(report.failures.at(0).index) + ": " +
          report.failures[0].message),
      _report(std::move(report))
{
}

std::uint64_t
TaskPool::totalTasksRun()
{
    return g_totalTasks.load(std::memory_order_relaxed);
}

std::uint64_t
TaskPool::totalBatchesRun()
{
    return g_totalBatches.load(std::memory_order_relaxed);
}

std::uint64_t
TaskPool::totalDeadlineCancels()
{
    return g_deadlineCancels.load(std::memory_order_relaxed);
}

std::uint64_t
TaskPool::totalTimeouts()
{
    return g_timeouts.load(std::memory_order_relaxed);
}

std::uint64_t
TaskPool::totalFailures()
{
    return g_failures.load(std::memory_order_relaxed);
}

void
TaskPool::setBeforeTaskHook(BeforeTaskHook hook)
{
    std::lock_guard<std::mutex> lock(g_hookMutex);
    g_beforeTask = std::move(hook);
}

std::size_t
TaskPool::defaultJobs()
{
    // envUint warns and falls through on a malformed or
    // non-positive value, so a typo'd JSMT_JOBS can never silently
    // serialize (or over-subscribe) a sweep.
    const std::uint64_t n = envUint("JSMT_JOBS", 0, 1);
    if (n > 0)
        return static_cast<std::size_t>(n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::size_t
TaskPool::resolveJobs(std::size_t requested)
{
    return requested > 0 ? requested : defaultJobs();
}

TaskPool::TaskPool(std::size_t jobs) : _jobs(resolveJobs(jobs))
{
    // The calling thread participates in every batch, so spawn one
    // worker fewer than the job count.
    for (std::size_t i = 1; i < _jobs; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
    }
    _wake.notify_all();
    for (std::thread& worker : _workers)
        worker.join();
}

void
TaskPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        _wake.wait(lock, [&] {
            return _shutdown || _generation != seen;
        });
        if (_shutdown)
            return;
        seen = _generation;
        lock.unlock();
        drainBatch(seen);
        lock.lock();
    }
}

void
TaskPool::drainBatch(std::uint64_t generation)
{
    for (;;) {
        const std::function<void(std::size_t)>* task = nullptr;
        std::size_t index = 0;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (_generation != generation || _nextIndex >= _count)
                return;
            index = _nextIndex++;
            task = _task;
        }
        (*task)(index);
        bool last = false;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            last = ++_finished == _count;
        }
        if (last)
            _batchDone.notify_all();
    }
}

void
TaskPool::dispatch(std::size_t count,
                   const std::function<void(std::size_t)>& task)
{
    if (_jobs == 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_task != nullptr)
            fatal("TaskPool: nested batches are not supported");
        _task = &task;
        _count = count;
        _nextIndex = 0;
        _finished = 0;
        ++_generation;
        generation = _generation;
    }
    _wake.notify_all();

    drainBatch(generation);

    std::unique_lock<std::mutex> lock(_mutex);
    _batchDone.wait(lock, [&] { return _finished == _count; });
    _task = nullptr;
}

BatchReport
TaskPool::run(std::size_t count,
              const std::function<std::string(std::size_t)>& name_of,
              const std::function<void(TaskContext&)>& body,
              double timeout_s)
{
    BatchReport report;
    report.tasks = count;
    if (count == 0)
        return report;
    g_totalBatches.fetch_add(1, std::memory_order_relaxed);
    g_totalTasks.fetch_add(count, std::memory_order_relaxed);
    BeforeTaskHook hook;
    {
        std::lock_guard<std::mutex> lock(g_hookMutex);
        hook = g_beforeTask;
    }

    std::mutex report_mutex;
    // Catches everything a task throws, so a failing task can never
    // leave the batch's completion count short.
    const std::function<void(std::size_t)> task =
        [&](std::size_t index) noexcept {
            CancellationToken token(
                CancellationToken::deadlineAfter(timeout_s));
            TaskContext ctx;
            ctx.index = index;
            ctx.token = &token;
            TaskFailure failure;
            failure.index = index;
            failure.name = "(task " + std::to_string(index) + ")";
            bool failed = true;
            try {
                if (name_of)
                    failure.name = name_of(index);
                if (hook)
                    hook(failure.name, token);
                body(ctx);
                failed = false;
            } catch (const std::exception& e) {
                failure.message = e.what();
            } catch (...) {
                failure.message = "(non-standard exception)";
            }
            const bool timed_out = token.expired();
            if (timed_out)
                g_deadlineCancels.fetch_add(1,
                                            std::memory_order_relaxed);
            if (!failed) {
                // A deadline that passed after the body's last
                // cancellation check is harmless: the result is
                // complete and valid.
                std::lock_guard<std::mutex> lock(report_mutex);
                ++report.succeeded;
                return;
            }
            failure.kind = timed_out ? FailureKind::kTimeout
                                     : FailureKind::kException;
            g_failures.fetch_add(1, std::memory_order_relaxed);
            if (timed_out)
                g_timeouts.fetch_add(1, std::memory_order_relaxed);
            warn("task '" + failure.name + "' failed (" +
                 failureKindName(failure.kind) +
                 "): " + failure.message);
            std::lock_guard<std::mutex> lock(report_mutex);
            report.timeouts += timed_out ? 1 : 0;
            report.failures.push_back(std::move(failure));
        };
    dispatch(count, task);

    std::sort(report.failures.begin(), report.failures.end(),
              [](const TaskFailure& a, const TaskFailure& b) {
                  return a.index < b.index;
              });
    return report;
}

void
TaskPool::parallelFor(std::size_t count,
                      const std::function<void(std::size_t)>& body)
{
    BatchReport report = run(
        count, nullptr, [&](TaskContext& ctx) { body(ctx.index); });
    if (!report.ok())
        throw BatchError(std::move(report));
}

} // namespace jsmt::exec
