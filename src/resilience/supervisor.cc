#include "resilience/supervisor.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/json.h"
#include "common/log.h"

namespace jsmt::resilience {

namespace {

/** Process-wide supervision totals (metrics export). */
std::atomic<std::uint64_t> g_deadlineCancels{0};
std::atomic<std::uint64_t> g_timeouts{0};
std::atomic<std::uint64_t> g_failures{0};

/**
 * Injected wedge: sleep @p delay_ms at the start of a task, or until
 * its deadline cancels @p token, which then fails the task.
 */
void
injectedDelay(std::uint64_t delay_ms, const CancellationToken& token,
              const std::string& name)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(delay_ms);
    while (!token.cancelled() &&
           std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (token.cancelled())
        throw TaskCancelledError("task '" + name +
                                 "' cancelled during injected delay");
}

} // namespace

SupervisorOptions
SupervisorOptions::fromEnvironment()
{
    SupervisorOptions options;
    options.taskTimeoutSeconds =
        envDouble("JSMT_TASK_TIMEOUT", options.taskTimeoutSeconds,
                  0.0);
    return options;
}

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
    std::string out = std::to_string(succeeded) + "/" +
                      std::to_string(tasks) + " tasks succeeded, " +
                      std::to_string(timeouts) + " timeouts, " +
                      std::to_string(failures.size()) + " failures";
    return out;
}

void
BatchReport::toJson(std::string& out) const
{
    out += "{\"tasks\":" + std::to_string(tasks);
    out += ",\"succeeded\":" + std::to_string(succeeded);
    out += ",\"timeouts\":" + std::to_string(timeouts);
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const TaskFailure& f = failures[i];
        if (i > 0)
            out += ',';
        out += "{\"index\":" + std::to_string(f.index);
        out += ",\"name\":";
        json::appendEscaped(out, f.name);
        out += ",\"kind\":\"";
        out += failureKindName(f.kind);
        out += "\",\"message\":";
        json::appendEscaped(out, f.message);
        out += '}';
    }
    out += "]}";
}

Supervisor::Supervisor(SupervisorOptions options)
    : _options(options), _pool(options.jobs)
{
}

const FaultPlan&
Supervisor::plan() const
{
    return _options.faultPlan != nullptr ? *_options.faultPlan
                                         : FaultPlan::global();
}

BatchReport
Supervisor::run(
    std::size_t count,
    const std::function<std::string(std::size_t)>& name_of,
    const std::function<void(TaskContext&)>& body)
{
    BatchReport report;
    report.tasks = count;
    std::mutex reportMutex;
    const FaultPlan& fault_plan = plan();
    const auto timeout =
        std::chrono::duration_cast<CancellationToken::Clock::duration>(
            std::chrono::duration<double>(_options.taskTimeoutSeconds));

    _pool.parallelFor(count, [&](std::size_t index) {
        CancellationToken token(
            _options.taskTimeoutSeconds > 0.0
                ? CancellationToken::Clock::now() + timeout
                : CancellationToken::Clock::time_point::max());
        TaskContext ctx;
        ctx.index = index;
        ctx.token = &token;
        TaskFailure failure;
        failure.index = index;
        failure.name = "(task " + std::to_string(index) + ")";
        bool failed = true;
        try {
            failure.name = name_of(index);
            const std::uint64_t delay_ms =
                fault_plan.taskDelayMs(failure.name);
            if (delay_ms > 0)
                injectedDelay(delay_ms, token, failure.name);
            body(ctx);
            failed = false;
        } catch (const std::exception& e) {
            failure.message = e.what();
        } catch (...) {
            failure.message = "(non-standard exception)";
        }
        const bool timed_out = token.expired();
        if (timed_out)
            g_deadlineCancels.fetch_add(1, std::memory_order_relaxed);
        if (!failed) {
            // A deadline that passed after the body's last
            // cancellation check is harmless: the result is
            // complete and valid.
            std::lock_guard<std::mutex> lock(reportMutex);
            ++report.succeeded;
            return;
        }
        failure.kind = timed_out ? FailureKind::kTimeout
                                 : FailureKind::kException;
        g_failures.fetch_add(1, std::memory_order_relaxed);
        if (timed_out)
            g_timeouts.fetch_add(1, std::memory_order_relaxed);
        warn("supervisor: task '" + failure.name + "' failed (" +
             failureKindName(failure.kind) + "): " + failure.message);
        std::lock_guard<std::mutex> lock(reportMutex);
        report.timeouts += timed_out ? 1 : 0;
        report.failures.push_back(std::move(failure));
    });

    std::sort(report.failures.begin(), report.failures.end(),
              [](const TaskFailure& a, const TaskFailure& b) {
                  return a.index < b.index;
              });
    return report;
}

std::uint64_t
Supervisor::totalDeadlineCancels()
{
    return g_deadlineCancels.load(std::memory_order_relaxed);
}

std::uint64_t
Supervisor::totalTimeouts()
{
    return g_timeouts.load(std::memory_order_relaxed);
}

std::uint64_t
Supervisor::totalFailures()
{
    return g_failures.load(std::memory_order_relaxed);
}

} // namespace jsmt::resilience
