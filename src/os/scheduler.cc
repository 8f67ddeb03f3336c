#include "os/scheduler.h"

#include <algorithm>

#include "common/log.h"

namespace jsmt {

Scheduler::Scheduler(const OsConfig& config, Pmu& pmu)
    : _config(config), _pmu(pmu)
{
    if (config.quantumCycles == 0)
        fatal("scheduler: quantum must be positive");
}

void
Scheduler::setNumContexts(std::uint32_t n)
{
    if (n == 0 || n > kNumContexts)
        fatal("scheduler: context count must be 1.." +
              std::to_string(kNumContexts));
    _numContexts = n;
    ++_stateEpoch;
}

void
Scheduler::addThread(SoftwareThread* thread)
{
    // Route every future state transition of this thread into the
    // epoch counter, so cached horizons are invalidated even by
    // transitions that bypass the scheduler (stop-the-world GC
    // blocking, retire-hook drain detection).
    thread->bindStateEpoch(&_stateEpoch);
    ++_stateEpoch;
    if (thread->state() == ThreadState::kRunnable)
        _runQueue.push_back(thread);
}

void
Scheduler::removeThread(SoftwareThread* thread)
{
    const auto it =
        std::find(_runQueue.begin(), _runQueue.end(), thread);
    if (it != _runQueue.end())
        _runQueue.erase(it);
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        if (_current[ctx] == thread)
            _current[ctx] = nullptr;
    }
    _lastContext.erase(thread);
    ++_stateEpoch;
}

std::vector<SoftwareThread*>
Scheduler::runQueueSnapshot() const
{
    return std::vector<SoftwareThread*>(_runQueue.begin(),
                                        _runQueue.end());
}

void
Scheduler::wake(SoftwareThread* thread)
{
    if (thread->state() != ThreadState::kBlocked)
        return;
    thread->setState(ThreadState::kRunnable);
    // A thread still occupying a context needs no queue entry.
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        if (_current[ctx] == thread)
            return;
    }
    _runQueue.push_back(thread);
}

void
Scheduler::dispatch(ContextId ctx, Cycle now)
{
    SoftwareThread* next = _runQueue.front();
    _runQueue.pop_front();
    _current[ctx] = next;
    _quantumEnd[ctx] = now + _config.quantumCycles;
    ++_stateEpoch;
    _pmu.record(EventId::kContextSwitches, ctx);
    next->addKernelWork(_config.contextSwitchUops);

    const auto last = _lastContext.find(next);
    const bool migrated =
        last != _lastContext.end() && last->second != ctx;
    if (migrated)
        ++_migrations;
    _lastContext[next] = ctx;
    if (_trace != nullptr && _trace->enabled()) {
        _trace->instantArg(trace::Track::kOs,
                           migrated ? "migrate" : "dispatch", now,
                           "tid", next->id());
    }
}

void
Scheduler::tick(Cycle now)
{
    for (ContextId ctx = 0; ctx < _numContexts; ++ctx) {
        SoftwareThread* cur = _current[ctx];

        // Lazily deschedule threads that blocked or finished.
        if (cur && cur->state() != ThreadState::kRunnable) {
            _current[ctx] = nullptr;
            cur = nullptr;
            ++_stateEpoch;
        }

        if (!cur) {
            if (!_runQueue.empty())
                dispatch(ctx, now);
            continue;
        }

        // Timer-driven preemption at quantum expiry.
        if (now >= _quantumEnd[ctx]) {
            _pmu.record(EventId::kTimerTicks, ctx);
            cur->addKernelWork(_config.timerTickUops);
            if (!_runQueue.empty()) {
                _runQueue.push_back(cur);
                _current[ctx] = nullptr;
                dispatch(ctx, now);
            } else {
                _quantumEnd[ctx] = now + _config.quantumCycles;
                ++_stateEpoch; // The quantum horizon moved.
            }
        }
    }
}

Cycle
Scheduler::nextEventCycle() const
{
    Cycle bound = kNoCycle;
    for (ContextId ctx = 0; ctx < _numContexts; ++ctx) {
        const SoftwareThread* cur = _current[ctx];
        if (cur && cur->state() != ThreadState::kRunnable)
            return 0; // Lazy deschedule pending.
        if (!cur) {
            if (!_runQueue.empty())
                return 0; // Dispatch pending.
            continue;
        }
        bound = std::min(bound, _quantumEnd[ctx]);
    }
    return bound;
}

void
Scheduler::reset()
{
    _runQueue.clear();
    _current.fill(nullptr);
    _quantumEnd.fill(0);
    _lastContext.clear();
    ++_stateEpoch;
}

} // namespace jsmt
