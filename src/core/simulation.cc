#include "core/simulation.h"

#include <algorithm>

#include "common/log.h"
#include "core/event_horizon.h"
#include "uarch/stage_profiler.h"

namespace jsmt {

Simulation::Simulation(Machine& machine) : _machine(machine)
{
}

JavaProcess&
Simulation::addProcess(const WorkloadSpec& spec)
{
    const WorkloadProfile& profile =
        benchmarkProfile(spec.benchmark);
    const std::uint32_t threads =
        spec.threads > 0 ? spec.threads : profile.defaultThreads;
    const ProcessId pid = _nextPid++;
    const Asid asid = spec.reuseAsid != 0 ? spec.reuseAsid
                                          : _machine.allocateAsid();
    const std::uint64_t seed =
        spec.seedOverride != 0
            ? spec.seedOverride
            : _machine.config().seed ^
                  (static_cast<std::uint64_t>(pid) *
                   0x9e3779b97f4a7c15ULL);
    auto process = std::make_unique<JavaProcess>(
        pid, asid, profile, threads, spec.lengthScale, seed,
        _machine.scheduler(), _machine.pmu());
    process->launch(_cycle);
    trace::TraceSink* const sink = _machine.traceSink();
    if (sink != nullptr && sink->enabled()) {
        sink->instantText(trace::Track::kSim, "process_launch",
                          _cycle, "benchmark", profile.name);
    }
    JavaProcess& ref = *process;
    _live.push_back(process.get());
    _processes.push_back(std::move(process));
    return ref;
}

std::unique_ptr<JavaProcess>
Simulation::releaseProcess(JavaProcess* process)
{
    const auto live = std::find(_live.begin(), _live.end(), process);
    if (live != _live.end())
        _live.erase(live);
    for (auto it = _processes.begin(); it != _processes.end();
         ++it) {
        if (it->get() == process) {
            std::unique_ptr<JavaProcess> owned = std::move(*it);
            _processes.erase(it);
            return owned;
        }
    }
    return nullptr;
}

void
Simulation::adoptProcess(std::unique_ptr<JavaProcess> process)
{
    if (process == nullptr)
        return;
    if (!process->complete())
        _live.push_back(process.get());
    _processes.push_back(std::move(process));
}

void
Simulation::advanceTo(Cycle cycle)
{
    if (!_live.empty()) {
        if (cycle > _cycle)
            fatal("simulation: advanceTo with live processes");
        return;
    }
    // Nothing is live, so a thread still on a context finished with
    // its process and awaits the lazy deschedule of a tick this idle
    // slice will not take: take it here.
    _machine.scheduler().tick(_cycle);
    _cycle = std::max(_cycle, cycle);
}

bool
Simulation::allProcessesComplete() const
{
    return _live.empty();
}

RunResult
Simulation::run()
{
    return run(RunOptions{});
}

RunResult
Simulation::run(const RunOptions& options)
{
    // One Stepper driven start to finish — run() and externally
    // stepped runs share every line of the loop, so they are
    // bit-identical by construction.
    Stepper stepper(*this, options);
    stepper.advance(kNoCycle);
    return stepper.finish();
}

Simulation::Stepper::Stepper(Simulation& sim,
                             const RunOptions& options)
    : _sim(sim),
      _options(options),
      // Cancellation is observed only on a fixed simulated-cycle
      // lattice: cheap (one atomic load every interval) and the set
      // of possible stopping points does not depend on host timing
      // or on whether fast-forward is enabled.
      _cancelInterval(options.cancelCheckIntervalCycles > 0
                          ? options.cancelCheckIntervalCycles
                          : Cycle{65536}),
      _start(sim._cycle),
      // The composite next-event horizon of this run: the
      // scheduler's cached event cycle (ticks run only when due),
      // the sampling and cancellation lattices and maxCycles.
      _horizon(sim._machine.scheduler(),
               sim._cycle + options.maxCycles,
               options.sampleIntervalCycles,
               options.sampleIntervalCycles > 0
                   ? sim._cycle + options.sampleIntervalCycles
                   : kNoCycle,
               _cancelInterval,
               options.cancellation != nullptr
                   ? sim._cycle + _cancelInterval
                   : kNoCycle)
{
    Machine& machine = sim._machine;
    if (_options.trace != nullptr)
        machine.setTraceSink(_options.trace);
    _sink = machine.traceSink();
    _tracing = _sink != nullptr && _sink->enabled();
    _profiler = machine.core().profiler();

    // Snapshot PMU raw counts to report deltas for this run. Any
    // accounting still batched in the core (e.g. from direct
    // core().cycle() driving outside run()) must land first.
    machine.core().flushAccounting();
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            _baseline[ctx][e] =
                machine.pmu().raw(static_cast<EventId>(e), ctx);
        }
    }

    if (_options.cancellation != nullptr &&
        _options.cancellation->cancelled()) {
        _cancelled = true;
        _stopRequested = true;
    }
}

Cycle
Simulation::Stepper::advance(Cycle bound)
{
    Simulation& sim = _sim;
    Machine& machine = sim._machine;
    SmtCore& core = machine.core();

    // _retireOnlyUntil: cycles below it provably perform no
    // allocation and need no scheduler tick (see the probe below);
    // they take the slim retire-only path. Tracing disables it: the
    // slim path elides the per-cycle stall spans a traced run would
    // emit. The bound carries across advance() calls — it is a
    // property of the machine state, not of the stepping grain.
    //
    // Loop invariants are read once here; the stop flag and the live
    // set change only at the edge checks and the completion scan.
    const Cycle limit = std::min(bound, _horizon.end());
    const bool fast_forward = _options.fastForward;
    const Cycle slim_cap = _tracing ? 0 : kNoCycle;

    while (sim._cycle < limit && !_stopRequested &&
           !sim.allProcessesComplete()) {
        // Publish the clock as this core's commit horizon: every
        // shared-L2 access it makes from here on is keyed at
        // (_cycle, core) or later. Release-ordered, so a core the
        // publish unblocks observes all earlier L2 mutations.
        if (_gate != nullptr)
            _gate->publish(_gateCore, sim._cycle);

        SmtCore::CycleOutcome outcome;
        if (sim._cycle < _retireOnlyUntil) {
            outcome = core.retireOnlyCycle(sim._cycle);
        } else {
            if (_horizon.schedulerDue(sim._cycle)) {
                machine.scheduler().tick(sim._cycle);
                _horizon.noteTicked();
            }
            outcome = core.cycle(sim._cycle);
        }
        ++sim._cycle;

        // One compare covers both lattices on ordinary cycles.
        if (sim._cycle >= _horizon.nextEdge()) {
            if (sim._cycle >= _horizon.sampleEdge()) {
                // Land the batched cycle accounting so the sample
                // callback reads exact counts.
                core.flushAccounting();
                if (_options.onSample)
                    _options.onSample(sim, sim._cycle);
                if (_tracing) {
                    _sink->instant(trace::Track::kSim, "sample",
                                   sim._cycle);
                }
                _horizon.advanceSample();
            }
            if (sim._cycle >= _horizon.cancelEdge()) {
                if (_options.cancellation->cancelled()) {
                    _cancelled = true;
                    _stopRequested = true;
                }
                _horizon.advanceCancel();
            }
        }

        // Detect completions among the (few) live processes. A
        // process can only flip to complete inside a retire hook or
        // when a thread declines a fetch bundle (generation drained
        // inside nextBundle), so all other cycles skip the scan.
        if (outcome.threadEvent) {
            _justCompleted.clear();
            for (std::size_t i = 0; i < sim._live.size();) {
                if (sim._live[i]->complete()) {
                    _justCompleted.push_back(sim._live[i]);
                    sim._live[i] = sim._live.back();
                    sim._live.pop_back();
                } else {
                    ++i;
                }
            }
            for (JavaProcess* process : _justCompleted) {
                if (_tracing) {
                    _sink->instantText(trace::Track::kSim,
                                       "process_exit", sim._cycle,
                                       "benchmark",
                                       process->profile().name);
                }
                if (_options.onProcessExit) {
                    core.flushAccounting();
                    if (!_options.onProcessExit(sim, *process))
                        _stopRequested = true;
                }
            }
        }

        // Probe for a provably-stalled window after every cycle
        // that performed no allocation (an allocating cycle is
        // never the last cycle before a stall window worth probing:
        // the one extra full cycle it costs to enter such a window
        // is cheaper than probing after every busy cycle). The
        // probe and jump are bit-identity-preserving either way —
        // the full path on a stalled cycle records exactly the
        // events fastForwardAccount() replays.
        //
        // A jump may pass the caller's bound: the skipped window
        // provably performs no memory accesses, so overshooting
        // cannot reorder anything the bound protects.
        if (fast_forward && outcome.allocated == 0 &&
            !_stopRequested && !sim.allProcessesComplete()) {
            // Timed when the cycle before it was (one in the
            // profiler's sample period).
            StageStopwatch clock(
                _profiler != nullptr && _profiler->timingStages()
                    ? _profiler
                    : nullptr);
            // When every context is provably stalled until a known
            // future cycle, jump the clock there and bulk-account
            // the skipped cycles instead of simulating them.
            const Cycle sched_bound =
                _horizon.schedulerBound(sim._cycle);
            const SmtCore::CoreBounds core_bounds =
                core.bounds(sim._cycle);
            const Cycle jump_bound =
                std::min(core_bounds.stall, sched_bound);
            Cycle alloc_bound = core_bounds.alloc;
            if (jump_bound > sim._cycle) {
                // Capped one cycle short of the next sample and
                // cancellation edges so both fire on the exact
                // clock edge the cycle-by-cycle path would produce.
                const Cycle target =
                    std::min(jump_bound, _horizon.jumpCap());
                if (target > sim._cycle) {
                    core.fastForwardAccount(sim._cycle, target);
                    sim._cycle = target;
                    // The clock moved: slot parity and fetch gates
                    // are relative to the new cycle.
                    alloc_bound = core.allocBound(sim._cycle);
                }
            }
            // Windows that retire but provably cannot allocate take
            // the slim path. Re-derived after every slim cycle, so
            // any state change a retirement causes (a woken thread,
            // a freed window slot) invalidates the bound before the
            // next iteration uses it; a scheduler event inside the
            // window is impossible (sched_bound caps it).
            _retireOnlyUntil =
                std::min({alloc_bound, sched_bound, slim_cap});
            clock.lap(&StageProfiler::fastForwardSeconds);
        }
    }

    // Everything below the clock is now committed; republish so
    // cores waiting on this one never stall on a stale horizon
    // between advance() calls.
    if (_gate != nullptr)
        _gate->publish(_gateCore, sim._cycle);
    return sim._cycle;
}

RunResult
Simulation::Stepper::finish()
{
    Simulation& sim = _sim;
    Machine& machine = sim._machine;
    RunResult result;

    if (_tracing) {
        _sink->complete(trace::Track::kSim, "run", _start,
                        sim._cycle);
    }

    // Land the batched cycle accounting before the final reads.
    machine.core().flushAccounting();

    result.cycles = sim._cycle - _start;
    result.allComplete = sim.allProcessesComplete();
    result.cancelled = _cancelled;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            result.events[ctx][e] =
                machine.pmu().raw(static_cast<EventId>(e), ctx) -
                _baseline[ctx][e];
        }
    }
    for (const auto& process : sim._processes) {
        ProcessResult pr;
        pr.pid = process->pid();
        pr.benchmark = process->profile().name;
        pr.complete = process->complete();
        pr.launchCycle = process->launchCycle();
        pr.completionCycle = process->completionCycle();
        pr.durationCycles =
            process->complete() ? process->durationCycles() : 0;
        pr.gcRuns = process->heap().gcCount();
        pr.allocatedBytes = process->heap().totalAllocated();
        result.processes.push_back(std::move(pr));
    }
    return result;
}

} // namespace jsmt
