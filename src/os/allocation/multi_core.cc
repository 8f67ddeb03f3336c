#include "os/allocation/multi_core.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/log.h"
#include "exec/task_pool.h"
#include "mem/l2_gate.h"

namespace jsmt {

namespace {

/** One core slice being stepped inside the current epoch. */
struct EpochCore
{
    std::unique_ptr<Simulation::Stepper> stepper;
    CoreId core = 0;
    bool done = false;
};

/**
 * Exit guard for stepGroup: if the group's thread leaves early — by
 * exception (TaskPool catches per-task errors and waits for the
 * whole batch) or on a cancel — the unfinished slices' commit
 * horizons would stay stale and every peer group, including the
 * parallelFor caller, would spin in the gate forever. Parking the
 * remainder unblocks them, and raising the cancel flag stops the
 * surviving groups at their next check instead of letting them
 * finish a doomed epoch.
 */
struct GroupParkGuard
{
    EpochCore* begin;
    EpochCore* end;
    L2AccessGate* gate;
    std::atomic<bool>* cancel;
    bool armed = true;

    ~GroupParkGuard()
    {
        if (!armed)
            return;
        cancel->store(true, std::memory_order_relaxed);
        if (gate != nullptr) {
            for (EpochCore* ec = begin; ec != end; ++ec) {
                if (!ec->done)
                    gate->park(ec->core);
            }
        }
    }
};

/**
 * Step the slices in [@p begin, @p end) to the end of the epoch.
 *
 * The group is stepped serially in deterministic order: repeatedly
 * pick the lexicographically smallest (cycle, coreId) slice and
 * advance it until it would overtake an in-group peer — core i may
 * execute cycle c only while (c, i) precedes every other in-group
 * slice's (cycle, coreId), i.e. up to min over peers j of
 * (j < i ? cycle_j : cycle_j + 1). The pick is the global in-group
 * minimum, so that bound is always above its clock and every
 * iteration makes progress. Ordering against slices in *other*
 * groups is enforced at the actual shared-L2 access points by
 * @p gate (each advance() publishes its clock as it goes); in-group
 * peers never block on the gate because the interleave already
 * satisfies its condition. With one group covering every active
 * slice this IS the serial reference order; with several groups on
 * worker threads the L2 sees the same global access order, so
 * results are invariant to both thread count and grouping. The
 * shared L2 is the only cross-core coupling inside an epoch:
 * migrations drain the moving process out of its old core at the
 * edge (MultiCoreSimulation::moveProcess), so no slice ever touches
 * thread state another slice hosts.
 *
 * A slice that finishes the epoch early (all processes complete)
 * is parked in the gate: it will make no further L2 accesses, and
 * leaving its commit horizon at its final clock would deadlock
 * peers waiting to pass it.
 */
void
stepGroup(EpochCore* group_begin, EpochCore* group_end,
          L2AccessGate* gate, std::atomic<bool>& cancel)
{
    GroupParkGuard guard{group_begin, group_end, gate, &cancel};
    for (;;) {
        // A cancel observed by any slice (on its deterministic
        // check lattice) stops the whole chip: the armed guard
        // parks what is left so no other group spins on our commit
        // horizons. A cancelled run is wall-clock-driven and makes
        // no bit-identity promises.
        if (cancel.load(std::memory_order_relaxed))
            return;
        EpochCore* pick = nullptr;
        for (EpochCore* ec = group_begin; ec != group_end; ++ec) {
            if (ec->done)
                continue;
            if (pick == nullptr ||
                ec->stepper->cycle() < pick->stepper->cycle() ||
                (ec->stepper->cycle() == pick->stepper->cycle() &&
                 ec->core < pick->core))
                pick = ec;
        }
        if (pick == nullptr) {
            // Every slice done (and already parked at done-time):
            // a normal exit must not raise the batch cancel flag.
            guard.armed = false;
            return;
        }
        Cycle bound = kNoCycle;
        for (EpochCore* ec = group_begin; ec != group_end; ++ec) {
            if (ec->done || ec == pick)
                continue;
            const Cycle at = ec->stepper->cycle();
            bound = std::min(bound,
                             ec->core < pick->core ? at : at + 1);
        }
        pick->stepper->advance(bound);
        if (pick->stepper->cancelled())
            cancel.store(true, std::memory_order_relaxed);
        if (pick->stepper->done()) {
            pick->done = true;
            if (gate != nullptr)
                gate->park(pick->core);
        }
    }
}

} // namespace

MultiCoreSystem::MultiCoreSystem(const MultiCoreConfig& config)
    : _config(config)
{
    if (config.cores == 0)
        fatal("multi-core: cores must be positive");
    if (config.epochCycles == 0)
        fatal("multi-core: epochCycles must be positive");
    // One core needs no shared L2: the slice keeps its private one
    // and the system is bit-identical to a plain Machine.
    if (config.cores > 1) {
        _sharedL2 = std::make_unique<Cache>(
            MemorySystem::l2CacheConfig(config.system.mem));
    }
    _machines.reserve(config.cores);
    _sims.reserve(config.cores);
    for (std::uint32_t core = 0; core < config.cores; ++core) {
        _machines.push_back(std::make_unique<Machine>(
            config.system, _sharedL2.get()));
        _sims.push_back(
            std::make_unique<Simulation>(*_machines.back()));
    }
}

void
MultiCoreSystem::setTraceSink(trace::TraceSink* sink)
{
    for (auto& machine : _machines)
        machine->setTraceSink(sink);
}

std::uint64_t
MultiRunResult::coreTotal(EventId id, CoreId core) const
{
    std::uint64_t sum = 0;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx)
        sum += coreEvents[core][ctx][static_cast<std::size_t>(id)];
    return sum;
}

std::uint64_t
MultiRunResult::total(EventId id) const
{
    std::uint64_t sum = 0;
    for (CoreId core = 0; core < coreEvents.size(); ++core)
        sum += coreTotal(id, core);
    return sum;
}

double
MultiRunResult::ipc() const
{
    return cycles > 0 ? static_cast<double>(
                            total(EventId::kInstrRetired)) /
                            static_cast<double>(cycles)
                      : 0.0;
}

double
MultiRunResult::uopThroughput() const
{
    return cycles > 0 ? static_cast<double>(
                            total(EventId::kUopsRetired)) /
                            static_cast<double>(cycles)
                      : 0.0;
}

RunResult
MultiRunResult::toRunResult() const
{
    RunResult result;
    result.cycles = cycles;
    result.allComplete = allComplete;
    result.cancelled = cancelled;
    for (const auto& core : coreEvents) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            for (std::size_t e = 0; e < kNumEventIds; ++e)
                result.events[ctx][e] += core[ctx][e];
        }
    }
    for (const MultiProcessRecord& record : processes) {
        ProcessResult pr;
        pr.pid = record.pid;
        pr.benchmark = record.benchmark;
        pr.complete = record.complete;
        pr.launchCycle = record.launchCycle;
        pr.completionCycle = record.completionCycle;
        pr.durationCycles = record.durationCycles;
        pr.gcRuns = record.gcRuns;
        pr.allocatedBytes = record.allocatedBytes;
        result.processes.push_back(std::move(pr));
    }
    return result;
}

MultiCoreSimulation::MultiCoreSimulation(MultiCoreSystem& system)
    : _system(system),
      _policy(makeAllocationPolicy(system.config().policy))
{
}

std::vector<std::uint32_t>
MultiCoreSimulation::liveLoad() const
{
    std::vector<std::uint32_t> load(_system.cores(), 0);
    for (const Tracked& tracked : _tracked) {
        if (!tracked.process->complete())
            ++load[tracked.core];
    }
    return load;
}

bool
MultiCoreSimulation::allComplete() const
{
    for (const Tracked& tracked : _tracked) {
        if (!tracked.process->complete())
            return false;
    }
    return true;
}

std::uint64_t
MultiCoreSimulation::retiredUops(const Tracked& tracked) const
{
    std::uint64_t sum = 0;
    for (const auto& thread : tracked.process->threads())
        sum += thread->retiredUops();
    return sum;
}

JavaProcess&
MultiCoreSimulation::addProcess(const WorkloadSpec& spec)
{
    const std::uint64_t index = _tracked.size();
    const WorkloadProfile& profile =
        benchmarkProfile(spec.benchmark);
    const CoreId core = _policy->place(index, profile, liveLoad());
    if (core >= _system.cores())
        fatal("allocation: policy placed outside the chip");

    WorkloadSpec slice_spec = spec;
    // The slices share the asid-indexed L2, so address spaces must
    // be unique chip-wide; with one core the sequence matches what
    // Machine::allocateAsid would have produced.
    if (slice_spec.reuseAsid == 0)
        slice_spec.reuseAsid = _nextAsid++;
    // Seed by chip-wide launch index, not slice-local pid, so the
    // µop stream is invariant under placement. With one core the
    // two derivations coincide (pid == index + 1).
    if (slice_spec.seedOverride == 0) {
        slice_spec.seedOverride =
            _system.config().system.seed ^
            ((index + 1) * 0x9e3779b97f4a7c15ULL);
    }

    JavaProcess& process =
        _system.simulation(core).addProcess(slice_spec);
    Tracked tracked;
    tracked.process = &process;
    tracked.index = index;
    tracked.core = core;
    tracked.initialCore = core;
    tracked.lastRetired = 0;
    _tracked.push_back(tracked);

    trace::TraceSink* const sink =
        _system.machine(core).traceSink();
    if (sink != nullptr && sink->enabled()) {
        sink->instantArg(trace::Track::kOs, "alloc_place", _clock,
                         "core", core);
    }
    return process;
}

void
MultiCoreSimulation::moveProcess(Tracked& tracked, CoreId to,
                                 bool steal,
                                 trace::TraceSink* sink)
{
    const CoreId from = tracked.core;
    // Retire the process's in-flight µops on the old core, at the
    // edge: from here on only the new host touches its thread
    // state, so the slices stay coupled through the shared L2 alone.
    SmtCore& old_core = _system.machine(from).core();
    for (const auto& thread : tracked.process->threads())
        old_core.drainThread(thread.get(), _clock);
    Simulation& old_sim = _system.simulation(from);
    std::unique_ptr<JavaProcess> owned =
        old_sim.releaseProcess(tracked.process);
    if (owned == nullptr)
        fatal("allocation: migrating a process not owned by its "
              "core");
    if (owned->complete()) {
        // The drain retired its last µops: it finishes here.
        // Re-adopting it drops it from the slice's live set, and a
        // slice left idle lets its finished threads go at once.
        old_sim.adoptProcess(std::move(owned));
        old_sim.advanceTo(_clock);
        return;
    }
    owned->rebindHost(_system.machine(to).scheduler(),
                      _system.machine(to).pmu());
    _system.simulation(to).adoptProcess(std::move(owned));
    tracked.core = to;
    ++tracked.migrations;

    MigrationRecord record;
    record.epoch = _epochs;
    record.process = tracked.index;
    record.from = from;
    record.to = to;
    record.steal = steal;
    _log.push_back(record);
    if (steal)
        ++_steals;
    else
        ++_migrations;

    if (sink != nullptr && sink->enabled()) {
        sink->instantArg(trace::Track::kOs,
                         steal ? "alloc_steal" : "alloc_migrate",
                         _clock, "core", to);
    }
}

void
MultiCoreSimulation::rebalance(Cycle window,
                               trace::TraceSink* sink)
{
    EpochView view;
    view.epoch = _epochs;
    view.cores = _system.cores();
    view.epochCycles = window;

    std::vector<Tracked*> live;
    for (Tracked& tracked : _tracked) {
        const std::uint64_t retired = retiredUops(tracked);
        if (!tracked.process->complete()) {
            ProcessView pv;
            pv.index = tracked.index;
            pv.core = tracked.core;
            pv.epochIpc =
                window > 0
                    ? static_cast<double>(retired -
                                          tracked.lastRetired) /
                          static_cast<double>(window)
                    : 0.0;
            const WorkloadProfile& profile =
                tracked.process->profile();
            pv.footprintBytes =
                static_cast<double>(profile.sharedBytes) +
                static_cast<double>(profile.privateBytes) *
                    tracked.process->numAppThreads();
            view.processes.push_back(pv);
            live.push_back(&tracked);
        }
        tracked.lastRetired = retired;
    }
    if (live.empty())
        return;

    std::vector<CoreId> target;
    target.reserve(live.size());
    for (const Tracked* tracked : live)
        target.push_back(tracked->core);
    _policy->rebalance(view, &target);

    for (std::size_t i = 0; i < live.size(); ++i) {
        if (target[i] >= _system.cores() ||
            target[i] == live[i]->core)
            continue;
        moveProcess(*live[i], target[i], false, sink);
    }

    // Work stealing: an idle core pulls the youngest process from
    // the most loaded core, so no core sits empty while another
    // time-slices.
    if (!_policy->allowsStealing())
        return;
    std::vector<std::uint32_t> load = liveLoad();
    for (CoreId idle = 0; idle < load.size(); ++idle) {
        if (load[idle] != 0)
            continue;
        CoreId donor = 0;
        for (CoreId core = 1; core < load.size(); ++core) {
            if (load[core] > load[donor])
                donor = core;
        }
        if (load[donor] < 2)
            continue;
        Tracked* victim = nullptr;
        for (Tracked* tracked : live) {
            if (tracked->core != donor || tracked->process->complete())
                continue;
            if (victim == nullptr ||
                tracked->index > victim->index)
                victim = tracked;
        }
        if (victim == nullptr)
            continue;
        moveProcess(*victim, idle, true, sink);
        --load[donor];
        ++load[idle];
    }
}

MultiRunResult
MultiCoreSimulation::run(const RunOptions& options)
{
    const std::uint32_t cores = _system.cores();
    const Cycle epoch_cycles = _system.config().epochCycles;
    if (options.trace != nullptr)
        _system.setTraceSink(options.trace);
    trace::TraceSink* const sink = _system.machine(0).traceSink();

    // Snapshot PMU raw counts per slice to report chip deltas.
    std::vector<
        std::array<std::array<std::uint64_t, kNumEventIds>,
                   kNumContexts>>
        baseline(cores);
    for (CoreId core = 0; core < cores; ++core) {
        _system.machine(core).core().flushAccounting();
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                baseline[core][ctx][e] =
                    _system.machine(core).pmu().raw(
                        static_cast<EventId>(e), ctx);
            }
        }
    }

    // Worker count for in-epoch stepping. 1 (the default) is the
    // serial reference; the parallel settings only change wall-clock
    // behaviour, never results. Auto (0) sizes to the host, an
    // explicit N to itself; both are clamped to the core count.
    std::uint32_t workers = 1;
    if (cores > 1 && options.stepThreads != 1) {
        const std::uint32_t want =
            options.stepThreads != 0
                ? options.stepThreads
                : std::max(1u, std::thread::hardware_concurrency());
        workers = std::min(want, cores);
    }
    // The pool persists across epochs (TaskPool's workers sleep on
    // a condition variable between batches), so the per-epoch cost
    // of parallel stepping is one wake/notify round, not a thread
    // spawn.
    std::unique_ptr<exec::TaskPool> pool;
    if (workers > 1)
        pool = std::make_unique<exec::TaskPool>(workers);

    // The gate serializes cross-core shared-L2 accesses into
    // (cycle, coreId) order; it is only needed when groups step
    // concurrently — a single group enforces the same order by
    // construction, and skipping the gate keeps the serial
    // reference free of atomics.
    std::unique_ptr<L2AccessGate> gate;
    if (workers > 1) {
        gate = std::make_unique<L2AccessGate>(cores);
        for (CoreId core = 0; core < cores; ++core)
            _system.machine(core).mem().setL2Gate(gate.get(), core);
    }

    // With several slices capturing concurrently, each core traces
    // into a private shard for the duration of the run; the shards
    // are drained into the user's sink in core order at every epoch
    // edge. The merged capture is deterministic and identical for
    // every step-thread count (each shard holds exactly the events
    // that core's serial-reference slice would have emitted).
    const bool shard_tracing =
        cores > 1 && sink != nullptr && sink->enabled();
    std::vector<std::unique_ptr<trace::TraceSink>> shards;
    if (shard_tracing) {
        shards.reserve(cores);
        for (CoreId core = 0; core < cores; ++core) {
            shards.push_back(std::make_unique<trace::TraceSink>(
                sink->capacity()));
            shards.back()->setEnabled(true);
            _system.machine(core).setTraceSink(shards.back().get());
        }
    }

    MultiRunResult result;
    const Cycle start = _clock;
    const Cycle end = start + options.maxCycles;
    bool cancelled = options.cancellation != nullptr &&
                     options.cancellation->cancelled();

    std::vector<EpochCore> active;
    while (!cancelled && !allComplete() && _clock < end) {
        const Cycle target = std::min(end, _clock + epoch_cycles);

        // Slices with live work this epoch; the rest stay idle and
        // only have their clocks advanced at the edge.
        active.clear();
        for (CoreId core = 0; core < cores; ++core) {
            Simulation& sim = _system.simulation(core);
            bool has_live = false;
            for (const Tracked& tracked : _tracked) {
                if (tracked.core == core &&
                    !tracked.process->complete()) {
                    has_live = true;
                    break;
                }
            }
            if (!has_live || sim.now() >= target)
                continue;
            EpochCore ec;
            ec.core = core;
            active.push_back(std::move(ec));
        }

        if (gate != nullptr) {
            // Fresh epoch: zero every cached safe floor (commit
            // horizons may move backwards across the barrier when
            // a parked core becomes active again), then publish the
            // actual starting clocks and park the idle slices so
            // nobody waits on a core that will not step.
            gate->reset(0);
            std::size_t next = 0;
            for (CoreId core = 0; core < cores; ++core) {
                if (next < active.size() &&
                    active[next].core == core) {
                    gate->publish(core,
                                  _system.simulation(core).now());
                    ++next;
                } else {
                    gate->park(core);
                }
            }
        }

        for (EpochCore& ec : active) {
            Simulation& sim = _system.simulation(ec.core);
            Simulation::RunOptions slice;
            slice.maxCycles = target - sim.now();
            slice.fastForward = options.fastForward;
            slice.cancellation = options.cancellation;
            slice.cancelCheckIntervalCycles =
                options.cancelCheckIntervalCycles;
            // slice.trace stays null: the machine already carries
            // the right sink (the user's, or this core's shard).
            ec.stepper = std::make_unique<Simulation::Stepper>(
                sim, slice);
            if (gate != nullptr)
                ec.stepper->attachGate(gate.get(), ec.core);
        }

        if (!active.empty()) {
            std::atomic<bool> cancel_flag{false};
            // One contiguous run of active slices per worker. The
            // split never affects results, only which thread steps
            // which slice: the gate orders shared-L2 accesses
            // between groups, and nothing else couples the slices.
            const std::size_t n = active.size();
            const std::size_t groups =
                std::min<std::size_t>(workers, n);
            EpochCore* const slices = active.data();
            if (groups == 1) {
                stepGroup(slices, slices + n, gate.get(),
                          cancel_flag);
            } else {
                pool->parallelFor(groups, [&](std::size_t g) {
                    stepGroup(slices + g * n / groups,
                              slices + (g + 1) * n / groups,
                              gate.get(), cancel_flag);
                });
            }
            // Epilogues in core order: each finish() lands the
            // slice's batched accounting deterministically.
            for (EpochCore& ec : active) {
                const RunResult slice_result = ec.stepper->finish();
                cancelled = cancelled || slice_result.cancelled;
                ec.stepper.reset();
            }
        }

        if (shard_tracing) {
            for (CoreId core = 0; core < cores; ++core)
                shards[core]->drainInto(*sink);
        }
        if (cancelled)
            break;
        // Idle (or early-completed) slices keep pace so later
        // launches and migrations land at the same simulated time
        // on every core.
        for (CoreId core = 0; core < cores; ++core)
            _system.simulation(core).advanceTo(target);
        const Cycle window = target - _clock;
        _clock = target;
        ++_epochs;
        if (!allComplete())
            rebalance(window, sink);
    }

    if (gate != nullptr) {
        for (CoreId core = 0; core < cores; ++core)
            _system.machine(core).mem().setL2Gate(nullptr, 0);
    }
    if (shard_tracing)
        _system.setTraceSink(sink);

    result.cycles = _clock - start;
    result.allComplete = allComplete();
    result.cancelled = cancelled;
    result.epochs = _epochs;
    result.migrations = _migrations;
    result.steals = _steals;
    result.migrationLog = _log;
    result.coreEvents.resize(cores);
    for (CoreId core = 0; core < cores; ++core) {
        _system.machine(core).core().flushAccounting();
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                result.coreEvents[core][ctx][e] =
                    _system.machine(core).pmu().raw(
                        static_cast<EventId>(e), ctx) -
                    baseline[core][ctx][e];
            }
        }
    }
    for (const Tracked& tracked : _tracked) {
        MultiProcessRecord record;
        record.index = tracked.index;
        record.pid = tracked.process->pid();
        record.benchmark = tracked.process->profile().name;
        record.initialCore = tracked.initialCore;
        record.finalCore = tracked.core;
        record.complete = tracked.process->complete();
        record.launchCycle = tracked.process->launchCycle();
        record.completionCycle =
            tracked.process->completionCycle();
        record.durationCycles = tracked.process->complete()
                                    ? tracked.process
                                          ->durationCycles()
                                    : 0;
        record.migrations = tracked.migrations;
        record.gcRuns = tracked.process->heap().gcCount();
        record.allocatedBytes =
            tracked.process->heap().totalAllocated();
        result.processes.push_back(std::move(record));
    }
    return result;
}

std::vector<CoreId>
MultiCoreSimulation::placement() const
{
    std::vector<CoreId> cores;
    cores.reserve(_tracked.size());
    for (const Tracked& tracked : _tracked)
        cores.push_back(tracked.core);
    return cores;
}

} // namespace jsmt
