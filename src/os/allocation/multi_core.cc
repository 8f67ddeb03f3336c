#include "os/allocation/multi_core.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/log.h"
#include "exec/task_pool.h"

namespace jsmt {

namespace {

/** One core slice being stepped inside the current epoch. */
struct EpochCore
{
    std::unique_ptr<Simulation::Stepper> stepper;
    CoreId core = 0;
};

/**
 * Step the slices in [@p begin, @p end) to the quantum end
 * @p bound, in core order. Between barriers the shared L2 is
 * read-only and each slice reads and logs through its own overlay,
 * and migrations drain a moving process out of its old core at the
 * edge (MultiCoreSimulation::moveProcess), so nothing couples two
 * slices: the order and the grouping never affect results. A slice
 * that is done, or whose fast-forward jump already passed @p bound,
 * returns at once.
 */
void
stepQuantum(EpochCore* begin, EpochCore* end, Cycle bound)
{
    for (EpochCore* ec = begin; ec != end; ++ec)
        ec->stepper->advance(bound);
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
MultiCoreSystem::l2Barrier()
{
    if (_sharedL2 == nullptr)
        return;
    // Each log is in program order with non-decreasing cycles, so a
    // k-way merge that takes the smallest head cycle, ties to the
    // lower core, is the (cycle, coreId, program) order.
    struct Head
    {
        const L2LogEntry* at;
        const L2LogEntry* end;
    };
    std::vector<Head> heads;
    heads.reserve(_machines.size());
    for (auto& machine : _machines) {
        const std::vector<L2LogEntry>& log = machine->mem().l2Log();
        heads.push_back({log.data(), log.data() + log.size()});
    }
    for (;;) {
        Head* pick = nullptr;
        for (Head& head : heads) {
            if (head.at != head.end &&
                (pick == nullptr || head.at->cycle < pick->at->cycle))
                pick = &head;
        }
        if (pick == nullptr)
            break;
        const L2LogEntry& entry = *pick->at++;
        _sharedL2->access(entry.asid, entry.paddr, 0);
    }
    for (auto& machine : _machines) {
        machine->mem().l2Log().clear();
        machine->mem().beginL2Quantum();
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
    std::vector<EventCounts> baseline(cores);
    for (CoreId core = 0; core < cores; ++core) {
        _system.machine(core).core().flushAccounting();
        baseline[core] = _system.machine(core).pmu().counts();
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
    // The pool persists across quanta (TaskPool's workers wait
    // between batches), so the per-quantum cost of parallel
    // stepping is one batch hand-off, not a thread spawn.
    std::unique_ptr<exec::TaskPool> pool;
    if (workers > 1)
        pool = std::make_unique<exec::TaskPool>(workers);

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
        }

        if (!active.empty()) {
            // Quanta from the epoch start, the last one clipped at
            // the edge; one core has no shared L2 and steps the
            // epoch as a single quantum. Each quantum steps every
            // slice to its end, in one contiguous group of slices
            // per worker, then the barrier merges the L2 logs.
            const Cycle quantum =
                cores > 1 ? kL2QuantumCycles : epoch_cycles;
            const std::size_t n = active.size();
            const std::size_t groups =
                std::min<std::size_t>(workers, n);
            EpochCore* const slices = active.data();
            for (Cycle edge = _clock; edge < target;) {
                edge = std::min(target, edge + quantum);
                if (groups == 1) {
                    stepQuantum(slices, slices + n, edge);
                } else {
                    pool->parallelFor(groups, [&](std::size_t g) {
                        stepQuantum(slices + g * n / groups,
                                    slices + (g + 1) * n / groups,
                                    edge);
                    });
                }
                _system.l2Barrier();
                // A cancel observed by any slice (on its
                // deterministic check lattice) stops the whole
                // chip; a cancelled run makes no bit-identity
                // promises.
                bool stepping = false;
                bool stop = false;
                for (const EpochCore& ec : active) {
                    stepping = stepping || !ec.stepper->done();
                    stop = stop || ec.stepper->cancelled();
                }
                if (stop || !stepping)
                    break;
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
        result.coreEvents[core] = countsDelta(
            _system.machine(core).pmu().counts(), baseline[core]);
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
