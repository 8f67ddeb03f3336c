/**
 * @file
 * Simulation driver: owns the processes running on a Machine and
 * advances the clock until they complete.
 */

#ifndef JSMT_CORE_SIMULATION_H
#define JSMT_CORE_SIMULATION_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/event_horizon.h"
#include "core/machine.h"
#include "core/run_result.h"
#include "jvm/benchmarks.h"
#include "jvm/process.h"
#include "common/cancellation.h"

namespace jsmt {

class MemorySystem;
class StageProfiler;

/** Description of one workload to launch. */
struct WorkloadSpec
{
    /** Registered benchmark name (see jvm/benchmarks.h). */
    std::string benchmark;
    /** Application threads; 0 means the profile's default. */
    std::uint32_t threads = 0;
    /** Multiplier on the profile's µop quota (tests use < 1). */
    double lengthScale = 1.0;
    /**
     * Address space to run in; 0 allocates a fresh one. Reusing the
     * asid of a completed instance models a further iteration inside
     * the same (warmed) JVM — how the paper measures steady state
     * (SPECjvm98 -m1 -M1 inside a running harness, PseudoJBB with
     * initialization excluded).
     */
    Asid reuseAsid = 0;
    /**
     * Workload generator seed; 0 derives one from the machine seed
     * and the process id (the default, and the only behaviour before
     * multi-core). The multi-core driver passes an explicit seed
     * derived from the chip-wide launch index so a process generates
     * the same µop stream no matter which core the allocation policy
     * placed it on.
     */
    std::uint64_t seedOverride = 0;
};

/**
 * Drives a Machine: launches JVM processes and runs the cycle loop.
 *
 * Multiple run() calls continue the same clock; processes may be
 * added between or during runs (the repeat-relaunch harness adds a
 * fresh instance from the exit callback).
 */
class Simulation
{
  public:
    /** Options controlling one run() call. */
    struct RunOptions
    {
        /** Safety limit on cycles simulated by this call. */
        Cycle maxCycles = 4'000'000'000ULL;
        /**
         * Called once when a process completes. Return false to
         * stop the run; the callback may addProcess() to relaunch.
         */
        std::function<bool(Simulation&, JavaProcess&)> onProcessExit;
        /**
         * When positive, onSample is invoked every this many cycles
         * (time-series measurement, e.g. jsmt_run's
         * --sample-interval table).
         */
        Cycle sampleIntervalCycles = 0;
        /** Periodic callback; see sampleIntervalCycles. */
        std::function<void(Simulation&, Cycle)> onSample;
        /**
         * Fast-forward the cycle loop over provably stalled windows
         * (every context waiting on a known future cycle: a cache
         * fill, a branch redirect, the ROB head's completion, an
         * empty run queue). Skipped cycles are bulk-accounted so the
         * resulting RunResult is bit-identical to a cycle-by-cycle
         * run; disable to cross-check that equivalence.
         */
        bool fastForward = true;
        /**
         * When non-null, attached to the machine for the duration of
         * this run (and left attached afterwards): the simulator
         * emits run/launch/exit/sample events plus per-component
         * pipeline and memory events into it. Borrowed, not owned.
         * Tracing never changes RunResult — event counts are
         * bit-identical with and without a sink.
         */
        trace::TraceSink* trace = nullptr;
        /**
         * When non-null, polled every cancelCheckIntervalCycles
         * simulated cycles (and once before the loop): if the token
         * is cancelled the run stops at that check edge and the
         * result comes back with cancelled = true. Checks happen on
         * a fixed simulated-cycle lattice, so the set of possible
         * stopping points is deterministic and fast-forward never
         * skips one. Borrowed, not owned.
         */
        const CancellationToken* cancellation = nullptr;
        /** Simulated-cycle spacing of cancellation checks. */
        Cycle cancelCheckIntervalCycles = 65536;
    };

    class Stepper;

    explicit Simulation(Machine& machine);

    /**
     * Create and launch a process at the current cycle.
     * @return reference owned by the simulation.
     */
    JavaProcess& addProcess(const WorkloadSpec& spec);

    /**
     * Transfer ownership of @p process out of this simulation: it
     * leaves the live set (so this driver stops scanning it for
     * completion) and the owned-process list. Its threads are NOT
     * detached from this machine's scheduler — the caller does that
     * via JavaProcess::rebindHost. Used by the multi-core
     * allocation layer to migrate a process to another core.
     * @return the owning pointer (null if not owned here).
     */
    std::unique_ptr<JavaProcess> releaseProcess(JavaProcess* process);

    /**
     * Adopt a process released from another simulation. It joins
     * the owned list and, unless complete, the live set; the caller
     * has already rebound its threads to this machine's scheduler.
     */
    void adoptProcess(std::unique_ptr<JavaProcess> process);

    /**
     * Advance the idle clock to @p cycle (no-op when already past).
     * Only valid while no process is live — the multi-core driver
     * uses it to keep an idle core's clock in lockstep with the
     * other cores so a later launch or migration lands at the same
     * simulated time everywhere. Threads of finished processes leave
     * the scheduler here.
     */
    void advanceTo(Cycle cycle);

    /**
     * Run until every process has completed (or the callback stops
     * the run, or maxCycles elapse).
     */
    RunResult run(const RunOptions& options);

    /** Run with default options. */
    RunResult run();

    /** @return current simulated cycle. */
    Cycle now() const { return _cycle; }

    /** @return all processes launched so far. */
    const std::vector<std::unique_ptr<JavaProcess>>&
    processes() const
    {
        return _processes;
    }

    /** @return the machine being driven. */
    Machine& machine() { return _machine; }

  private:
    friend class Stepper;

    bool allProcessesComplete() const;

    Machine& _machine;
    Cycle _cycle = 0;
    ProcessId _nextPid = 1;
    std::vector<std::unique_ptr<JavaProcess>> _processes;
    /** Launched processes that have not completed yet. */
    std::vector<JavaProcess*> _live;
};

/**
 * Resumable form of one run() call: the prologue (PMU baseline,
 * event horizon, cancellation lattice) happens once at
 * construction, the main loop advances in caller-bounded steps, and
 * finish() performs the epilogue and assembles the RunResult.
 * run() itself is one Stepper driven start to finish, so the two
 * are bit-identical by construction.
 *
 * The multi-core stepping engine is the reason this exists: it
 * steps N cores' cycle loops quantum by quantum between epoch edges
 * (serially or on worker threads) without paying the
 * prologue/epilogue per quantum. On a chip slice the loop stamps
 * its clock into the shared-L2 view, keying every logged access
 * for the barrier merge (see MultiCoreSystem::l2Barrier).
 *
 * advance(bound) steps the loop while the clock is below @p bound
 * and the run is not done. A fast-forward jump may legitimately
 * overshoot the bound: a jumped window provably performs no memory
 * accesses, so no access is ever logged at or past the bound.
 */
class Simulation::Stepper
{
  public:
    Stepper(Simulation& sim, const RunOptions& options);

    Stepper(const Stepper&) = delete;
    Stepper& operator=(const Stepper&) = delete;

    /**
     * Step until the clock reaches @p bound (or the run completes,
     * stops, cancels, or exhausts maxCycles). @return the clock
     * after stepping; may exceed @p bound only via a fast-forward
     * jump over a provably access-free window.
     */
    Cycle advance(Cycle bound);

    /** @return whether the run can step no further. */
    bool
    done() const
    {
        return _stopRequested || _sim.allProcessesComplete() ||
               _sim._cycle >= _horizon.end();
    }

    /** @return whether a cancellation check observed a cancel. */
    bool cancelled() const { return _cancelled; }

    /** @return the simulation clock. */
    Cycle cycle() const { return _sim._cycle; }

    /**
     * Epilogue: land batched accounting and assemble the RunResult
     * of everything stepped since construction. Call at most once;
     * the Stepper is spent afterwards.
     */
    RunResult finish();

  private:
    Simulation& _sim;
    RunOptions _options;
    Cycle _cancelInterval;
    Cycle _start;
    EventHorizon _horizon;
    trace::TraceSink* _sink = nullptr;
    bool _tracing = false;
    StageProfiler* _profiler = nullptr;
    bool _stopRequested = false;
    bool _cancelled = false;
    /** The slice's shared-L2 view; null off a chip. */
    MemorySystem* _l2View = nullptr;
    std::vector<JavaProcess*> _justCompleted;
    EventCounts _baseline{};
};

} // namespace jsmt

#endif // JSMT_CORE_SIMULATION_H
