/**
 * @file
 * Multi-core chip model and driver: N single-core SMT machine
 * slices sharing one L2, stepped in lockstep epochs, with process
 * placement and migration delegated to an AllocationPolicy.
 *
 * Each core is a full Machine (private trace cache, L1d, BTB, TLBs,
 * scheduler, PMU) — exactly the paper's Hyper-Threaded Xeon — while
 * the L2 is one shared Cache object indexed by (asid, tag), so the
 * chip-wide working set competes for it just as the two contexts of
 * one core already did. The front-side bus and L2 port occupancy
 * cursors stay per-core (each slice owns a private port into the
 * shared array), which keeps the slices' clocks independent inside
 * an epoch.
 *
 * The driver advances every core to the same epoch edge, measures
 * per-process progress over the epoch, asks the policy for next
 * placements, and performs the migrations (draining the process's
 * in-flight µops out of the old core, thread rebinding and
 * process-ownership transfer) at the edge. Inside an epoch the
 * slices step in quanta of kL2QuantumCycles: during a quantum every
 * slice runs freely, reading the shared L2 as it stood at the
 * quantum start plus its own accesses, and at the barrier the
 * slices' logged accesses are applied to the shared L2 in
 * (cycle, coreId) order (serially, or on worker threads with
 * RunOptions::stepThreads; DESIGN.md §11). Everything is a function
 * of the configuration — never of the thread count — so runs are
 * bit-reproducible; with one core and the static-pin policy the
 * driver degenerates to the plain single-machine Simulation and is
 * bit-identical to it.
 */

#ifndef JSMT_OS_ALLOCATION_MULTI_CORE_H
#define JSMT_OS_ALLOCATION_MULTI_CORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/run_result.h"
#include "core/simulation.h"
#include "os/allocation/allocation.h"

namespace jsmt {

/** Configuration of a multi-core chip. */
struct MultiCoreConfig
{
    /** Per-core configuration (every slice is identical). */
    SystemConfig system;
    /** Physical core count (each with kNumContexts contexts). */
    std::uint32_t cores = 1;
    /** Placement / migration policy. */
    AllocPolicyKind policy = AllocPolicyKind::kStaticPin;
    /**
     * Allocation epoch length: cores run independently for this many
     * cycles, then synchronize for measurement and rebalancing. Also
     * the granularity at which a cross-core completion is observed.
     */
    Cycle epochCycles = 200'000;
};

/**
 * The chip: N machine slices plus the shared L2. With cores == 1 no
 * shared L2 is built and the single slice is self-contained (the
 * seed single-core configuration, bit for bit).
 */
class MultiCoreSystem
{
  public:
    explicit MultiCoreSystem(const MultiCoreConfig& config);

    MultiCoreSystem(const MultiCoreSystem&) = delete;
    MultiCoreSystem& operator=(const MultiCoreSystem&) = delete;

    const MultiCoreConfig& config() const { return _config; }
    std::uint32_t cores() const { return _config.cores; }

    Machine& machine(CoreId core) { return *_machines[core]; }
    Simulation& simulation(CoreId core) { return *_sims[core]; }

    /** @return the shared L2 (nullptr when cores == 1). */
    Cache* sharedL2() { return _sharedL2.get(); }

    /**
     * The quantum barrier: apply every slice's logged shared-L2
     * accesses to the shared L2 in (cycle, coreId, program) order,
     * then start the next quantum on every slice. Call with no
     * slice stepping. No-op with one core.
     */
    void l2Barrier();

    /** Attach @p sink to every slice (nullptr detaches). */
    void setTraceSink(trace::TraceSink* sink);

  private:
    MultiCoreConfig _config;
    std::unique_ptr<Cache> _sharedL2;
    std::vector<std::unique_ptr<Machine>> _machines;
    std::vector<std::unique_ptr<Simulation>> _sims;
};

/** One cross-core process move decided at an epoch edge. */
struct MigrationRecord
{
    /** Epoch number the move happened at (1-based). */
    std::uint64_t epoch = 0;
    /** Chip-wide launch index of the moved process. */
    std::uint64_t process = 0;
    CoreId from = 0;
    CoreId to = 0;
    /** True when an idle core pulled the process (work stealing). */
    bool steal = false;
};

/** Lifetime record of one process under the multi-core driver. */
struct MultiProcessRecord
{
    std::uint64_t index = 0;
    ProcessId pid = 0;
    std::string benchmark;
    CoreId initialCore = 0;
    CoreId finalCore = 0;
    bool complete = false;
    Cycle launchCycle = 0;
    Cycle completionCycle = 0;
    Cycle durationCycles = 0;
    /** Cross-core moves (migrations + steals) this process made. */
    std::uint64_t migrations = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t allocatedBytes = 0;
};

/** Outcome of one MultiCoreSimulation::run() call. */
struct MultiRunResult
{
    /** Lockstep cycles advanced by this run() call. */
    Cycle cycles = 0;
    bool allComplete = false;
    bool cancelled = false;
    std::uint64_t epochs = 0;
    std::uint64_t migrations = 0;
    std::uint64_t steals = 0;
    /** Event deltas per core, per logical CPU of that core. */
    std::vector<EventCounts> coreEvents;
    std::vector<MultiProcessRecord> processes;
    std::vector<MigrationRecord> migrationLog;

    /** @return event count summed over every context of @p core. */
    std::uint64_t coreTotal(EventId id, CoreId core) const;

    /** @return event count summed over the whole chip. */
    std::uint64_t total(EventId id) const;

    /** @return chip-wide retired instructions per lockstep cycle. */
    double ipc() const;

    /** @return chip-wide retired µops per lockstep cycle. */
    double uopThroughput() const;

    /**
     * Fold into the single-machine result shape (context c of every
     * core summed into logical slot c), so multi-core measurements
     * flow through the existing serialization, checkpoint and
     * reporting paths unchanged. With one core this is lossless.
     */
    RunResult toRunResult() const;
};

/**
 * Drives a MultiCoreSystem: launches processes where the policy
 * says, steps every core to successive epoch edges, and migrates
 * processes between cores at those edges.
 */
class MultiCoreSimulation
{
  public:
    /**
     * Length of the shared-L2 quantum: a core sees a peer's L2 fill
     * at most this many cycles late (DESIGN.md §11).
     */
    static constexpr Cycle kL2QuantumCycles = 2'000;

    /** Options controlling one run() call. */
    struct RunOptions
    {
        /** Safety limit on lockstep cycles advanced by this call. */
        Cycle maxCycles = 4'000'000'000ULL;
        /** Forwarded to every slice run (see Simulation). */
        bool fastForward = true;
        /** Attached to every slice for the run; borrowed. */
        trace::TraceSink* trace = nullptr;
        /** Forwarded to every slice run; borrowed. */
        const CancellationToken* cancellation = nullptr;
        /** Simulated-cycle spacing of cancellation checks. */
        Cycle cancelCheckIntervalCycles = 65536;
        /**
         * Worker threads stepping core slices inside each quantum.
         * 1 (the default) is the serial reference: one thread
         * steps the slices to each barrier in core order. 0 (auto)
         * uses one worker per host hardware thread and N > 1 uses
         * N; both are clamped to the core count. Callers that
         * already fan cells out over a TaskPool pass 1 (see
         * runPairMatrix). Every setting produces bit-identical
         * results — nothing couples two slices between barriers —
         * so the choice is purely a wall-clock knob.
         */
        std::uint32_t stepThreads = 1;
    };

    explicit MultiCoreSimulation(MultiCoreSystem& system);

    /**
     * Create and launch a process on the core the policy picks.
     * Fresh processes get a chip-wide unique asid (the slices share
     * the asid-indexed L2) and a seed derived from the chip-wide
     * launch index, so the generated µop stream does not depend on
     * which core the policy chose.
     */
    JavaProcess& addProcess(const WorkloadSpec& spec);

    /** Run until every process completes (or maxCycles elapse). */
    MultiRunResult run(const RunOptions& options);

    /** Run with default options. */
    MultiRunResult run() { return run(RunOptions{}); }

    /** @return the lockstep clock (max over slice clocks). */
    Cycle now() const { return _clock; }

    /** @return the core each launched process currently runs on. */
    std::vector<CoreId> placement() const;

    /** @name Lifetime allocation counters */
    ///@{
    std::uint64_t epochs() const { return _epochs; }
    std::uint64_t migrations() const { return _migrations; }
    std::uint64_t steals() const { return _steals; }
    ///@}

    /** @return the driving policy. */
    AllocationPolicy& policy() { return *_policy; }

  private:
    /** Driver-side state of one launched process. */
    struct Tracked
    {
        JavaProcess* process = nullptr;
        std::uint64_t index = 0;
        CoreId core = 0;
        CoreId initialCore = 0;
        std::uint64_t migrations = 0;
        /** Retired-µop total at the last epoch edge. */
        std::uint64_t lastRetired = 0;
    };

    std::vector<std::uint32_t> liveLoad() const;
    bool allComplete() const;
    std::uint64_t retiredUops(const Tracked& tracked) const;
    /**
     * Drain the process's in-flight µops out of its current core
     * (SmtCore::drainThread), then hand it to core @p to. A process
     * the drain completes is pruned from its slice and stays put.
     */
    void moveProcess(Tracked& tracked, CoreId to, bool steal,
                     trace::TraceSink* sink);
    void rebalance(Cycle window, trace::TraceSink* sink);

    MultiCoreSystem& _system;
    std::unique_ptr<AllocationPolicy> _policy;
    std::vector<Tracked> _tracked;
    Asid _nextAsid = 1;
    Cycle _clock = 0;
    std::uint64_t _epochs = 0;
    std::uint64_t _migrations = 0;
    std::uint64_t _steals = 0;
    std::vector<MigrationRecord> _log;
};

} // namespace jsmt

#endif // JSMT_OS_ALLOCATION_MULTI_CORE_H
