/**
 * @file
 * A JVM process: application threads, the collector thread, the heap,
 * and the process-wide synchronization objects (one barrier, one
 * contended monitor).
 */

#ifndef JSMT_JVM_PROCESS_H
#define JSMT_JVM_PROCESS_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "jvm/heap.h"
#include "jvm/java_thread.h"
#include "jvm/profile.h"
#include "os/scheduler.h"
#include "pmu/pmu.h"

namespace jsmt {

/**
 * One running JVM instance.
 *
 * Owns its threads; coordinates barriers, the contended monitor and
 * stop-the-world collections; and records its completion time, which
 * is the quantity the paper's multiprogrammed-speedup methodology is
 * built on.
 */
class JavaProcess
{
  public:
    /**
     * @param pid process id.
     * @param asid address space id (fresh per launch).
     * @param profile benchmark behaviour.
     * @param num_threads application thread count.
     * @param length_scale multiplier on the profile's µop quota
     *        (tests use small scales).
     * @param seed deterministic seed for this process instance.
     * @param scheduler OS scheduler threads are admitted to.
     * @param pmu event sink for software events.
     */
    JavaProcess(ProcessId pid, Asid asid,
                const WorkloadProfile& profile,
                std::uint32_t num_threads, double length_scale,
                std::uint64_t seed, Scheduler& scheduler, Pmu& pmu);

    JavaProcess(const JavaProcess&) = delete;
    JavaProcess& operator=(const JavaProcess&) = delete;

    /** Admit all threads to the scheduler; records launch cycle. */
    void launch(Cycle now);

    /** @return process id. */
    ProcessId pid() const { return _pid; }
    /** @return address-space id. */
    Asid asid() const { return _asid; }
    /** @return behaviour profile. */
    const WorkloadProfile& profile() const { return _profile; }
    /** @return number of application threads. */
    std::uint32_t numAppThreads() const { return _numAppThreads; }
    /** @return all threads (app threads first, collector last). */
    const std::vector<std::unique_ptr<JavaThread>>&
    threads() const
    {
        return _threads;
    }
    /** @return the collector thread. */
    JavaThread& collector() { return *_threads.back(); }

    /** @return true once every application thread has retired. */
    bool complete() const { return _complete; }
    /** @return cycle the process was launched. */
    Cycle launchCycle() const { return _launchCycle; }
    /** @return cycle the last application µop retired. */
    Cycle completionCycle() const { return _completionCycle; }
    /** @return execution time in cycles (valid when complete). */
    Cycle
    durationCycles() const
    {
        return _completionCycle - _launchCycle;
    }

    /** @return heap accounting. */
    const Heap& heap() const { return _heap; }

    /** @name Callbacks from JavaThread */
    ///@{
    /**
     * A thread arrived at the barrier.
     * @return true when the barrier released immediately (the caller
     *         was the last arriver); false when the caller must
     *         block.
     */
    bool arriveBarrier(JavaThread& thread);

    /**
     * Try to acquire the contended monitor.
     * @return true on success; false when the caller must block.
     */
    bool monitorAcquire(JavaThread& thread);

    /** Release the monitor, granting it to the next waiter. */
    void monitorRelease(JavaThread& thread);

    /**
     * Account allocation; may start a stop-the-world collection
     * (blocking all runnable app threads including the caller).
     * @return true when a collection was started.
     */
    bool allocate(std::uint64_t bytes);

    /** Collector finished: wake GC-blocked threads. */
    void collectionFinished();

    /** A thread's generation finished (may release the barrier). */
    void noteGenerationDone(JavaThread& thread, Cycle now);

    /** A thread fully retired (generation done and drained). */
    void noteThreadDrained(JavaThread& thread, Cycle now);
    ///@}

    /** @return scheduler this process's threads run under. */
    Scheduler& scheduler() { return *_scheduler; }

    /**
     * Move every thread of this process to @p scheduler (cross-core
     * migration by the allocation layer). Threads are evicted from
     * the old scheduler — run queue and contexts — and re-admitted
     * to the new one, which rebinds their state-epoch cells; all
     * future wakes (barrier releases, GC, monitor handoffs) route to
     * the new scheduler. Software-event accounting (allocation, GC,
     * monitor contention) follows the process to @p pmu, the new
     * host's counters. Thread-owned front-end state and dependence
     * rings travel with the threads; the caller has already drained
     * their in-flight µops out of the old core
     * (SmtCore::drainThread).
     */
    void rebindHost(Scheduler& scheduler, Pmu& pmu);
    /** @return PMU for software-event accounting. */
    Pmu& pmu() { return *_pmu; }

  private:
    void releaseBarrierIfComplete();

    ProcessId _pid;
    Asid _asid;
    WorkloadProfile _profile;
    std::uint32_t _numAppThreads;
    /** Never null; both reseated by rebindHost() on migration. */
    Scheduler* _scheduler;
    Pmu* _pmu;
    Heap _heap;
    std::vector<std::unique_ptr<JavaThread>> _threads;

    Cycle _launchCycle = 0;
    Cycle _completionCycle = 0;
    bool _complete = false;
    std::uint32_t _drainedAppThreads = 0;
    std::uint32_t _generationDoneThreads = 0;

    // Barrier state.
    std::vector<JavaThread*> _barrierWaiters;

    // Monitor state.
    JavaThread* _monitorHolder = nullptr;
    std::deque<JavaThread*> _monitorWaiters;

    bool _gcInProgress = false;
};

} // namespace jsmt

#endif // JSMT_JVM_PROCESS_H
