/**
 * @file
 * Java application and collector threads.
 *
 * A JavaThread produces the µop stream of one thread inside a JVM
 * process: application threads run profile-driven user code
 * interleaved with kernel work (syscalls, scheduler paths); the
 * dedicated collector thread is dormant until a stop-the-world
 * collection is started and then scans the heap. This models the
 * paper's observation that a JVM is a multithreaded program even when
 * the Java application itself is single-threaded.
 */

#ifndef JSMT_JVM_JAVA_THREAD_H
#define JSMT_JVM_JAVA_THREAD_H

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "jvm/code_walker.h"
#include "jvm/data_model.h"
#include "jvm/profile.h"
#include "os/software_thread.h"

namespace jsmt {

class JavaProcess;

/** Role of a thread within its JVM process. */
enum class ThreadKind {
    kApp,       ///< Application (mutator) thread.
    kCollector, ///< The JVM's garbage-collection helper thread.
};

/** Why a blocked thread is blocked. */
enum class BlockReason {
    kNone,
    kBarrier,  ///< Waiting for peers at a barrier.
    kMonitor,  ///< Waiting for a contended monitor.
    kGc,       ///< Stopped for a stop-the-world collection.
    kDormant,  ///< Collector with no pending collection.
};

/**
 * One schedulable JVM thread.
 */
class JavaThread : public SoftwareThread
{
  public:
    /**
     * @param id OS-visible thread id.
     * @param process owning JVM process.
     * @param kind application or collector.
     * @param app_index index among app threads (0 for collector).
     * @param quota_uops user µops to execute (0 for collector).
     * @param rng deterministic stream for this thread.
     */
    JavaThread(ThreadId id, JavaProcess& process, ThreadKind kind,
               std::uint32_t app_index, std::uint64_t quota_uops,
               Rng rng);

    bool nextBundle(Cycle now, FetchBundle& bundle) override;
    void onRetireHook(const Uop& uop, Cycle now) override;

    /** @return role of this thread. */
    ThreadKind kind() const { return _kind; }

    /** @return index among the process's application threads. */
    std::uint32_t appIndex() const { return _appIndex; }

    /** @return why the thread is blocked (valid when kBlocked). */
    BlockReason blockReason() const { return _blockReason; }

    /** Block with a reason (used by the process for STW GC). */
    void block(BlockReason reason);

    /** @return true once the thread will generate no more µops. */
    bool generationDone() const { return _generationDone; }

    /** @return user-mode µops generated so far. */
    std::uint64_t userUopsGenerated() const { return _userGenerated; }

    /** Collector only: begin a collection of @p gc_uops of work. */
    void startCollection(std::uint64_t gc_uops);

    /** Grant the contended monitor to this waiting thread. */
    void grantMonitor();

  private:
    /** Per-profile constants of fillBundle, computed once. */
    struct UopMix
    {
        /** Success probability of the dependence-distance draw. */
        double depP = 1.0;
        /**
         * Rng::threshold() of the cumulative load, +store, +fp and
         * +branch fractions (see fillBundle).
         */
        std::array<std::uint64_t, 4> bounds{};
        float mispredict = 0.0f;
        float rebuild = 0.0f;

        static UopMix of(const WorkloadProfile& profile);
    };

    /** Emit one trace line of user µops from @p walker. */
    void fillBundle(FetchBundle& bundle, CodeWalker& walker,
                    bool kernel_mode, bool memory_heavy);

    bool appBundle(Cycle now, FetchBundle& bundle);
    bool collectorBundle(Cycle now, FetchBundle& bundle);
    void kernelBundle(FetchBundle& bundle);
    void finishGeneration(Cycle now);

    /** @return next GC scan address (sweeps heap + private areas). */
    Addr gcScanAddr();

    JavaProcess& _process;
    ThreadKind _kind;
    std::uint32_t _appIndex;
    Rng _rng;
    CodeWalker _appWalker;
    CodeWalker _kernelWalker;
    DataModel _data;
    DataModel _kernelDataModel;
    UopMix _userMix;
    UopMix _kernelMix;

    std::uint64_t _quota;
    std::uint64_t _userGenerated = 0;
    bool _generationDone = false;
    bool _drainedNotified = false;
    BlockReason _blockReason = BlockReason::kNone;
    double _allocCarry = 0.0;

    // Synchronization schedule (app threads).
    std::uint64_t _nextBarrierAt = 0;
    std::uint64_t _nextMonitorAt = 0;
    std::uint64_t _nextSyscallAt = 0;
    std::uint64_t _monitorRemaining = 0;
    bool _inCriticalSection = false;
    bool _monitorGranted = false;

    // Collector state.
    std::uint64_t _gcRemaining = 0;
    std::uint64_t _gcSweepPos = 0;
};

} // namespace jsmt

#endif // JSMT_JVM_JAVA_THREAD_H
