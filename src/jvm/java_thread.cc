#include "jvm/java_thread.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.h"
#include "jvm/process.h"

namespace jsmt {

namespace {

/** Base address of kernel text (separate from any process). */
constexpr Addr kKernelCodeBase = 0xC000'0000;

/** Kernel µops charged per barrier arrival (futex path). */
constexpr std::uint32_t kBarrierKernelUops = 150;

/** Kernel µops charged when blocking on a contended monitor. */
constexpr std::uint32_t kMonitorKernelUops = 120;

/** Maximum dependence distance (must fit the thread ring). */
constexpr std::uint32_t kMaxDepDist = 120;

const WorkloadProfile&
kernelProfileRef()
{
    static const WorkloadProfile profile = kernelProfile();
    return profile;
}

/** Behaviour of the collector thread's own code. */
const WorkloadProfile&
collectorProfileRef()
{
    static const WorkloadProfile profile = [] {
        WorkloadProfile p;
        p.name = "jvm-gc";
        p.uopsPerThread = 1;
        p.loadFrac = 0.40;
        p.storeFrac = 0.20;
        p.fpFrac = 0.0;
        p.branchFrac = 0.12;
        p.meanDepDist = 3.0;   // Pointer chasing through the heap.
        p.mispredictRate = 0.05;
        p.codeLines = 250;     // Compact collector loop.
        p.codeMeanRun = 6.0;
        p.codeJumpLocal = 0.95;
        p.codeLoopWindow = 32;
        p.validate();
        return p;
    }();
    return profile;
}

} // namespace

JavaThread::JavaThread(ThreadId id, JavaProcess& process,
                       ThreadKind kind, std::uint32_t app_index,
                       std::uint64_t quota_uops, Rng rng)
    : SoftwareThread(id, process.asid()),
      _process(process),
      _kind(kind),
      _appIndex(app_index),
      _rng(std::move(rng)),
      _appWalker(kind == ThreadKind::kCollector
                     ? collectorProfileRef()
                     : process.profile(),
                 _rng.fork()),
      _kernelWalker(kernelProfileRef(), _rng.fork(),
                    kKernelCodeBase),
      _data(process.profile(), _rng.fork(), app_index,
            process.numAppThreads()),
      _kernelDataModel(kernelProfileRef(), _rng.fork(), 0, 1),
      _userMix(UopMix::of(kind == ThreadKind::kCollector
                              ? collectorProfileRef()
                              : process.profile())),
      _kernelMix(UopMix::of(kernelProfileRef())),
      _quota(quota_uops)
{
    const WorkloadProfile& profile = process.profile();
    const auto unlimited = ~std::uint64_t{0};
    _nextBarrierAt = profile.barrierIntervalUops > 0
                         ? profile.barrierIntervalUops
                         : unlimited;
    if (profile.monitorIntervalUops > 0) {
        // Stagger monitor entries so threads do not arrive in
        // lockstep.
        _nextMonitorAt = profile.monitorIntervalUops / 2 +
                         _rng.below(profile.monitorIntervalUops);
    } else {
        _nextMonitorAt = unlimited;
    }
    _nextSyscallAt = profile.syscallIntervalUops > 0
                         ? profile.syscallIntervalUops / 2 +
                               _rng.below(
                                   profile.syscallIntervalUops)
                         : unlimited;
    if (kind == ThreadKind::kCollector) {
        // Collectors attribute every retired user-mode µop to the
        // GC (kGcUops), so they always take the retire hook.
        _retireHook = true;
        block(BlockReason::kDormant);
    }
}

void
JavaThread::block(BlockReason reason)
{
    setState(ThreadState::kBlocked);
    _blockReason = reason;
}

void
JavaThread::startCollection(std::uint64_t gc_uops)
{
    if (_kind != ThreadKind::kCollector)
        panic("startCollection on a non-collector thread");
    _gcRemaining = std::max<std::uint64_t>(1, gc_uops);
}

void
JavaThread::grantMonitor()
{
    _monitorGranted = true;
}

Addr
JavaThread::gcScanAddr()
{
    // Linear scan over the shared heap followed by every thread's
    // private area, repeating.
    const WorkloadProfile& profile = _process.profile();
    const std::uint64_t private_span =
        _data.privateStride() *
        static_cast<std::uint64_t>(_process.numAppThreads());
    const std::uint64_t span = profile.sharedBytes + private_span;
    const std::uint64_t offset = _gcSweepPos % span;
    _gcSweepPos += 64;
    if (offset < profile.sharedBytes)
        return DataModel::kSharedBase + offset;
    const std::uint64_t rest = offset - profile.sharedBytes;
    const auto owner = static_cast<std::uint32_t>(
        rest / _data.privateStride());
    return _data.privateBaseOf(owner) +
           rest % _data.privateStride();
}

JavaThread::UopMix
JavaThread::UopMix::of(const WorkloadProfile& profile)
{
    UopMix mix;
    mix.depP = 1.0 / profile.meanDepDist;
    // The cumulative sums keep the reference left-to-right
    // association, so each threshold decides exactly what the
    // comparison against the summed double did.
    const double load_hi = profile.loadFrac;
    const double store_hi = load_hi + profile.storeFrac;
    const double fp_hi = store_hi + profile.fpFrac;
    const double branch_hi = fp_hi + profile.branchFrac;
    mix.bounds = {Rng::threshold(load_hi), Rng::threshold(store_hi),
                  Rng::threshold(fp_hi), Rng::threshold(branch_hi)};
    mix.mispredict = static_cast<float>(profile.mispredictRate);
    mix.rebuild = static_cast<float>(profile.traceDiversity);
    return mix;
}

void
JavaThread::fillBundle(FetchBundle& bundle, CodeWalker& walker,
                       bool kernel_mode, bool memory_heavy)
{
    // Collectors only synthesize user code with memory_heavy set, so
    // the user mix of a collector is the collector profile's.
    const UopMix& mix = kernel_mode ? _kernelMix : _userMix;
    DataModel& data = kernel_mode ? _kernelDataModel : _data;

    bundle.lineVaddr = walker.currentAddr();
    bundle.traceAddr = walker.currentDenseAddr();
    bundle.asid = kernel_mode ? kKernelAsid : _process.asid();
    bundle.kernelMode = kernel_mode;
    bundle.rebuildProb = mix.rebuild;
    bundle.count = 0;

    walker.nextLine();
    const bool ends_in_jump = walker.lastStepWasJump();

    // µop classes in threshold order: a draw below bounds[0] is a
    // load, below bounds[1] a store, and so on; past every bound it
    // is an ALU op. The class is the number of bounds the draw
    // crossed, so picking it is arithmetic plus one table load
    // instead of a compare chain on a random outcome.
    static constexpr UopType kClassType[] = {
        UopType::kLoad, UopType::kStore, UopType::kFp, UopType::kBranch,
        UopType::kAlu};
    static constexpr std::uint16_t kClassLatency[] = {1, 1, 5, 1, 1};
    constexpr std::size_t kBranchClass = 3;

    const auto line_uops =
        static_cast<std::uint8_t>(kUopsPerTraceLine);
    std::uint32_t memory_uops = 0; // Bit i: µop i is a load/store.
    for (std::uint8_t i = 0; i < line_uops; ++i) {
        // Field writes instead of a whole-struct reset: the pipeline
        // reads dataVaddr only for loads/stores, so a stale value in
        // a non-memory µop is unobservable; every other field is
        // written here.
        Uop& uop = bundle.uops[i];
        uop.kernelMode = kernel_mode;
        uop.pc = bundle.traceAddr + static_cast<Addr>(i) * 4;
        uop.depDist = static_cast<std::uint8_t>(std::min<std::uint64_t>(
            1 + _rng.geometric(mix.depP, kMaxDepDist), kMaxDepDist));

        // The class draw is consumed even when a line-ending jump
        // forces the last µop to be a branch.
        const std::uint64_t x = _rng.next() >> 11;
        std::size_t cls = static_cast<std::size_t>(x >= mix.bounds[0]) +
                          static_cast<std::size_t>(x >= mix.bounds[1]) +
                          static_cast<std::size_t>(x >= mix.bounds[2]) +
                          static_cast<std::size_t>(x >= mix.bounds[3]);
        if (ends_in_jump && i + 1 == line_uops)
            cls = kBranchClass;
        uop.type = kClassType[cls];
        uop.execLatency = kClassLatency[cls];
        uop.mispredictProb = mix.mispredict;
        memory_uops |= static_cast<std::uint32_t>(cls <= 1) << i;
    }
    // Data addresses in a second pass over the memory µops only. The
    // address streams (data model or GC sweep) draw nothing from
    // _rng, so every stream still sees its draws in program order,
    // and the random load/store pattern costs one loop exit instead
    // of a branch per µop.
    for (; memory_uops != 0; memory_uops &= memory_uops - 1) {
        bundle.uops[std::countr_zero(memory_uops)].dataVaddr =
            memory_heavy ? gcScanAddr() : data.nextAddr();
    }
    bundle.count = line_uops;
    noteGenerated(bundle.count);
}

void
JavaThread::kernelBundle(FetchBundle& bundle)
{
    fillBundle(bundle, _kernelWalker, true, false);
    const std::uint64_t consumed = takeKernelWork(bundle.count);
    // A short tail of kernel work still fills a whole trace line;
    // account the overshoot as kernel work too (rounding only).
    (void)consumed;
}

bool
JavaThread::collectorBundle(Cycle now, FetchBundle& bundle)
{
    (void)now;
    if (_gcRemaining == 0) {
        block(BlockReason::kDormant);
        return false;
    }
    fillBundle(bundle, _appWalker, false, true);
    const std::uint64_t done =
        std::min<std::uint64_t>(_gcRemaining, bundle.count);
    _gcRemaining -= done;
    if (_gcRemaining == 0)
        _process.collectionFinished();
    return true;
}

bool
JavaThread::appBundle(Cycle now, FetchBundle& bundle)
{
    const WorkloadProfile& profile = _process.profile();

    if (_userGenerated >= _quota) {
        finishGeneration(now);
        return false;
    }

    // Barrier synchronization.
    if (_userGenerated >= _nextBarrierAt) {
        _nextBarrierAt += profile.barrierIntervalUops;
        addKernelWork(kBarrierKernelUops);
        if (!_process.arriveBarrier(*this)) {
            _process.pmu().record(EventId::kBarrierWaits, 0);
            block(BlockReason::kBarrier);
            return false;
        }
    }

    // Contended-monitor critical sections.
    if (_inCriticalSection) {
        if (_monitorRemaining == 0) {
            _process.monitorRelease(*this);
            _inCriticalSection = false;
        }
    } else if (_monitorGranted) {
        _monitorGranted = false;
        _inCriticalSection = true;
        _monitorRemaining = profile.monitorHoldUops;
    } else if (_userGenerated >= _nextMonitorAt) {
        _nextMonitorAt += profile.monitorIntervalUops;
        if (_process.monitorAcquire(*this)) {
            _inCriticalSection = true;
            _monitorRemaining = profile.monitorHoldUops;
        } else {
            addKernelWork(kMonitorKernelUops);
            block(BlockReason::kMonitor);
            return false;
        }
    }

    // System calls.
    if (_userGenerated >= _nextSyscallAt) {
        _nextSyscallAt += profile.syscallIntervalUops;
        _process.pmu().record(EventId::kSyscalls, 0);
        addKernelWork(profile.syscallUops);
        kernelBundle(bundle);
        return true;
    }

    fillBundle(bundle, _appWalker, false, false);
    _userGenerated += bundle.count;
    if (_inCriticalSection) {
        _monitorRemaining -=
            std::min<std::uint64_t>(_monitorRemaining, bundle.count);
    }

    // Heap allocation (may trigger a stop-the-world collection that
    // blocks this thread; the bundle just produced is still valid).
    _allocCarry += bundle.count * profile.allocBytesPerUop;
    if (_allocCarry >= 1.0) {
        const auto bytes = static_cast<std::uint64_t>(_allocCarry);
        _allocCarry -= static_cast<double>(bytes);
        _process.allocate(bytes);
    }
    return true;
}

void
JavaThread::finishGeneration(Cycle now)
{
    if (_generationDone)
        return;
    if (_inCriticalSection) {
        _process.monitorRelease(*this);
        _inCriticalSection = false;
    }
    _generationDone = true;
    setState(ThreadState::kDone);
    _process.noteGenerationDone(*this, now);
    if (!_drainedNotified && retiredUops() >= generatedUops()) {
        _drainedNotified = true;
        _process.noteThreadDrained(*this, now);
    } else if (!_drainedNotified) {
        // In-flight µops remain: watch retirements until drained.
        _retireHook = true;
    }
}

bool
JavaThread::nextBundle(Cycle now, FetchBundle& bundle)
{
    if (state() == ThreadState::kDone)
        return false;
    if (pendingKernelUops() > 0) {
        kernelBundle(bundle);
        return true;
    }
    if (_kind == ThreadKind::kCollector)
        return collectorBundle(now, bundle);
    return appBundle(now, bundle);
}

void
JavaThread::onRetireHook(const Uop& uop, Cycle now)
{
    if (_kind == ThreadKind::kCollector && !uop.kernelMode)
        _process.pmu().record(EventId::kGcUops, 0);
    if (_generationDone && !_drainedNotified &&
        retiredUops() >= generatedUops()) {
        _drainedNotified = true;
        _process.noteThreadDrained(*this, now);
        // App threads have nothing further to observe once drained;
        // collectors keep the hook for GC µop attribution.
        if (_kind != ThreadKind::kCollector)
            _retireHook = false;
    }
}

} // namespace jsmt
