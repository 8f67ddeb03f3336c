/**
 * @file
 * Per-stage wall-time accumulators for the simulator hot path,
 * surfaced by `jsmt_run --profile`.
 *
 * A StageProfiler is attached to the core with
 * SmtCore::setProfiler(); when detached (the default) the core runs
 * a cycle path compiled without any timer code. When attached, one
 * executed cycle in kSamplePeriod is timed, alternately stage by
 * stage or walk by walk through the memory system, and each measured
 * interval is scaled to the whole run, so the fields estimate the
 * run's per-stage wall time while the clock reads cost a small
 * fraction of it. Consecutive stages share their boundary clock
 * reads, every interval has the cost of its own clock read
 * subtracted (see StageStopwatch), and no stage interval contains
 * the reads of a nested memory timer, so the probe does not inflate
 * short stages.
 * The memory walks happen inside the fetch/alloc stage, so
 * memorySeconds is a subset of fetchAllocSeconds; report fetch/alloc
 * exclusive of memory by subtraction.
 */

#ifndef JSMT_UARCH_STAGE_PROFILER_H
#define JSMT_UARCH_STAGE_PROFILER_H

#include <chrono>
#include <cstdint>

namespace jsmt {

/** What one executed cycle times (see StageProfiler::nextCycle). */
enum class StageProbe {
    kOff,    ///< Untimed.
    kStages, ///< Retire, fetch/alloc and accounting laps.
    kMemory, ///< Each memory-system walk.
};

/** Wall-time breakdown of the per-cycle pipeline stages. */
struct StageProfiler
{
    using ClockType = std::chrono::steady_clock;

    /**
     * One executed cycle in this many is timed. Odd, so the sampled
     * cycles alternate parity and cover both contexts' allocation
     * slots under Hyper-Threading.
     */
    static constexpr std::uint32_t kSamplePeriod = 127;
    /**
     * Run-scale factor of one timed interval: stage and memory
     * samples alternate, so each kind covers 2 * kSamplePeriod
     * cycles.
     */
    static constexpr double kScale = 2.0 * kSamplePeriod;

    /** Retirement stage (includes onRetire callbacks). */
    double retireSeconds = 0.0;
    /** Fetch+allocate stage, inclusive of the memory walks. */
    double fetchAllocSeconds = 0.0;
    /** Memory-hierarchy walks (fetchLine/dataAccess) only. */
    double memorySeconds = 0.0;
    /** Busy/idle/mode accounting (batched PMU window upkeep). */
    double accountSeconds = 0.0;
    /**
     * Fast-forward machinery in the driver: horizon probes, clock
     * jumps and their batched skipped-window accounting. Accumulated
     * by the simulation loop, not the core, so it is disjoint from
     * the per-stage buckets above. A probe is timed when the stages
     * of the cycle before it were.
     */
    double fastForwardSeconds = 0.0;
    /** Cycles simulated while attached (fast-forwarded ones not
     *  included — they never enter the per-cycle path). */
    std::uint64_t cycles = 0;
    /** Cycles among those that were timed (either kind). */
    std::uint64_t sampledCycles = 0;

    /**
     * Count one executed cycle. @return what to time in it: one
     * cycle in kSamplePeriod, stages and memory walks in turn.
     */
    StageProbe
    nextCycle()
    {
        ++cycles;
        _probe = StageProbe::kOff;
        if (++_phase == kSamplePeriod) {
            _phase = 0;
            _probe = sampledCycles++ % 2 == 0 ? StageProbe::kStages
                                              : StageProbe::kMemory;
        }
        return _probe;
    }

    /** @return whether the current cycle's stages are being timed. */
    bool
    timingStages() const
    {
        return _probe == StageProbe::kStages;
    }

  private:
    std::uint32_t _phase = 0;
    StageProbe _probe = StageProbe::kOff;
};

/**
 * Lap timer over one sampled cycle: lap() charges the time since the
 * previous lap (or construction) to a StageProfiler field, scaled to
 * the whole run, and starts the next interval at the same clock
 * read. Each interval spans one clock read besides its body, so the
 * constructor measures what a read costs in this context (two
 * back-to-back reads) and every lap subtracts it. A closing read
 * partly overlaps the stage it ends, so a stage of a few
 * nanoseconds can come out slightly negative, while the reads also
 * drain the host pipeline, so longer stages read a little high. A
 * null profiler makes every call a no-op (no clock reads).
 */
class StageStopwatch
{
  public:
    using ClockType = StageProfiler::ClockType;

    explicit StageStopwatch(StageProfiler* profiler)
        : _profiler(profiler)
    {
        if (_profiler == nullptr)
            return;
        const ClockType::time_point first = ClockType::now();
        _start = ClockType::now();
        _readSeconds = seconds(_start - first);
    }

    void
    lap(double StageProfiler::* field)
    {
        if (_profiler == nullptr)
            return;
        const ClockType::time_point end = ClockType::now();
        _profiler->*field +=
            (seconds(end - _start) - _readSeconds) *
            StageProfiler::kScale;
        _start = end;
    }

  private:
    static double
    seconds(ClockType::duration d)
    {
        return std::chrono::duration<double>(d).count();
    }

    StageProfiler* _profiler;
    ClockType::time_point _start{};
    double _readSeconds = 0.0;
};

/**
 * Compile-time form of StageStopwatch for the core's cycle path,
 * which is compiled twice: kProfiled = false yields an empty object
 * (no checks, no clock reads), kProfiled = true is a StageStopwatch.
 */
template <bool kProfiled>
class StageClock
{
  public:
    explicit StageClock(StageProfiler*) {}
    void lap(double StageProfiler::*) {}
};

template <>
class StageClock<true> : public StageStopwatch
{
  public:
    using StageStopwatch::StageStopwatch;
};

} // namespace jsmt

#endif // JSMT_UARCH_STAGE_PROFILER_H
