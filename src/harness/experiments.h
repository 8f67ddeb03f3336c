/**
 * @file
 * Experiment drivers: one function per table/figure of the paper's
 * evaluation (§4). Bench binaries call these at full scale and print
 * the results; tests call them at reduced scale and check the
 * qualitative claims.
 */

#ifndef JSMT_HARNESS_EXPERIMENTS_H
#define JSMT_HARNESS_EXPERIMENTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "core/system_config.h"
#include "harness/multiprogram.h"

namespace jsmt {

/** Shared experiment parameters. */
struct ExperimentConfig
{
    SystemConfig system;
    /** Benchmark length multiplier (1.0 = paper scale). */
    double lengthScale = 1.0;
    /** Completions per program in pair experiments (paper: 12). */
    std::size_t pairMinRuns = 12;
    /**
     * Worker threads fanning out independent measurements; 0
     * resolves via JSMT_JOBS and then hardware_concurrency (see
     * exec::TaskPool). Results are bit-identical for any value.
     */
    std::size_t jobs = 0;
};

/** One multithreaded benchmark measured HT-off and HT-on. */
struct MtCounterRow
{
    std::string benchmark;
    std::uint32_t threads = 2;
    RunResult htOff;
    RunResult htOn;
};

/**
 * Run the four multithreaded benchmarks at each thread count with HT
 * disabled and enabled; the counter rows behind Figures 1-7. A
 * resumable, deadline-bounded sweep is `jsmt_run --sweep --resume
 * --task-timeout`.
 */
std::vector<MtCounterRow> runMultithreadedSweep(
    const ExperimentConfig& config,
    const std::vector<std::uint32_t>& thread_counts = {2});

/** Table 2: characterization of multithreaded benchmarks (HT on). */
struct Table2Row
{
    std::string benchmark;
    std::uint32_t threads = 2;
    double cpi = 0.0;
    double osCyclePct = 0.0;
    double dualThreadPct = 0.0;
};

/** Run Table 2 (2 and 8 threads, HT enabled). */
std::vector<Table2Row> runTable2(const ExperimentConfig& config);

/** Figures 8/9: the 9x9 combined-speedup matrix. */
struct PairMatrix
{
    std::vector<std::string> names;
    /** Row-major: cells[i * names.size() + j] pairs names[i] (row)
     * with names[j] (column). */
    std::vector<PairResult> cells;

    const PairResult&
    at(std::size_t i, std::size_t j) const
    {
        return cells[i * names.size() + j];
    }
};

/** Run the full single-threaded cross product (81 pairs). */
PairMatrix runPairMatrix(const ExperimentConfig& config);

/** Figure 10: HT impact on single-threaded execution time. */
struct SingleThreadImpactRow
{
    std::string benchmark;
    double cyclesHtOff = 0.0;
    double cyclesHtOn = 0.0;
    /** Execution-time increase in percent (positive = slower). */
    double increasePct = 0.0;
};

/** Run Figure 10 (9 single-threaded programs, HT off vs on). */
std::vector<SingleThreadImpactRow>
runSingleThreadImpact(const ExperimentConfig& config);

/** Figure 11: two identical copies co-scheduled. */
struct IdenticalPairRow
{
    std::string benchmark;
    double combinedSpeedup = 0.0;
};

/** Run Figure 11 over the nine single-threaded programs. */
std::vector<IdenticalPairRow>
runIdenticalPairs(const ExperimentConfig& config);

/** Figure 12: IPC versus thread count (HT on). */
struct ThreadScalingRow
{
    std::string benchmark;
    std::uint32_t threads = 1;
    double ipc = 0.0;
    double l1dMissPerKiloInstr = 0.0;
};

/** Run Figure 12 (threads in {1,2,4,8,16}). */
std::vector<ThreadScalingRow> runThreadScaling(
    const ExperimentConfig& config,
    const std::vector<std::uint32_t>& thread_counts = {1, 2, 4, 8,
                                                       16});

} // namespace jsmt

#endif // JSMT_HARNESS_EXPERIMENTS_H
