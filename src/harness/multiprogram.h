/**
 * @file
 * Multiprogrammed-pair measurement using the Tuck & Tullsen
 * repeat-relaunch methodology the paper adopts (§4.2).
 *
 * Two independent programs run simultaneously on the HT machine; a
 * utility relaunches whichever finishes, so both always co-run. Each
 * program completes at least N times; the first and last completions
 * are dropped and the rest averaged. Combined speedup is
 *   C_AB = A_S/A_H + B_S/B_H
 * with A_S, B_S the HT-disabled solo times; 1 is a perfect
 * time-sharing machine, 2 a perfect 2-way SMP.
 */

#ifndef JSMT_HARNESS_MULTIPROGRAM_H
#define JSMT_HARNESS_MULTIPROGRAM_H

#include <string>
#include <utility>
#include <vector>

#include "core/system_config.h"
#include "exec/task_pool.h"

namespace jsmt {

/** Result of co-running one pair. */
struct PairResult
{
    std::string a;
    std::string b;
    /** Mean completion time of each program while co-running. */
    double meanDurationA = 0.0;
    double meanDurationB = 0.0;
    /** HT-disabled solo execution times. */
    double soloA = 0.0;
    double soloB = 0.0;
    /** Per-program speedup components A_S/A_H and B_S/B_H. */
    double speedupA = 0.0;
    double speedupB = 0.0;
    /** Combined speedup C_AB. */
    double combinedSpeedup = 0.0;
    /** Completions measured (after dropping first and last). */
    std::size_t runsA = 0;
    std::size_t runsB = 0;
    /** Cycles simulated by the co-run (throughput reporting). */
    double coRunCycles = 0.0;
};

/**
 * Runs benchmark pairs. Solo baselines are memoized in
 * exec::ResultStore::global().
 */
class MultiprogramRunner
{
  public:
    /**
     * @param config machine configuration template.
     * @param length_scale benchmark length multiplier.
     * @param min_runs completions required per program (paper: 12).
     * @param jobs worker threads for batch entry points; 0 resolves
     *        via JSMT_JOBS / hardware_concurrency (see TaskPool).
     */
    explicit MultiprogramRunner(const SystemConfig& config,
                                double length_scale = 1.0,
                                std::size_t min_runs = 12,
                                std::size_t jobs = 0);

    /** Co-run @p a and @p b on an HT machine; compute C_AB. */
    PairResult runPair(const std::string& a, const std::string& b);

    /** HT-disabled solo duration (memoized). */
    double soloDuration(const std::string& benchmark);

    /**
     * Run @p pairs across the worker pool; results are indexed like
     * @p pairs, so the output is identical for any job count. Solo
     * baselines of all involved benchmarks are prefetched (also in
     * parallel) before the pairs fan out.
     *
     * When @p report is non-null the outcome is stored there and
     * cells whose pair threw stay default-initialized; when it is
     * null any failure is fatal.
     */
    std::vector<PairResult>
    runPairs(const std::vector<
                 std::pair<std::string, std::string>>& pairs,
             exec::BatchReport* report = nullptr);

    /** @return the full cross product over @p names. */
    std::vector<PairResult>
    runCrossProduct(const std::vector<std::string>& names,
                    exec::BatchReport* report = nullptr);

    /** @return resolved worker count. */
    std::size_t jobs() const { return _pool.jobs(); }

  private:
    /** Measure every distinct solo baseline (parallel). */
    void prefetchSolos(std::vector<std::string> names);

    SystemConfig _config;
    double _lengthScale;
    std::size_t _minRuns;
    exec::TaskPool _pool;
};

/**
 * Mean of @p durations after dropping the first and last completion
 * (cold-start and possibly-truncated runs), as in the paper.
 */
double droppedMean(const std::vector<double>& durations);

} // namespace jsmt

#endif // JSMT_HARNESS_MULTIPROGRAM_H
