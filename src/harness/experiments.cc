#include "harness/experiments.h"

#include <array>
#include <utility>

#include "common/log.h"
#include "exec/task_pool.h"
#include "harness/solo.h"
#include "jvm/benchmarks.h"

namespace jsmt {

namespace {

/** Announce a fan-out once, instead of one line per point. */
void
informFanOut(const char* what, std::size_t points, std::size_t jobs)
{
    if (verbose()) {
        inform(std::string(what) + ": " + std::to_string(points) +
               " measurements across " + std::to_string(jobs) +
               " jobs");
    }
}

} // namespace

std::vector<MtCounterRow>
runMultithreadedSweep(const ExperimentConfig& config,
                      const std::vector<std::uint32_t>& thread_counts)
{
    const std::vector<std::string> names = multiThreadedNames();
    std::vector<MtCounterRow> rows(names.size() *
                                   thread_counts.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = 0; j < thread_counts.size(); ++j) {
            MtCounterRow& row = rows[i * thread_counts.size() + j];
            row.benchmark = names[i];
            row.threads = thread_counts[j];
        }
    }

    exec::TaskPool pool(config.jobs);
    informFanOut("sweep", rows.size() * 2, pool.jobs());
    // Each row is two independent runs (HT off / HT on); fan them
    // out separately so they load-balance across workers.
    pool.parallelFor(rows.size() * 2, [&](std::size_t k) {
        MtCounterRow& row = rows[k / 2];
        const bool ht = (k % 2) == 1;
        SoloOptions options;
        options.threads = row.threads;
        options.lengthScale = config.lengthScale;
        (ht ? row.htOn : row.htOff) = measureSoloCached(
            config.system, row.benchmark, ht, options);
    });
    return rows;
}

std::vector<Table2Row>
runTable2(const ExperimentConfig& config)
{
    const std::vector<std::string> names = multiThreadedNames();
    const std::array<std::uint32_t, 2> counts{2u, 8u};
    std::vector<Table2Row> rows(names.size() * counts.size());

    exec::TaskPool pool(config.jobs);
    informFanOut("table2", rows.size(), pool.jobs());
    pool.parallelFor(rows.size(), [&](std::size_t k) {
        Table2Row& row = rows[k];
        row.benchmark = names[k / counts.size()];
        row.threads = counts[k % counts.size()];
        SoloOptions options;
        options.threads = row.threads;
        options.lengthScale = config.lengthScale;
        const RunResult result = measureSoloCached(
            config.system, row.benchmark, true, options);
        row.cpi = result.cpi();
        row.osCyclePct = 100.0 * result.osCycleFraction();
        row.dualThreadPct = 100.0 * result.dualThreadFraction();
    });
    return rows;
}

PairMatrix
runPairMatrix(const ExperimentConfig& config)
{
    PairMatrix matrix;
    matrix.names = singleThreadedNames();
    MultiprogramRunner runner(config.system, config.lengthScale,
                              config.pairMinRuns, config.jobs);
    matrix.cells = runner.runCrossProduct(matrix.names);
    return matrix;
}

std::vector<SingleThreadImpactRow>
runSingleThreadImpact(const ExperimentConfig& config)
{
    const std::vector<std::string> names = singleThreadedNames();
    std::vector<SingleThreadImpactRow> rows(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        rows[i].benchmark = names[i];

    exec::TaskPool pool(config.jobs);
    informFanOut("single-thread impact", rows.size() * 2,
                 pool.jobs());
    pool.parallelFor(rows.size() * 2, [&](std::size_t k) {
        SingleThreadImpactRow& row = rows[k / 2];
        const bool ht = (k % 2) == 1;
        // Measure the warmed iteration (the paper's runs amortize
        // start-up over ~10^11 instructions; a cold synthetic run
        // would be dominated by compulsory misses).
        SoloOptions options;
        options.threads = 1;
        options.lengthScale = config.lengthScale;
        options.warmup = true;
        const double cycles = static_cast<double>(
            measureSoloCached(config.system, row.benchmark, ht,
                              options)
                .cycles);
        (ht ? row.cyclesHtOn : row.cyclesHtOff) = cycles;
    });
    for (SingleThreadImpactRow& row : rows) {
        if (row.cyclesHtOff > 0.0) {
            row.increasePct = 100.0 *
                              (row.cyclesHtOn - row.cyclesHtOff) /
                              row.cyclesHtOff;
        }
    }
    return rows;
}

std::vector<IdenticalPairRow>
runIdenticalPairs(const ExperimentConfig& config)
{
    const std::vector<std::string> names = singleThreadedNames();
    MultiprogramRunner runner(config.system, config.lengthScale,
                              config.pairMinRuns, config.jobs);
    std::vector<std::pair<std::string, std::string>> pairs;
    pairs.reserve(names.size());
    for (const std::string& name : names)
        pairs.emplace_back(name, name);
    const std::vector<PairResult> results = runner.runPairs(pairs);

    std::vector<IdenticalPairRow> rows;
    rows.reserve(results.size());
    for (const PairResult& pair : results)
        rows.push_back({pair.a, pair.combinedSpeedup});
    return rows;
}

std::vector<ThreadScalingRow>
runThreadScaling(const ExperimentConfig& config,
                 const std::vector<std::uint32_t>& thread_counts)
{
    const std::vector<std::string> names = multiThreadedNames();
    std::vector<ThreadScalingRow> rows(names.size() *
                                       thread_counts.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = 0; j < thread_counts.size(); ++j) {
            ThreadScalingRow& row =
                rows[i * thread_counts.size() + j];
            row.benchmark = names[i];
            row.threads = thread_counts[j];
        }
    }

    exec::TaskPool pool(config.jobs);
    informFanOut("scaling", rows.size(), pool.jobs());
    pool.parallelFor(rows.size(), [&](std::size_t k) {
        ThreadScalingRow& row = rows[k];
        SoloOptions options;
        options.threads = row.threads;
        options.lengthScale = config.lengthScale;
        const RunResult result = measureSoloCached(
            config.system, row.benchmark, true, options);
        row.ipc = result.ipc();
        row.l1dMissPerKiloInstr =
            result.perKiloInstr(EventId::kL1dMiss);
    });
    return rows;
}

} // namespace jsmt
