#include "os/allocation/pair_matrix.h"

#include "exec/task_pool.h"
#include "jvm/benchmarks.h"

namespace jsmt {

std::vector<std::pair<std::string, std::string>>
pairMatrixPairings(bool identical_only)
{
    const std::vector<std::string>& names = benchmarkNames();
    std::vector<std::pair<std::string, std::string>> pairings;
    if (identical_only) {
        for (const std::string& name : names)
            pairings.emplace_back(name, name);
        return pairings;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = i; j < names.size(); ++j)
            pairings.emplace_back(names[i], names[j]);
    }
    return pairings;
}

std::vector<PairMatrixCell>
runPairMatrix(const SystemConfig& config,
              const PairMatrixOptions& options)
{
    const std::vector<std::pair<std::string, std::string>>
        pairings = pairMatrixPairings(options.identicalOnly);

    MultiCoreConfig chip;
    chip.system = config;
    chip.cores = options.cores;
    chip.policy = options.policy;
    if (options.epochCycles > 0)
        chip.epochCycles = options.epochCycles;

    exec::TaskPool pool(options.jobs);
    return pool.map<PairMatrixCell>(
        pairings.size(), [&](std::size_t i) {
            const std::string& a = pairings[i].first;
            const std::string& b = pairings[i].second;
            MultiCoreSystem system(chip);
            MultiCoreSimulation sim(system);
            // Two processes per core, A and B alternating in launch
            // order — the multiprogrammed load the paper pairs on
            // one Hyper-Threaded core, scaled to the chip.
            for (std::uint32_t p = 0; p < 2 * options.cores; ++p) {
                WorkloadSpec spec;
                spec.benchmark = p % 2 == 0 ? a : b;
                spec.lengthScale = options.lengthScale;
                sim.addProcess(spec);
            }
            MultiCoreSimulation::RunOptions run;
            run.maxCycles = options.maxCyclesPerCell;
            // Cells already fan out over the pool's jobs; stepping
            // them in parallel too would multiply the two.
            run.stepThreads =
                pool.jobs() > 1 ? 1 : options.stepThreads;
            PairMatrixCell cell;
            cell.a = a;
            cell.b = b;
            cell.result = sim.run(run);
            cell.uopThroughput = cell.result.uopThroughput();
            return cell;
        });
}

} // namespace jsmt
