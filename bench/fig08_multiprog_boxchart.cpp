/**
 * @file
 * Figure 8: distribution of combined speedups for multiprogrammed
 * Java benchmarks — the full 9x9 cross product of the single-
 * threaded programs, summarized per benchmark as a box chart
 * (min / Q1 / median / Q3 / max plus mean), exactly the statistic
 * the paper plots.
 *
 * Combined speedup C_AB = A_S/A_H + B_S/B_H with HT-off solo
 * baselines; 1 = perfect time sharing, 2 = perfect 2-way SMP.
 *
 * Paper shape: most benchmarks average 1.1-1.3; MolDyn is a
 * benign partner (mean ~1.26, best pairing ~1.32 with RayTracer);
 * jack averages below 1 — co-running with it slows the machine
 * down.
 *
 * Note: the cross product is the most expensive experiment; the
 * default scale is reduced (override with argv[1], and
 * --pair-runs=N for the per-pair completion count).
 */

#include "bench/bench_common.h"
#include "common/stats.h"
#include "harness/table.h"

int
main(int argc, char** argv)
{
    using namespace jsmt;
    ExperimentConfig config = benchConfig(argc, argv, 0.5);
    banner("Figure 8: distribution of combined speedups "
           "(multiprogrammed)",
           config);

    const PairMatrix matrix = runPairMatrix(config);
    const std::size_t n = matrix.names.size();

    TextTable table({"benchmark", "min", "Q1", "median", "Q3",
                     "max", "mean"});
    for (std::size_t i = 0; i < n; ++i) {
        // Distribution of speedups of benchmark i paired with every
        // program (as row benchmark, like the paper's box chart).
        std::vector<double> speedups;
        for (std::size_t j = 0; j < n; ++j)
            speedups.push_back(matrix.at(i, j).combinedSpeedup);
        const BoxSummary box = boxSummary(speedups);
        table.addRow({matrix.names[i], TextTable::fmt(box.min),
                      TextTable::fmt(box.q1),
                      TextTable::fmt(box.median),
                      TextTable::fmt(box.q3),
                      TextTable::fmt(box.max),
                      TextTable::fmt(box.mean)});
    }
    table.print(std::cout);
    std::cout << "\nPaper shape: MolDyn is a benign partner (mean "
                 "~1.26, best ~1.32 with\nRayTracer); jack's mean "
                 "falls below 1 (slowdown on SMT).\n";
    return 0;
}
