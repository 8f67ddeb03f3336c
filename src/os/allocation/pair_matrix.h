/**
 * @file
 * Pair-matrix experiment: the paper's staggered-pair multiprogrammed
 * methodology lifted onto the multi-core chip.
 *
 * One cell co-schedules 2 x cores processes (benchmarks A and B
 * alternating in launch order) on an N-core chip under one
 * allocation policy and runs them to completion; the cell metric is
 * chip-wide retired-µop throughput. Sweeping every cell under two
 * policies answers the question the allocation layer exists for:
 * how much aggregate throughput does placement win or lose.
 *
 * The canonical pairing list (identicalOnly) is the ten identical
 * pairs — one per workload profile — matching the paper's
 * two-copies-of-the-same-benchmark measurements; the full matrix is
 * all 55 unordered combinations.
 */

#ifndef JSMT_OS_ALLOCATION_PAIR_MATRIX_H
#define JSMT_OS_ALLOCATION_PAIR_MATRIX_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.h"
#include "os/allocation/multi_core.h"

namespace jsmt {

/** Options for one pair-matrix sweep. */
struct PairMatrixOptions
{
    /** Physical cores of the simulated chip. */
    std::uint32_t cores = 2;
    /** Allocation policy driving every cell. */
    AllocPolicyKind policy = AllocPolicyKind::kStaticPin;
    /** Length multiplier on every process's µop quota. */
    double lengthScale = 0.1;
    /** Allocation epoch; 0 keeps the MultiCoreConfig default. */
    Cycle epochCycles = 0;
    /** Worker threads; 0 resolves via JSMT_JOBS. */
    std::size_t jobs = 0;
    /**
     * Worker threads stepping the core slices inside each cell (see
     * MultiCoreSimulation::RunOptions::stepThreads). Applies only
     * when the cell pool has one job: with more, cells already fan
     * out over the jobs and each steps serially. Results are
     * bit-identical for every setting.
     */
    std::uint32_t stepThreads = 1;
    /** Sweep only the ten identical pairs (the canonical list). */
    bool identicalOnly = false;
    /** Safety limit per cell. */
    Cycle maxCyclesPerCell = 4'000'000'000ULL;
};

/** Result of one pair-matrix cell. */
struct PairMatrixCell
{
    std::string a;
    std::string b;
    MultiRunResult result;
    /** Chip-wide retired µops per cycle over the cell. */
    double uopThroughput = 0.0;
};

/**
 * @return the pairings a sweep runs, in cell order: the ten
 *         identical pairs when @p identical_only, else all 55
 *         unordered benchmark combinations.
 */
std::vector<std::pair<std::string, std::string>>
pairMatrixPairings(bool identical_only);

/**
 * Run the pair matrix. Cells are independent simulations fanned out
 * over a TaskPool and collected by index, so the result vector is
 * bit-identical for any job count.
 */
std::vector<PairMatrixCell>
runPairMatrix(const SystemConfig& config,
              const PairMatrixOptions& options);

} // namespace jsmt

#endif // JSMT_OS_ALLOCATION_PAIR_MATRIX_H
