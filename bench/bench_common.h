/**
 * @file
 * Shared helpers for the experiment (figure/table) binaries.
 *
 * Every binary accepts an optional positional scale argument plus
 * `--jobs=N` and `--pair-runs=N` flags (tests and CI use small
 * scales; 1.0 reproduces the paper-scale runs). Without `--jobs`,
 * the job count comes from JSMT_JOBS or the host. A malformed
 * argument is fatal (exit 1).
 */

#ifndef JSMT_BENCH_BENCH_COMMON_H
#define JSMT_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/env.h"
#include "common/log.h"
#include "exec/task_pool.h"
#include "harness/experiments.h"
#include "harness/table.h"

namespace jsmt {

/** @return the count after @p arg's @p prefix; fatal if malformed. */
inline std::size_t
countFlag(const std::string& arg, std::size_t prefix)
{
    std::uint64_t value = 0;
    if (!parseUint(arg.substr(prefix), &value))
        fatal("invalid value in " + arg +
              " (expected an unsigned integer)");
    return static_cast<std::size_t>(value);
}

/** Build the experiment config from argv. */
inline ExperimentConfig
benchConfig(int argc, char** argv, double default_scale = 1.0)
{
    setVerbose(std::getenv("JSMT_VERBOSE") != nullptr);
    ExperimentConfig config;
    config.lengthScale = default_scale;
    // config.jobs stays 0 here: TaskPool resolves 0 through
    // JSMT_JOBS and hardware_concurrency, so only explicit flags
    // need to override it.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            config.jobs = countFlag(arg, 7);
        } else if (arg.rfind("--pair-runs=", 0) == 0) {
            config.pairMinRuns = countFlag(arg, 12);
        } else if (arg.rfind("--", 0) == 0) {
            fatal("unknown flag " + arg +
                  " (expected --jobs=N, --pair-runs=N or a "
                  "positional scale)");
        } else if (!parseDouble(arg, &config.lengthScale)) {
            fatal("invalid scale '" + arg + "' (expected a number)");
        }
    }
    if (config.lengthScale <= 0.0)
        fatal("scale must be positive");
    if (config.pairMinRuns < 3)
        fatal("pair runs must be at least 3 (first and last "
              "completions are dropped)");
    return config;
}

/** Standard banner naming the reproduced table/figure. */
inline void
banner(const std::string& what, const ExperimentConfig& config)
{
    std::cout
        << "=================================================\n"
        << what << '\n'
        << "Huang, Lin, Zhang, Chang: \"Performance\n"
        << "Characterization of Java Applications on SMT\n"
        << "Processors\", ISPASS 2005 (simulated reproduction)\n"
        << "scale=" << config.lengthScale << " jobs="
        << exec::TaskPool::resolveJobs(config.jobs)
        << " pair-runs=" << config.pairMinRuns << '\n'
        << "=================================================\n\n";
}

/**
 * Shared body of Figures 3-6 (misses per 1000 instructions of one
 * structure, HT off vs on, multithreaded benchmarks at 2 threads).
 */
inline int
runMissFigure(int argc, char** argv, const std::string& title,
              EventId miss_event, const std::string& paper_note)
{
    ExperimentConfig config = benchConfig(argc, argv);
    banner(title, config);
    const auto rows = runMultithreadedSweep(config, {2});
    TextTable table({"benchmark", "HT-off /1K instr",
                     "HT-on /1K instr", "ratio"});
    for (const auto& row : rows) {
        const double off = row.htOff.perKiloInstr(miss_event);
        const double on = row.htOn.perKiloInstr(miss_event);
        table.addRow({row.benchmark, TextTable::fmt(off, 3),
                      TextTable::fmt(on, 3),
                      TextTable::fmt(off > 0 ? on / off : 0.0, 2)});
    }
    table.print(std::cout);
    std::cout << '\n' << paper_note << '\n';
    return 0;
}

} // namespace jsmt

#endif // JSMT_BENCH_BENCH_COMMON_H
