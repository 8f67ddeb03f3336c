/**
 * @file
 * Server thread-pool tuning — the use case behind the paper's §4.4:
 * how many threads should a Java server application run on a
 * 2-context Hyper-Threading machine?
 *
 * Sweeps the thread count for a chosen server-style benchmark
 * (default PseudoJBB), reporting throughput (IPC), L1D pressure and
 * OS overhead, and recommends the smallest thread count within 2%
 * of peak throughput — reproducing the paper's finding that two
 * threads are usually optimal on two contexts.
 *
 * Usage: server_tuning [benchmark] [scale]
 *
 * scale is a positive length multiplier (default 0.4). A malformed
 * or out-of-range argument prints the usage and exits with status 2.
 */

#include <iostream>
#include <vector>

#include "common/log.h"
#include "example_args.h"
#include "harness/solo.h"
#include "harness/table.h"
#include "jvm/benchmarks.h"

int
main(int argc, char** argv)
{
    using namespace jsmt;
    setVerbose(false);
    const ExampleArgs args(argc, argv,
                           "server_tuning [benchmark] [scale > 0]", 2);
    const std::string benchmark = args.text(1, "PseudoJBB");
    const double scale = args.scale(2, 0.4);
    if (!isBenchmark(benchmark)) {
        std::cerr << "unknown benchmark '" << benchmark << "'\n";
        return 1;
    }

    SystemConfig config;
    std::cout << "jsmt server tuning: " << benchmark << " (scale "
              << scale << ", HT on)\n\n";

    struct Row
    {
        std::uint32_t threads;
        double ipc;
        double l1dMpki;
        double osPct;
    };
    std::vector<Row> rows;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
        SoloOptions options;
        options.threads = threads;
        options.lengthScale = scale;
        const RunResult result =
            measureSolo(config, benchmark, true, options);
        rows.push_back({threads, result.ipc(),
                        result.perKiloInstr(EventId::kL1dMiss),
                        100.0 * result.osCycleFraction()});
    }

    double best_ipc = 0.0;
    for (const Row& row : rows)
        best_ipc = std::max(best_ipc, row.ipc);
    std::uint32_t recommended = rows.front().threads;
    for (const Row& row : rows) {
        if (row.ipc >= 0.98 * best_ipc) {
            recommended = row.threads;
            break;
        }
    }

    TextTable table({"threads", "IPC", "L1D misses /1K",
                     "OS cycle %", ""});
    for (const Row& row : rows) {
        table.addRow({std::to_string(row.threads),
                      TextTable::fmt(row.ipc, 3),
                      TextTable::fmt(row.l1dMpki, 1),
                      TextTable::fmt(row.osPct, 1),
                      row.threads == recommended ? "<- recommended"
                                                 : ""});
    }
    table.print(std::cout);

    std::cout << "\nRecommendation: run " << benchmark << " with "
              << recommended
              << " threads on this 2-context machine.\n"
              << "(The paper: two threads are the sweet spot on "
                 "current HT processors;\nmore threads only add "
                 "scheduling overhead and cache pressure.)\n";
    return 0;
}
