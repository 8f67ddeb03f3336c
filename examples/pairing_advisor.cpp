/**
 * @file
 * Pairing advisor — the use case behind the paper's §4.2/§5: the
 * off-line analysis found that *trace-cache pressure* predicts which
 * Java programs make bad co-schedule partners on an SMT processor.
 *
 * This example measures each candidate program's solo trace-cache
 * appetite with the PMU, predicts pair quality from the combined
 * appetite versus trace-cache capacity, then validates the
 * prediction by actually co-running the pairs and measuring the
 * combined speedup.
 *
 * Usage: pairing_advisor [scale] [min_runs]
 *
 * scale is a positive length multiplier (default 0.5) and min_runs
 * an integer in [3, 1000] (default 6): the co-run keeps relaunching
 * until each program completes that often, and drops the first and
 * last completions. A malformed or out-of-range argument prints the
 * usage and exits with status 2.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "common/log.h"
#include "example_args.h"
#include "harness/multiprogram.h"
#include "harness/solo.h"
#include "harness/table.h"
#include "jvm/benchmarks.h"

int
main(int argc, char** argv)
{
    using namespace jsmt;
    setVerbose(false);
    const ExampleArgs args(
        argc, argv, "pairing_advisor [scale > 0] [min_runs 3-1000]", 2);
    const double scale = args.scale(1, 0.5);
    const std::size_t min_runs = args.count(2, 6, 3, 1000, "min_runs");

    SystemConfig config;

    std::cout << "jsmt pairing advisor (scale " << scale << ")\n\n"
              << "Step 1: measure each program's solo trace-cache "
                 "behaviour.\n\n";

    struct Appetite
    {
        std::string name;
        double tcMissPerKi;
    };
    std::vector<Appetite> appetites;
    for (const std::string& name : singleThreadedNames()) {
        SoloOptions options;
        options.threads = 1;
        options.lengthScale = scale;
        const RunResult result =
            measureSolo(config, name, true, options);
        appetites.push_back(
            {name,
             result.perKiloInstr(EventId::kTraceCacheMiss)});
    }
    std::sort(appetites.begin(), appetites.end(),
              [](const Appetite& a, const Appetite& b) {
                  return a.tcMissPerKi > b.tcMissPerKi;
              });

    TextTable solo_table({"program", "TC misses /1K (solo, HT on)",
                          "predicted partner quality"});
    for (const auto& a : appetites) {
        solo_table.addRow({a.name, TextTable::fmt(a.tcMissPerKi, 3),
                           a.tcMissPerKi > 1.3 ? "BAD (TC-hungry)"
                                               : "good"});
    }
    solo_table.print(std::cout);

    std::cout << "\nStep 2: validate by co-running the predicted "
                 "best and worst pairs.\n\n";

    MultiprogramRunner runner(config, scale, min_runs);
    const std::string& hungriest = appetites.front().name;
    const std::string& second_hungriest = appetites[1].name;
    const std::string& lightest = appetites.back().name;
    const std::string& second_lightest =
        appetites[appetites.size() - 2].name;

    TextTable verdict({"pair", "combined speedup", "verdict"});
    const auto judge = [&](const std::string& a,
                           const std::string& b) {
        const PairResult pair = runner.runPair(a, b);
        verdict.addRow({a + " + " + b,
                        TextTable::fmt(pair.combinedSpeedup),
                        pair.combinedSpeedup < 1.0
                            ? "slowdown — avoid"
                            : "co-schedule OK"});
    };
    judge(hungriest, second_hungriest); // Predicted worst.
    judge(lightest, second_lightest);   // Predicted best.
    judge(hungriest, lightest);         // Mixed.
    verdict.print(std::cout);

    std::cout << "\nThe paper's conclusion: trace-cache miss rate "
                 "effectively predicts\npairing performance on "
                 "Hyper-Threading processors.\n";
    return 0;
}
