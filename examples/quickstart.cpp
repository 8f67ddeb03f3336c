/**
 * @file
 * Quickstart: build the modelled Pentium 4 machine, run one Java
 * benchmark with Hyper-Threading off and on, and read the paper's
 * headline counters from the run's RunResult.
 *
 * Usage: quickstart [benchmark] [threads] [scale]
 *
 * threads is an integer in [0, 64] (0, the default, is the
 * benchmark's own thread count) and scale a positive length
 * multiplier (default 0.25). A malformed or out-of-range argument
 * prints the usage and exits with status 2.
 */

#include <cstdint>
#include <iostream>
#include <string>

#include "common/log.h"
#include "core/simulation.h"
#include "example_args.h"
#include "harness/solo.h"
#include "harness/table.h"
#include "jvm/benchmarks.h"

int
main(int argc, char** argv)
{
    using namespace jsmt;
    setVerbose(false);

    const ExampleArgs args(
        argc, argv, "quickstart [benchmark] [threads 0-64] [scale > 0]", 3);
    const std::string benchmark = args.text(1, "MolDyn");
    const std::uint64_t threads = args.count(2, 0, 0, 64, "thread count");
    const double scale = args.scale(3, 0.25);

    if (!isBenchmark(benchmark)) {
        std::cerr << "unknown benchmark '" << benchmark
                  << "'; available:\n";
        for (const auto& name : benchmarkNames())
            std::cerr << "  " << name << '\n';
        return 1;
    }

    std::cout << "jsmt quickstart: " << benchmark << " ("
              << (threads ? std::to_string(threads)
                          : std::string("default"))
              << " threads, scale " << scale << ")\n\n";

    // --- The one-machine, counter-driven workflow -----------------
    // 1. Build a machine (the paper's 2.8 GHz P4 with HT).
    SystemConfig config;
    Machine machine(config);

    // 2. Run the workload.
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.threads = static_cast<std::uint32_t>(threads);
    spec.lengthScale = scale;
    sim.addProcess(spec);
    const RunResult result = sim.run();

    // 3. Read the counters: every PMU event over the run, per
    //    logical CPU.
    std::cout << "counter report (HT on):\n";
    TextTable counters({"event", "lcpu0", "lcpu1", "total"});
    for (const EventId event :
         {EventId::kCycles, EventId::kInstrRetired, EventId::kL1dMiss,
          EventId::kTraceCacheMiss, EventId::kL2Miss,
          EventId::kBtbMiss}) {
        counters.addRow({std::string(eventName(event)),
                         TextTable::fmt(result.event(event, 0)),
                         TextTable::fmt(result.event(event, 1)),
                         TextTable::fmt(result.total(event))});
    }
    counters.print(std::cout);

    // --- HT-off vs HT-on comparison (the paper's experiment) ------
    SoloOptions options;
    options.threads = static_cast<std::uint32_t>(threads);
    options.lengthScale = scale;
    const RunResult off = measureSolo(config, benchmark, false,
                                      options);
    const RunResult on = measureSolo(config, benchmark, true,
                                     options);

    std::cout << "\nHyper-Threading comparison:\n";
    TextTable table({"metric", "HT off", "HT on"});
    table.addRow({"IPC", TextTable::fmt(off.ipc(), 3),
                  TextTable::fmt(on.ipc(), 3)});
    table.addRow({"CPI", TextTable::fmt(off.cpi(), 3),
                  TextTable::fmt(on.cpi(), 3)});
    table.addRow({"L1D misses / 1K instr",
                  TextTable::fmt(off.perKiloInstr(EventId::kL1dMiss)),
                  TextTable::fmt(on.perKiloInstr(EventId::kL1dMiss))});
    table.addRow(
        {"TC misses / 1K instr",
         TextTable::fmt(off.perKiloInstr(EventId::kTraceCacheMiss)),
         TextTable::fmt(on.perKiloInstr(EventId::kTraceCacheMiss))});
    table.addRow({"L2 misses / 1K instr",
                  TextTable::fmt(off.perKiloInstr(EventId::kL2Miss)),
                  TextTable::fmt(on.perKiloInstr(EventId::kL2Miss))});
    table.addRow({"BTB miss ratio",
                  TextTable::fmt(off.ratio(EventId::kBtbMiss,
                                           EventId::kBtbAccess),
                                 4),
                  TextTable::fmt(on.ratio(EventId::kBtbMiss,
                                          EventId::kBtbAccess),
                                 4)});
    table.addRow({"OS cycle %",
                  TextTable::fmt(100 * off.osCycleFraction()),
                  TextTable::fmt(100 * on.osCycleFraction())});
    table.print(std::cout);
    return 0;
}
