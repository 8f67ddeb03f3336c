#include "harness/solo.h"

#include <cstdio>

#include "common/log.h"
#include "exec/result_store.h"

namespace jsmt {

namespace {

/** Throw TaskCancelledError if @p result was cancelled. */
void
checkCancelled(const RunResult& result, const char* what,
               const std::string& benchmark)
{
    if (result.cancelled) {
        throw TaskCancelledError(
            std::string(what) + " of '" + benchmark +
            "' cancelled (deadline or external cancel)");
    }
}

} // namespace

RunResult
measureSolo(const SystemConfig& config, const std::string& benchmark,
            bool hyper_threading, const SoloOptions& options)
{
    SystemConfig cfg = config;
    cfg.hyperThreading = hyper_threading;
    Machine machine(cfg);
    Simulation sim(machine);

    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.threads = options.threads;
    spec.lengthScale = options.lengthScale;

    Simulation::RunOptions run_options;
    run_options.cancellation = options.cancel;

    Asid asid = 0;
    if (options.warmup) {
        JavaProcess& warm = sim.addProcess(spec);
        asid = warm.asid();
        const RunResult warm_result = sim.run(run_options);
        checkCancelled(warm_result, "warm-up run", benchmark);
        if (!warm_result.allComplete)
            fatal("measureSolo: warm-up run did not complete");
    }

    WorkloadSpec measured = spec;
    measured.reuseAsid = asid;
    sim.addProcess(measured);
    RunResult result = sim.run(run_options);
    checkCancelled(result, "measured run", benchmark);
    if (!result.allComplete)
        fatal("measureSolo: measured run did not complete");
    return result;
}

double
soloDurationCycles(const SystemConfig& config,
                   const std::string& benchmark,
                   bool hyper_threading, const SoloOptions& options)
{
    SystemConfig cfg = config;
    cfg.hyperThreading = hyper_threading;
    Machine machine(cfg);
    Simulation sim(machine);

    WorkloadSpec spec;
    spec.benchmark = benchmark;
    spec.threads = options.threads;
    spec.lengthScale = options.lengthScale;
    JavaProcess& process = sim.addProcess(spec);
    Simulation::RunOptions run_options;
    run_options.cancellation = options.cancel;
    const RunResult result = sim.run(run_options);
    checkCancelled(result, "solo run", benchmark);
    if (!result.allComplete)
        fatal("soloDurationCycles: run did not complete");
    return static_cast<double>(process.durationCycles());
}

std::string
soloRunKey(const SystemConfig& config, const std::string& benchmark,
           bool hyper_threading, const SoloOptions& options)
{
    char scale[64];
    std::snprintf(scale, sizeof(scale), "%.17g",
                  options.lengthScale);
    std::string key = "solo|";
    key += exec::describeSystemConfig(config);
    key += '|';
    key += benchmark;
    key += "|ht=";
    key += hyper_threading ? '1' : '0';
    key += "|threads=" + std::to_string(options.threads);
    key += "|scale=";
    key += scale;
    key += "|warmup=";
    key += options.warmup ? '1' : '0';
    return key;
}

RunResult
measureSoloCached(const SystemConfig& config,
                  const std::string& benchmark, bool hyper_threading,
                  const SoloOptions& options)
{
    return exec::ResultStore::global().getOrCompute(
        soloRunKey(config, benchmark, hyper_threading, options),
        [&] {
            return measureSolo(config, benchmark, hyper_threading,
                               options);
        });
}

double
soloDurationCyclesCached(const SystemConfig& config,
                         const std::string& benchmark,
                         bool hyper_threading,
                         const SoloOptions& options)
{
    // soloDurationCycles runs a single fresh process with no warm-up
    // and reads its duration; the equivalent RunResult is cacheable
    // because the measured process is the only one in the run.
    const std::string key =
        "solodur|" +
        soloRunKey(config, benchmark, hyper_threading, options);
    const RunResult result = exec::ResultStore::global().getOrCompute(
        key, [&] {
            SystemConfig cfg = config;
            cfg.hyperThreading = hyper_threading;
            Machine machine(cfg);
            Simulation sim(machine);

            WorkloadSpec spec;
            spec.benchmark = benchmark;
            spec.threads = options.threads;
            spec.lengthScale = options.lengthScale;
            sim.addProcess(spec);
            Simulation::RunOptions run_options;
            run_options.cancellation = options.cancel;
            RunResult r = sim.run(run_options);
            checkCancelled(r, "solo run", benchmark);
            if (!r.allComplete)
                fatal("soloDurationCyclesCached: run did not "
                      "complete");
            return r;
        });
    if (result.processes.empty())
        fatal("soloDurationCyclesCached: empty cached result");
    return static_cast<double>(result.processes[0].durationCycles);
}

} // namespace jsmt
