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
    // The key keeps the caller's options (warm-up flag included) so
    // existing memo files and their readers still find it.
    SoloOptions fresh = options;
    fresh.warmup = false;
    const RunResult result = exec::ResultStore::global().getOrCompute(
        "solodur|" +
            soloRunKey(config, benchmark, hyper_threading, options),
        [&] {
            return measureSolo(config, benchmark, hyper_threading,
                               fresh);
        });
    if (result.processes.empty())
        fatal("soloDurationCyclesCached: empty cached result");
    return static_cast<double>(result.processes[0].durationCycles);
}

} // namespace jsmt
