#include "harness/multiprogram.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "common/log.h"
#include "common/stats.h"
#include "core/simulation.h"
#include "harness/solo.h"

namespace jsmt {

double
droppedMean(const std::vector<double>& durations)
{
    if (durations.empty())
        return 0.0;
    if (durations.size() <= 2)
        return mean(durations);
    std::vector<double> middle(durations.begin() + 1,
                               durations.end() - 1);
    return mean(middle);
}

MultiprogramRunner::MultiprogramRunner(
    const SystemConfig& config, double length_scale,
    std::size_t min_runs, std::size_t jobs)
    : _config(config),
      _lengthScale(length_scale),
      _minRuns(min_runs),
      _pool(jobs)
{
    if (min_runs < 3)
        fatal("multiprogram: need at least 3 runs to drop "
              "first+last");
}

double
MultiprogramRunner::soloDuration(const std::string& benchmark)
{
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = _lengthScale;
    return soloDurationCyclesCached(_config, benchmark,
                                    /*hyper_threading=*/false, options);
}

void
MultiprogramRunner::prefetchSolos(std::vector<std::string> names)
{
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    // The report is dropped: one failing baseline does not fail
    // the whole prefetch; the pair that needs it measures it again
    // inline and reports the failure there.
    _pool.run(
        names.size(),
        [&](std::size_t i) { return "solo/" + names[i]; },
        [&](exec::TaskContext& ctx) { soloDuration(names[ctx.index]); });
}

PairResult
MultiprogramRunner::runPair(const std::string& a, const std::string& b)
{
    PairResult result;
    result.a = a;
    result.b = b;
    result.soloA = soloDuration(a);
    result.soloB = soloDuration(b);

    SystemConfig cfg = _config;
    cfg.hyperThreading = true;
    Machine machine(cfg);
    Simulation sim(machine);

    std::array<WorkloadSpec, 2> specs;
    specs[0].benchmark = a;
    specs[0].threads = 1;
    specs[0].lengthScale = _lengthScale;
    specs[1].benchmark = b;
    specs[1].threads = 1;
    specs[1].lengthScale = _lengthScale;

    std::map<ProcessId, int> slot_of;
    std::array<std::vector<double>, 2> durations;
    for (int slot = 0; slot < 2; ++slot) {
        JavaProcess& process = sim.addProcess(specs[slot]);
        slot_of[process.pid()] = slot;
    }

    Simulation::RunOptions options;
    options.maxCycles = static_cast<Cycle>(
        (result.soloA + result.soloB) *
            static_cast<double>(_minRuns) * 6.0 +
        20'000'000.0);
    options.onProcessExit = [&](Simulation& s, JavaProcess& p) {
        const int slot = slot_of.at(p.pid());
        durations[slot].push_back(
            static_cast<double>(p.durationCycles()));
        if (durations[0].size() >= _minRuns &&
            durations[1].size() >= _minRuns) {
            return false; // Both measured: stop the experiment.
        }
        // Relaunch the finished program so both keep co-running.
        JavaProcess& next = s.addProcess(specs[slot]);
        slot_of[next.pid()] = slot;
        return true;
    };
    const RunResult run = sim.run(options);
    result.coRunCycles = static_cast<double>(run.cycles);

    if (durations[0].size() < _minRuns ||
        durations[1].size() < _minRuns) {
        warn("multiprogram: pair " + a + "+" + b +
             " hit the cycle budget before " +
             std::to_string(_minRuns) + " completions");
    }

    result.runsA = durations[0].size() > 2 ? durations[0].size() - 2
                                           : durations[0].size();
    result.runsB = durations[1].size() > 2 ? durations[1].size() - 2
                                           : durations[1].size();
    result.meanDurationA = droppedMean(durations[0]);
    result.meanDurationB = droppedMean(durations[1]);
    if (result.meanDurationA > 0.0)
        result.speedupA = result.soloA / result.meanDurationA;
    if (result.meanDurationB > 0.0)
        result.speedupB = result.soloB / result.meanDurationB;
    result.combinedSpeedup = result.speedupA + result.speedupB;
    return result;
}

std::vector<PairResult>
MultiprogramRunner::runPairs(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    exec::BatchReport* report)
{
    std::vector<std::string> names;
    names.reserve(pairs.size() * 2);
    for (const auto& [a, b] : pairs) {
        names.push_back(a);
        names.push_back(b);
    }
    prefetchSolos(std::move(names));

    if (verbose()) {
        inform("multiprogram: " + std::to_string(pairs.size()) +
               " pairs across " +
               std::to_string(_pool.jobs()) + " jobs");
    }
    std::vector<PairResult> results(pairs.size());
    exec::BatchReport batch = _pool.run(
        pairs.size(),
        [&](std::size_t i) {
            return "pair/" + pairs[i].first + "+" + pairs[i].second;
        },
        [&](exec::TaskContext& ctx) {
            results[ctx.index] = runPair(pairs[ctx.index].first,
                                         pairs[ctx.index].second);
        });
    if (report != nullptr)
        *report = std::move(batch);
    else if (!batch.ok())
        fatal("multiprogram: " + batch.summary());
    return results;
}

std::vector<PairResult>
MultiprogramRunner::runCrossProduct(
    const std::vector<std::string>& names,
    exec::BatchReport* report)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    pairs.reserve(names.size() * names.size());
    for (const std::string& a : names) {
        for (const std::string& b : names)
            pairs.emplace_back(a, b);
    }
    return runPairs(pairs, report);
}

} // namespace jsmt
