/**
 * @file
 * Single-workload measurement helpers.
 *
 * measureSolo() reproduces the paper's per-benchmark measurement:
 * a fresh machine, an optional warm-up iteration inside the same
 * address space (the JVM/OS state a real repeated run would have),
 * then a measured iteration whose counter deltas are returned.
 */

#ifndef JSMT_HARNESS_SOLO_H
#define JSMT_HARNESS_SOLO_H

#include <string>

#include "core/simulation.h"
#include "core/system_config.h"
#include "common/cancellation.h"

namespace jsmt {

/** Options for a solo measurement. */
struct SoloOptions
{
    /** Application threads; 0 = profile default. */
    std::uint32_t threads = 0;
    /** Length multiplier (tests use < 1). */
    double lengthScale = 1.0;
    /** Run one unmeasured warm-up iteration first. */
    bool warmup = true;
    /**
     * When non-null, the measurement polls this token at the
     * simulator's cancellation lattice and throws
     * TaskCancelledError if it fires. Not part of the
     * run-cache key: cancellation never changes a completed
     * result, it only prevents one. Borrowed, not owned.
     */
    const CancellationToken* cancel = nullptr;
};

/**
 * Run @p benchmark alone on a fresh machine.
 *
 * @param config machine configuration (its hyperThreading field is
 *        overridden by @p hyper_threading).
 * @param benchmark registered benchmark name.
 * @param hyper_threading HT enabled for this measurement.
 * @return counter deltas and process results of the measured
 *         iteration.
 */
RunResult measureSolo(const SystemConfig& config,
                      const std::string& benchmark,
                      bool hyper_threading,
                      const SoloOptions& options = {});

/**
 * Canonical run-cache key for a solo measurement; two calls with the
 * same key are guaranteed to return identical results (the simulator
 * is deterministic).
 */
std::string soloRunKey(const SystemConfig& config,
                       const std::string& benchmark,
                       bool hyper_threading,
                       const SoloOptions& options);

/**
 * measureSolo memoized through exec::ResultStore::global(). The sweep
 * drivers call this so the many figures sharing a measurement (e.g.
 * Figures 3-6 read the same multithreaded sweep through different
 * counters) simulate each point once per process — or once per
 * JSMT_RUN_CACHE spill file across processes.
 */
RunResult measureSoloCached(const SystemConfig& config,
                            const std::string& benchmark,
                            bool hyper_threading,
                            const SoloOptions& options = {});

/**
 * Execution time (cycles) of one fresh launch of @p benchmark: a
 * measureSolo without warm-up (@p options.warmup is ignored) — the
 * paper's A_S / B_S baseline for combined speedups (run on an
 * HT-disabled processor). Memoized through
 * exec::ResultStore::global() under "solodur|" + soloRunKey of the
 * caller's @p options.
 */
double soloDurationCyclesCached(const SystemConfig& config,
                                const std::string& benchmark,
                                bool hyper_threading,
                                const SoloOptions& options = {});

} // namespace jsmt

#endif // JSMT_HARNESS_SOLO_H
