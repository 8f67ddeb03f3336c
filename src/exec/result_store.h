/**
 * @file
 * The one store of simulation results.
 *
 * The simulator is deterministic, so a canonical text key naming a
 * run's full configuration names its RunResult too. ResultStore
 * maps such keys to results, with one class and one file format for
 * three roles: the process-wide memo (global()), its JSMT_RUN_CACHE
 * spill (loaded at start, written at exit) and a sweep's --resume
 * manifest (flushed as points complete, so a killed sweep redoes
 * only the remainder, bit-identically).
 *
 * The file is one JSON document: a topology stamp and, per entry,
 * the key, an FNV digest of the serialized result and the result.
 * Loading is all-or-nothing — any parse error or digest mismatch
 * rejects the whole file (warn, start cold). Writes go through
 * atomicWriteFile, so a crash mid-write leaves the previous file
 * intact.
 */

#ifndef JSMT_EXEC_RESULT_STORE_H
#define JSMT_EXEC_RESULT_STORE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "core/run_result.h"
#include "core/system_config.h"

namespace jsmt::exec {

/**
 * Thread-safe key -> RunResult store with an optional backing file.
 * Two tasks racing on a cold key may both compute it; the simulator
 * is deterministic, so the duplicate insert is benign.
 */
class ResultStore
{
  public:
    /** Topology of a file without one (pre multi-core sweeps). */
    static constexpr const char* kDefaultTopology =
        "cores=1;alloc=static-pin";

    /**
     * @return "cores=N;alloc=P;step-threads=any", with ";l2=quantum"
     * before the last field when N > 1 (the chip's shared-L2
     * contract, DESIGN.md §11). Entries do not depend on the
     * stepping worker count, so identity comparison ignores the
     * last field.
     */
    static std::string describeTopology(std::uint32_t cores,
                                        const std::string& alloc);

    /** A memory-only store (save()/load() still work). */
    ResultStore() = default;

    /**
     * Back the store with the file at @p path, loading its valid
     * contents. @p flush_every inserts trigger a flush (0 = only
     * flush() and destruction write). A non-empty @p topology that
     * differs from the file's loads nothing and sets
     * topologyMismatch(): resuming a 2-core sweep from a 1-core
     * manifest would mix incomparable measurements. Empty keeps
     * whatever the file records.
     */
    explicit ResultStore(std::string path,
                         std::size_t flush_every = 1,
                         std::string topology = "");
    /** Flushes pending entries when the store has a file. */
    ~ResultStore();

    ResultStore(const ResultStore&) = delete;
    ResultStore& operator=(const ResultStore&) = delete;

    /** @return stored result for @p key, or compute-and-store it. */
    RunResult getOrCompute(
        const std::string& key,
        const std::function<RunResult()>& compute);

    /** @return whether @p key is stored; fills @p out when so. */
    bool lookup(const std::string& key, RunResult* out) const;

    /** Insert (or overwrite) @p key; flushes per flush_every. */
    void insert(const std::string& key, const RunResult& result);

    /** insert() under the manifest role's name. */
    void
    record(const std::string& key, const RunResult& result)
    {
        insert(key, result);
    }

    /** Merge the file at @p path. @return false if missing/invalid. */
    bool load(const std::string& path);

    /** Write every entry to @p path. @return false on failure. */
    bool save(const std::string& path) const;

    /** Write the backing file now; failed entries stay pending. */
    bool flush();

    /** Drop all entries, pending writes and statistics. */
    void clear();

    /** @name Statistics */
    ///@{
    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Entries loaded from files into this store. */
    std::size_t resumed() const { return _resumed; }
    ///@}

    /** @return whether the file's topology differed (not loaded). */
    bool topologyMismatch() const { return _topologyMismatch; }

    /** @return topology recorded in the loaded file ("" none). */
    const std::string& manifestTopology() const
    {
        return _manifestTopology;
    }

    /** @name Process-wide totals (metrics export) */
    ///@{
    /** Successful file writes. */
    static std::uint64_t totalSaves();
    /** File writes that failed (I/O errors). */
    static std::uint64_t totalSaveFailures();
    /** Files rejected wholesale on load. */
    static std::uint64_t totalLoadRejects();
    /** Entries loaded from files instead of re-simulated. */
    static std::uint64_t totalEntriesLoaded();
    ///@}

    /** Process-wide memo, backed by $JSMT_RUN_CACHE when set. */
    static ResultStore& global();

  private:
    bool saveLocked(const std::string& path) const;
    bool flushLocked();

    mutable std::mutex _mutex;
    std::map<std::string, RunResult> _entries;
    std::string _path;
    std::size_t _flushEvery = 0;
    std::size_t _pending = 0;
    /** Topology this store stamps into its file ("" = keep). */
    std::string _topology;
    std::string _manifestTopology;
    bool _topologyMismatch = false;
    std::size_t _resumed = 0;
    mutable std::uint64_t _hits = 0;
    mutable std::uint64_t _misses = 0;
};

/**
 * Canonical one-line description of every field of a SystemConfig —
 * the config part of a result key. Two configs produce the same
 * description iff the simulator would behave identically.
 */
std::string describeSystemConfig(const SystemConfig& config);

/** FNV-1a hash of a string (entry digests and diagnostics). */
std::uint64_t hashKey(const std::string& key);

} // namespace jsmt::exec

#endif // JSMT_EXEC_RESULT_STORE_H
