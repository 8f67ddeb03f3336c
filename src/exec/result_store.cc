#include "exec/result_store.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/fileio.h"
#include "common/json.h"
#include "common/log.h"

namespace jsmt::exec {

namespace {

using json::appendEscaped;
using json::asBool;
using json::asNumber;
using json::asString;

/** Process-wide store totals (metrics export). */
std::atomic<std::uint64_t> g_saves{0};
std::atomic<std::uint64_t> g_saveFailures{0};
std::atomic<std::uint64_t> g_loadRejects{0};
std::atomic<std::uint64_t> g_entriesLoaded{0};

/** Append @p result to @p out as its canonical JSON object. */
void
writeRunResultJson(std::string& out, const RunResult& result)
{
    out += "{\"cycles\":" + std::to_string(result.cycles);
    out += ",\"allComplete\":";
    out += result.allComplete ? "true" : "false";
    out += ",\"events\":[";
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        if (ctx > 0)
            out += ',';
        out += '[';
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            if (e > 0)
                out += ',';
            out += std::to_string(result.events[ctx][e]);
        }
        out += ']';
    }
    out += "],\"processes\":[";
    for (std::size_t i = 0; i < result.processes.size(); ++i) {
        const ProcessResult& pr = result.processes[i];
        if (i > 0)
            out += ',';
        out += "{\"pid\":" + std::to_string(pr.pid);
        out += ",\"benchmark\":";
        appendEscaped(out, pr.benchmark);
        out += ",\"complete\":";
        out += pr.complete ? "true" : "false";
        out += ",\"launchCycle\":" + std::to_string(pr.launchCycle);
        out += ",\"completionCycle\":" +
               std::to_string(pr.completionCycle);
        out += ",\"durationCycles\":" +
               std::to_string(pr.durationCycles);
        out += ",\"gcRuns\":" + std::to_string(pr.gcRuns);
        out += ",\"allocatedBytes\":" +
               std::to_string(pr.allocatedBytes);
        out += '}';
    }
    out += "]}";
}

/** Decode a RunResult; @return false if a field is malformed. */
bool
readRunResultJson(const json::Value& value, RunResult* out)
{
    if (!value.isObject())
        return false;
    out->cycles = asNumber(value.field("cycles"));
    out->allComplete = asBool(value.field("allComplete"));
    const json::Value* events = value.field("events");
    if (!events || !events->isArray() ||
        events->items.size() != kNumContexts) {
        return false;
    }
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        const json::Value& row = events->items[ctx];
        if (!row.isArray() || row.items.size() != kNumEventIds)
            return false;
        for (std::size_t e = 0; e < kNumEventIds; ++e)
            out->events[ctx][e] = asNumber(&row.items[e]);
    }
    out->processes.clear();
    const json::Value* processes = value.field("processes");
    if (!processes || !processes->isArray())
        return false;
    for (const json::Value& entry : processes->items) {
        if (!entry.isObject())
            return false;
        ProcessResult pr;
        pr.pid = static_cast<ProcessId>(asNumber(entry.field("pid")));
        pr.benchmark = asString(entry.field("benchmark"));
        pr.complete = asBool(entry.field("complete"));
        pr.launchCycle = asNumber(entry.field("launchCycle"));
        pr.completionCycle = asNumber(entry.field("completionCycle"));
        pr.durationCycles = asNumber(entry.field("durationCycles"));
        pr.gcRuns = asNumber(entry.field("gcRuns"));
        pr.allocatedBytes = asNumber(entry.field("allocatedBytes"));
        out->processes.push_back(std::move(pr));
    }
    return true;
}

/**
 * Digest of one entry: FNV over the serialized result, written as a
 * decimal string because a 64-bit hash does not round-trip through
 * a JSON double.
 */
std::string
resultDigest(const RunResult& result)
{
    std::string serialized;
    writeRunResultJson(serialized, result);
    return std::to_string(hashKey(serialized));
}

/** @return @p topology with the step-threads field stripped. */
std::string
normalizeTopology(const std::string& topology)
{
    const std::size_t at = topology.find(";step-threads=");
    return at == std::string::npos ? topology
                                   : topology.substr(0, at);
}

} // namespace

std::string
ResultStore::describeTopology(std::uint32_t cores,
                              const std::string& alloc)
{
    // A chip names its shared-L2 contract: entries measured under
    // another one (the per-access ordering gate before the quantum
    // barrier) are different measurements and must not resume. One
    // core has no shared L2, so its stamp stays kDefaultTopology's.
    //
    // The step-threads field is schema documentation, not identity:
    // the stepping engine is bit-identical for every worker count,
    // so entries measured at any --step-threads are valid for any
    // other. "any" records that invariance explicitly in the file.
    return "cores=" + std::to_string(cores) + ";alloc=" + alloc +
           (cores > 1 ? ";l2=quantum" : "") + ";step-threads=any";
}

ResultStore::ResultStore(std::string path, std::size_t flush_every,
                         std::string topology)
    : _path(std::move(path)), _flushEvery(flush_every),
      _topology(std::move(topology))
{
    load(_path);
}

ResultStore::~ResultStore()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_pending > 0)
        flushLocked();
}

bool
ResultStore::lookup(const std::string& key, RunResult* out) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _entries.find(key);
    if (it == _entries.end()) {
        ++_misses;
        return false;
    }
    ++_hits;
    if (out)
        *out = it->second;
    return true;
}

void
ResultStore::insert(const std::string& key, const RunResult& result)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries[key] = result;
    ++_pending;
    if (_flushEvery > 0 && _pending >= _flushEvery)
        flushLocked();
}

RunResult
ResultStore::getOrCompute(const std::string& key,
                          const std::function<RunResult()>& compute)
{
    RunResult result;
    if (lookup(key, &result))
        return result;
    result = compute();
    insert(key, result);
    return result;
}

bool
ResultStore::load(const std::string& path)
{
    std::string text;
    if (path.empty() || !readFile(path, &text))
        return false; // No file yet: cold start, not an error.

    const auto reject = [&] {
        warn("result store: ignoring invalid file " + path +
             " (starting cold)");
        g_loadRejects.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    json::Value root;
    if (!json::parse(text, &root) || !root.isObject())
        return reject();

    // Files written before the allocation layer carry no topology
    // field; they are single-core static-pin by construction.
    std::string topology = asString(root.field("topology"));
    if (topology.empty())
        topology = kDefaultTopology;
    if (!_topology.empty() &&
        normalizeTopology(_topology) != normalizeTopology(topology)) {
        std::lock_guard<std::mutex> lock(_mutex);
        _manifestTopology = topology;
        _topologyMismatch = true;
        warn("result store: " + path + " records topology '" +
             topology + "' but this run is '" + _topology +
             "'; refusing to mix entries");
        return false;
    }

    // Decode and verify the whole document before touching the
    // store: one bad entry rejects the file.
    const json::Value* entries = root.field("entries");
    if (!entries || !entries->isArray())
        return reject();
    std::vector<std::pair<std::string, RunResult>> decoded;
    decoded.reserve(entries->items.size());
    for (const json::Value& entry : entries->items) {
        if (!entry.isObject())
            return reject();
        const std::string key = asString(entry.field("key"));
        const json::Value* result = entry.field("result");
        RunResult value;
        if (key.empty() || !result ||
            !readRunResultJson(*result, &value) ||
            asString(entry.field("digest")) != resultDigest(value)) {
            return reject();
        }
        decoded.emplace_back(key, std::move(value));
    }

    std::lock_guard<std::mutex> lock(_mutex);
    _manifestTopology = topology;
    for (auto& [key, value] : decoded)
        _entries.emplace(std::move(key), std::move(value));
    _resumed += decoded.size();
    g_entriesLoaded.fetch_add(decoded.size(),
                              std::memory_order_relaxed);
    return true;
}

bool
ResultStore::save(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return saveLocked(path);
}

bool
ResultStore::saveLocked(const std::string& path) const
{
    std::string topology = _topology;
    if (topology.empty())
        topology = _manifestTopology.empty() ? kDefaultTopology
                                             : _manifestTopology;
    std::string out = "{\"version\":2,\"topology\":";
    appendEscaped(out, topology);
    out += ",\"entries\":[\n";
    bool first = true;
    for (const auto& [key, result] : _entries) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"key\":";
        appendEscaped(out, key);
        out += ",\"digest\":\"" + resultDigest(result) +
               "\",\"result\":";
        writeRunResultJson(out, result);
        out += '}';
    }
    out += "\n]}\n";

    if (!atomicWriteFile(path, out)) {
        warn("result store: cannot write " + path);
        g_saveFailures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    g_saves.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ResultStore::flush()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return flushLocked();
}

bool
ResultStore::flushLocked()
{
    if (_path.empty() || !saveLocked(_path))
        return false;
    _pending = 0;
    return true;
}

void
ResultStore::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
    _pending = 0;
    _hits = 0;
    _misses = 0;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::uint64_t
ResultStore::hits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

std::uint64_t
ResultStore::misses() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _misses;
}

std::uint64_t
ResultStore::totalSaves()
{
    return g_saves.load(std::memory_order_relaxed);
}

std::uint64_t
ResultStore::totalSaveFailures()
{
    return g_saveFailures.load(std::memory_order_relaxed);
}

std::uint64_t
ResultStore::totalLoadRejects()
{
    return g_loadRejects.load(std::memory_order_relaxed);
}

std::uint64_t
ResultStore::totalEntriesLoaded()
{
    return g_entriesLoaded.load(std::memory_order_relaxed);
}

ResultStore&
ResultStore::global()
{
    static ResultStore* store = [] {
        const std::string path = envPath("JSMT_RUN_CACHE");
        auto* s = path.empty() ? new ResultStore()
                               : new ResultStore(path, 0);
        // Written at normal process exit; leaked on _exit/abort,
        // which only costs a cold memo next time.
        std::atexit([] {
            delete store;
            store = nullptr;
        });
        return s;
    }();
    if (!store)
        fatal("result store: global() used after exit handlers ran");
    return *store;
}

std::uint64_t
hashKey(const std::string& key)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV offset basis.
    for (const unsigned char c : key) {
        hash ^= c;
        hash *= 0x100000001b3ULL; // FNV prime.
    }
    return hash;
}

std::string
describeSystemConfig(const SystemConfig& config)
{
    std::ostringstream out;
    const CoreConfig& core = config.core;
    const MemConfig& mem = config.mem;
    const BranchConfig& branch = config.branch;
    const OsConfig& os = config.os;
    out << "core=" << core.fetchAllocWidth << '/' << core.issueWidth
        << '/' << core.retireWidth << '/'
        << (core.partitionPolicy == PartitionPolicy::kDynamic
                ? "dyn"
                : "static")
        << '/' << core.robEntries << '/' << core.loadBufEntries
        << '/' << core.storeBufEntries << '/'
        << core.mispredictRedirectCycles << '/'
        << core.contextSwitchFlushCycles;
    out << ";mem=" << mem.traceCacheLines << '/'
        << mem.traceCacheWays << '/' << mem.uopsPerTraceLine << '/'
        << mem.l1dBytes << '/' << mem.l1dWays << '/' << mem.l2Bytes
        << '/' << mem.l2Ways << '/' << mem.lineBytes << '/'
        << mem.itlbEntries << '/' << mem.itlbWays << '/'
        << mem.dtlbEntries << '/' << mem.dtlbWays << '/'
        << mem.pageBytes << '/' << mem.l1dHitCycles << '/'
        << mem.l2HitCycles << '/' << mem.dramCycles << '/'
        << mem.pageWalkCycles << '/' << mem.traceBuildCycles << '/'
        << mem.fsbCyclesPerLine << '/' << mem.l2PortCycles;
    out << ";branch=" << branch.btb.entries << '/'
        << branch.btb.ways << '/' << branch.btbMissBubbleCycles
        << '/' << branch.mispredictRestartCycles;
    out << ";os=" << os.quantumCycles << '/'
        << os.contextSwitchUops << '/' << os.timerTickUops;
    out << ";ht=" << (config.hyperThreading ? 1 : 0);
    out << ";seed=" << config.seed;
    return out.str();
}

} // namespace jsmt::exec
