/**
 * @file
 * Bounded ring-buffer event tracer for the simulator.
 *
 * The paper's methodology is time-resolved observability: knowing
 * *when* a partition stall, a cross-thread eviction or a constructive
 * L2 hit happened, not just end-of-run totals. TraceSink captures
 * such moments as timestamped events on named tracks (one per
 * logical context plus machine / memory / OS / simulation tracks)
 * and exports them as Chrome trace_event JSON, so a run opens
 * directly in Perfetto or chrome://tracing.
 *
 * Cost model: instrumentation sites hold a raw `TraceSink*` that is
 * nullptr by default, so a disabled tracer costs one predictable
 * branch per site. With a sink attached but disabled, every emit
 * call early-returns on a single bool. The buffer is a fixed-size
 * ring: when full, the oldest events are overwritten (a run keeps
 * its most recent window) and the drop count is reported in the
 * export metadata. Timestamps are simulated cycles.
 */

#ifndef JSMT_TRACE_TRACE_SINK_H
#define JSMT_TRACE_TRACE_SINK_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace jsmt::trace {

/**
 * Track an event is drawn on. Contexts come first so a ContextId
 * converts directly to its track.
 */
enum class Track : std::uint32_t {
    kContext0 = 0, ///< Logical CPU 0.
    kContext1 = 1, ///< Logical CPU 1.
    kMachine = 2,  ///< Machine-wide core events (fast-forward...).
    kMemory = 3,   ///< Memory-hierarchy events.
    kOs = 4,       ///< Scheduler events.
    kSim = 5,      ///< Simulation driver (runs, launches, samples).
    kNumTracks = 6,
};

/** @return the track of logical CPU @p ctx. */
inline Track
contextTrack(ContextId ctx)
{
    return static_cast<Track>(ctx);
}

/** One captured event. Names/categories must be static strings. */
struct TraceEvent
{
    Cycle ts = 0;
    Cycle dur = 0;                 ///< 0 for instants.
    const char* name = nullptr;
    const char* category = nullptr;
    Track track = Track::kSim;
    char phase = 'i';              ///< Chrome phase: i or X.
    /** Optional integer argument (arg name must be static). */
    const char* argName = nullptr;
    std::uint64_t argValue = 0;
    /** Optional string argument (e.g. a benchmark name). */
    std::string argText;
};

/**
 * The tracer. Not thread-safe: each Machine (and therefore each
 * simulation task in a parallel sweep) must use its own sink.
 */
class TraceSink
{
  public:
    /** Default ring capacity (events). */
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    /**
     * Test seam: called with the capacity inside the ring
     * allocation's try block; a hook that throws std::bad_alloc
     * takes the real allocation-failure path.
     */
    using AllocHook = void (*)(std::size_t capacity);

    /**
     * Construct with a ring of @p capacity events. Allocation
     * failure does not throw: the sink degrades to permanently
     * disabled — the run proceeds correct but untraced.
     */
    explicit TraceSink(std::size_t capacity = kDefaultCapacity,
                       AllocHook alloc_hook = nullptr);

    /**
     * Runtime switch; emit calls are no-ops while disabled. A
     * degraded sink ignores enable requests.
     */
    void setEnabled(bool enabled)
    {
        _enabled = enabled && !_degraded;
    }

    /** @return whether events are currently captured. */
    bool enabled() const { return _enabled; }

    /** @return whether the ring allocation failed at construction. */
    bool degraded() const { return _degraded; }

    /** Point event at @p ts on @p track. */
    void
    instant(Track track, const char* name, Cycle ts)
    {
        if (!_enabled)
            return;
        TraceEvent event;
        event.ts = ts;
        event.name = name;
        event.track = track;
        event.phase = 'i';
        push(std::move(event));
    }

    /** Point event with one integer argument. */
    void
    instantArg(Track track, const char* name, Cycle ts,
               const char* arg_name, std::uint64_t arg_value)
    {
        if (!_enabled)
            return;
        TraceEvent event;
        event.ts = ts;
        event.name = name;
        event.track = track;
        event.phase = 'i';
        event.argName = arg_name;
        event.argValue = arg_value;
        push(std::move(event));
    }

    /** Point event with one string argument. */
    void
    instantText(Track track, const char* name, Cycle ts,
                const char* arg_name, std::string arg_text)
    {
        if (!_enabled)
            return;
        TraceEvent event;
        event.ts = ts;
        event.name = name;
        event.track = track;
        event.phase = 'i';
        event.argName = arg_name;
        event.argText = std::move(arg_text);
        push(std::move(event));
    }

    /** Complete (duration) event covering [@p start, @p end). */
    void
    complete(Track track, const char* name, Cycle start, Cycle end)
    {
        if (!_enabled || end <= start)
            return;
        TraceEvent event;
        event.ts = start;
        event.dur = end - start;
        event.name = name;
        event.track = track;
        event.phase = 'X';
        push(std::move(event));
    }

    /**
     * Like complete(), but when the most recent captured event is
     * the same (track, name) span ending exactly at @p start, the
     * two are merged into one longer span. Per-cycle stall
     * instrumentation uses this so an N-cycle stall window becomes
     * one event, not N.
     */
    void span(Track track, const char* name, Cycle start, Cycle end);

    /** @return events currently held (≤ capacity). */
    std::size_t size() const { return _size; }

    /** @return ring capacity. */
    std::size_t capacity() const { return _capacity; }

    /** @return events overwritten because the ring was full. */
    std::uint64_t dropped() const { return _dropped; }

    /** Drop all captured events (capacity unchanged). */
    void clear();

    /**
     * Move every captured event into @p dest (in capture order,
     * via dest.push — dest's ring may drop the oldest as usual) and
     * clear this sink; drop counts transfer too. The multi-core
     * stepping engine gives each core slice a private shard sink
     * and drains the shards into the user's sink in core order at
     * every epoch edge, so the merged capture is deterministic and
     * identical for every step-thread count. No-op when @p dest is
     * this sink or when dest is disabled (events are still cleared,
     * mirroring what pushing into a disabled sink would capture).
     */
    void drainInto(TraceSink& dest);

    /**
     * Events in capture order (oldest first). Capture order is
     * non-decreasing in ts because the simulator clock only moves
     * forward; spans are stamped at their start cycle, so the
     * export sorts by ts before writing.
     */
    std::vector<TraceEvent> events() const;

    /**
     * Write the capture as one Chrome trace_event JSON document
     * ({"traceEvents":[...]}): stable-sorted by timestamp, with
     * thread-name metadata per track and drop statistics in the
     * top-level "metadata" object. Loads in Perfetto as-is.
     */
    void writeChromeTrace(std::ostream& out) const;

  private:
    void
    push(TraceEvent&& event)
    {
        if (_size < _capacity) {
            _ring[(_head + _size) % _capacity] = std::move(event);
            ++_size;
        } else {
            _ring[_head] = std::move(event);
            _head = (_head + 1) % _capacity;
            ++_dropped;
        }
    }

    /** @return most recently pushed event, or nullptr when empty. */
    TraceEvent* last();

    bool _enabled = false;
    bool _degraded = false;
    std::size_t _capacity = 0;
    std::size_t _head = 0;
    std::size_t _size = 0;
    std::uint64_t _dropped = 0;
    std::vector<TraceEvent> _ring;
};

} // namespace jsmt::trace

#endif // JSMT_TRACE_TRACE_SINK_H
