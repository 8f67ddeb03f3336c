#include "trace/trace_sink.h"

#include <algorithm>
#include <new>
#include <ostream>

#include "common/json.h"
#include "common/log.h"

namespace jsmt::trace {

namespace {

/** Display names of the fixed tracks (thread_name metadata). */
constexpr const char* kTrackNames[] = {
    "lcpu0", "lcpu1", "core", "memory", "os", "sim",
};
static_assert(sizeof(kTrackNames) / sizeof(kTrackNames[0]) ==
              static_cast<std::size_t>(Track::kNumTracks));

} // namespace

TraceSink::TraceSink(std::size_t capacity, AllocHook alloc_hook)
    : _capacity(capacity)
{
    if (capacity == 0)
        fatal("trace: ring capacity must be positive");
    try {
        if (alloc_hook != nullptr)
            alloc_hook(capacity);
        _ring.resize(_capacity);
    } catch (const std::bad_alloc&) {
        // Observability must never take down the run it observes:
        // degrade to a permanently disabled sink and keep going.
        warn("trace: ring allocation failed (capacity " +
             std::to_string(capacity) +
             " events); sink degraded to disabled");
        _degraded = true;
        _capacity = 0;
    }
}

TraceEvent*
TraceSink::last()
{
    if (_size == 0)
        return nullptr;
    return &_ring[(_head + _size - 1) % _capacity];
}

void
TraceSink::span(Track track, const char* name, Cycle start,
                Cycle end)
{
    if (!_enabled || end <= start)
        return;
    TraceEvent* prev = last();
    if (prev != nullptr && prev->phase == 'X' &&
        prev->track == track && prev->name == name &&
        prev->ts + prev->dur == start) {
        prev->dur += end - start;
        return;
    }
    complete(track, name, start, end);
}

void
TraceSink::clear()
{
    _head = 0;
    _size = 0;
    _dropped = 0;
}

void
TraceSink::drainInto(TraceSink& dest)
{
    if (&dest == this)
        return;
    if (dest._enabled) {
        for (std::size_t i = 0; i < _size; ++i)
            dest.push(std::move(_ring[(_head + i) % _capacity]));
        dest._dropped += _dropped;
    }
    clear();
}

std::vector<TraceEvent>
TraceSink::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(_size);
    for (std::size_t i = 0; i < _size; ++i)
        out.push_back(_ring[(_head + i) % _capacity]);
    return out;
}

void
TraceSink::writeChromeTrace(std::ostream& out) const
{
    std::vector<TraceEvent> sorted = events();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.ts < b.ts;
                     });

    std::string doc = "{\"traceEvents\":[\n";
    bool first = true;
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(Track::kNumTracks); ++t) {
        if (!first)
            doc += ",\n";
        first = false;
        doc += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":" +
               std::to_string(t) + ",\"args\":{\"name\":";
        json::appendEscaped(doc, kTrackNames[t]);
        doc += "}}";
    }
    for (const TraceEvent& event : sorted) {
        if (!first)
            doc += ",\n";
        first = false;
        doc += "{\"name\":";
        json::appendEscaped(doc, event.name);
        doc += ",\"cat\":";
        json::appendEscaped(
            doc, event.category != nullptr ? event.category : "sim");
        doc += ",\"ph\":\"";
        doc.push_back(event.phase);
        doc += "\",\"ts\":" + std::to_string(event.ts);
        if (event.phase == 'X')
            doc += ",\"dur\":" + std::to_string(event.dur);
        doc += ",\"pid\":1,\"tid\":" +
               std::to_string(
                   static_cast<std::uint32_t>(event.track));
        if (event.phase == 'i')
            doc += ",\"s\":\"t\"";
        const bool has_int = event.argName != nullptr &&
                             event.argText.empty();
        const bool has_text = !event.argText.empty();
        if (has_int || has_text) {
            doc += ",\"args\":{";
            json::appendEscaped(doc, event.argName != nullptr
                                         ? event.argName
                                         : "value");
            doc += ":";
            if (has_text)
                json::appendEscaped(doc, event.argText);
            else
                doc += std::to_string(event.argValue);
            doc += "}";
        }
        doc += "}";
    }
    doc += "\n],\"displayTimeUnit\":\"ns\",\"metadata\":{"
           "\"clock\":\"simulated-cycles\",\"dropped_events\":" +
           std::to_string(_dropped) + "}}\n";
    out << doc;
}

} // namespace jsmt::trace
