#include "trace.h"

#include <fstream>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "obs/provenance.h"

namespace carbonx::obs
{

namespace
{

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // namespace

SpanTracer::SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

SpanTracer &
SpanTracer::instance()
{
    // Leaked so spans in static destructors never touch a dead tracer.
    static SpanTracer *tracer = new SpanTracer();
    return *tracer;
}

uint64_t
SpanTracer::sinceEpochUs(std::chrono::steady_clock::time_point t) const
{
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_);
    return static_cast<uint64_t>(us.count());
}

void
SpanTracer::record(const char *name,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end)
{
    // Truncating the elapsed time on its own could push a child's end
    // 1 us past its parent's; the difference of two truncated instants
    // cannot.
    const uint64_t end_us = sinceEpochUs(end);
    Event event;
    event.name = name;
    event.ts_us = sinceEpochUs(start);
    event.dur_us = end_us - event.ts_us;
    event.tid = threadId();
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
SpanTracer::addCounterTrack(const std::string &name,
                            const std::vector<double> &values)
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto &track : counters_) {
        if (track.first == name) {
            track.second = values;
            return;
        }
    }
    counters_.emplace_back(name, values);
}

size_t
SpanTracer::eventCount() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
SpanTracer::writeChromeTrace(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const Event &e : events_) {
        os << (first ? "" : ",") << "\n  {\"name\": \""
           << jsonEscapeString(e.name)
           << "\", \"cat\": \"carbonx\", \"ph\": \"X\", \"ts\": "
           << e.ts_us << ", \"dur\": " << e.dur_us
           << ", \"pid\": 1, \"tid\": " << e.tid << "}";
        first = false;
    }
    // Counter tracks render as per-hour lanes on their own process
    // row (pid 2) so the year-long timeline does not stretch the
    // wall-clock span lanes; hour h maps to ts = h microseconds.
    for (const auto &[name, values] : counters_) {
        for (size_t h = 0; h < values.size(); ++h) {
            os << (first ? "" : ",") << "\n  {\"name\": \""
               << jsonEscapeString(name)
               << "\", \"cat\": \"carbonx\", \"ph\": \"C\", \"ts\": "
               << h << ", \"pid\": 2, \"tid\": 0, \"args\": {\"value\": "
               << values[h] << "}}";
            first = false;
        }
    }
    os << (first ? "" : "\n") << "]";
    if (hasProcessProvenance()) {
        os << ",\n\"metadata\": {\"provenance\": ";
        processProvenance().writeJson(os, "");
        os << "}";
    }
    os << ", \"displayTimeUnit\": \"ms\"}\n";
}

void
SpanTracer::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    require(out.good(), "cannot open trace output file: " + path);
    writeChromeTrace(out);
    require(out.good(), "failed writing trace output file: " + path);
}

void
SpanTracer::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    counters_.clear();
}

} // namespace carbonx::obs
