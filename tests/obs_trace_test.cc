/**
 * @file
 * Tests of the span tracer as fed by CARBONX_PROFILE scopes:
 * disabled-by-default no-op behaviour, span nesting, and the Chrome
 * trace_event JSON export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace carbonx::obs
{
namespace
{

/** One parsed "X" event from the Chrome trace JSON. */
struct ParsedEvent
{
    std::string name;
    uint64_t ts = 0;
    uint64_t dur = 0;
    uint64_t tid = 0;
    uint64_t end() const { return ts + dur; }
};

uint64_t
numberAfter(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = line.find(needle);
    EXPECT_NE(pos, std::string::npos) << "missing " << key << " in "
                                      << line;
    if (pos == std::string::npos)
        return 0;
    return std::stoull(line.substr(pos + needle.size()));
}

/** Parse the one-event-per-line JSON our writer emits. */
std::vector<ParsedEvent>
parseTrace(const std::string &json)
{
    std::vector<ParsedEvent> events;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        const size_t name_pos = line.find("{\"name\": \"");
        if (name_pos == std::string::npos)
            continue;
        ParsedEvent e;
        const size_t name_start = name_pos + 10;
        e.name = line.substr(name_start,
                             line.find('"', name_start) - name_start);
        e.ts = numberAfter(line, "ts");
        e.dur = numberAfter(line, "dur");
        e.tid = numberAfter(line, "tid");
        events.push_back(std::move(e));
    }
    return events;
}

/** Fresh tracer state for every test; registries are process-wide. */
class Trace : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        SpanTracer::instance().setEnabled(false);
        SpanTracer::instance().clear();
    }

    void TearDown() override
    {
        SpanTracer::instance().setEnabled(false);
        SpanTracer::instance().clear();
    }
};

TEST_F(Trace, DisabledTracerRecordsNothing)
{
    auto &tracer = SpanTracer::instance();
    ASSERT_FALSE(tracer.enabled());
    {
        CARBONX_PROFILE("test/disabled_outer");
        CARBONX_PROFILE("test/disabled_inner");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    EXPECT_TRUE(parseTrace(os.str()).empty());
}

TEST_F(Trace, NestedSpansAreContainedInTheirParent)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_PROFILE("test/outer");
        {
            CARBONX_PROFILE("test/middle");
            {
                CARBONX_PROFILE("test/inner");
                // Spans are recorded when they close.
                EXPECT_EQ(tracer.eventCount(), 0u);
            }
            EXPECT_EQ(tracer.eventCount(), 1u);
        }
    }
    ASSERT_EQ(tracer.eventCount(), 3u);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    auto events = parseTrace(os.str());
    ASSERT_EQ(events.size(), 3u);

    const auto byName = [&](const std::string &name) {
        const auto it =
            std::find_if(events.begin(), events.end(),
                         [&](const ParsedEvent &e) {
                             return e.name == name;
                         });
        EXPECT_NE(it, events.end()) << "missing span " << name;
        return *it;
    };
    const ParsedEvent outer = byName("test/outer");
    const ParsedEvent middle = byName("test/middle");
    const ParsedEvent inner = byName("test/inner");

    // Chrome infers hierarchy from containment: each child interval
    // must lie within its parent's [ts, ts + dur].
    EXPECT_LE(outer.ts, middle.ts);
    EXPECT_LE(middle.end(), outer.end());
    EXPECT_LE(middle.ts, inner.ts);
    EXPECT_LE(inner.end(), middle.end());
}

TEST_F(Trace, ChromeTraceJsonIsWellFormed)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_PROFILE("test/json \"quoted\"");
    }
    {
        CARBONX_PROFILE("test/json_second");
    }

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();

    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"carbonx\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
    // Quotes in span names must be escaped.
    EXPECT_NE(json.find("test/json \\\"quoted\\\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    // Exactly two events -> exactly one separating comma between them.
    EXPECT_EQ(parseTrace(json).size(), 2u);
}

TEST_F(Trace, DisablingMidSpanStillClosesIt)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_PROFILE("test/toggled");
        tracer.setEnabled(false);
    }
    // The span captured "enabled" at construction, so it must close
    // cleanly and still record its event.
    EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST_F(Trace, ThreadsGetDistinctSpanStacks)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            CARBONX_PROFILE("test/thread_outer");
            CARBONX_PROFILE("test/thread_inner");
        });
    }
    for (auto &thread : threads)
        thread.join();
    ASSERT_EQ(tracer.eventCount(), 2u * kThreads);

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    // Each thread closes its inner span before its outer one, so the
    // events pair up per tid: one inner and one outer for every tid.
    std::map<uint64_t, std::vector<ParsedEvent>> by_tid;
    for (const ParsedEvent &e : parseTrace(os.str()))
        by_tid[e.tid].push_back(e);
    ASSERT_EQ(by_tid.size(), static_cast<size_t>(kThreads))
        << "every thread must get its own tid";
    for (const auto &[tid, events] : by_tid) {
        ASSERT_EQ(events.size(), 2u) << "tid " << tid;
        const auto named = [&](const std::string &name) {
            const auto it = std::find_if(
                events.begin(), events.end(),
                [&](const ParsedEvent &e) { return e.name == name; });
            EXPECT_NE(it, events.end()) << name << " on tid " << tid;
            return it == events.end() ? ParsedEvent{} : *it;
        };
        const ParsedEvent outer = named("test/thread_outer");
        const ParsedEvent inner = named("test/thread_inner");
        EXPECT_LE(outer.ts, inner.ts) << "tid " << tid;
        EXPECT_LE(inner.end(), outer.end()) << "tid " << tid;
    }
}

TEST_F(Trace, HostileSpanAndCounterNamesStayValidJson)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    // Every class of character the JSON escaper must handle: quotes,
    // backslashes, control characters, and a DEL-adjacent byte.
    const std::string hostile =
        "test/\"quote\\back\\\\slash\nnewline\ttab\x01" "ctl";
    {
        ScopedPhase span(hostile.c_str());
    }
    tracer.addCounterTrack(hostile + "/counter", {1.0, 2.0, 3.0});

    std::ostringstream os;
    tracer.writeChromeTrace(os);
    const std::string json = os.str();

    // No raw control characters may survive into the output.
    for (const char c : json)
        EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 ||
                    c == '\n')
            << "raw control byte 0x" << std::hex
            << static_cast<int>(static_cast<unsigned char>(c));
    // The escaper's canonical forms are all present.
    EXPECT_NE(json.find("\\\"quote"), std::string::npos);
    EXPECT_NE(json.find("\\\\back"), std::string::npos);
    EXPECT_NE(json.find("\\nnewline"), std::string::npos);
    EXPECT_NE(json.find("\\ttab"), std::string::npos);
    EXPECT_NE(json.find("\\u0001ctl"), std::string::npos);
    // Structure survives: balanced braces/brackets, both events
    // parseable, counter samples intact.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST_F(Trace, ClearDropsRecordedEvents)
{
    auto &tracer = SpanTracer::instance();
    tracer.setEnabled(true);
    {
        CARBONX_PROFILE("test/cleared");
    }
    ASSERT_EQ(tracer.eventCount(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
}

} // namespace
} // namespace carbonx::obs
