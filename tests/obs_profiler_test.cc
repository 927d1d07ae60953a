/**
 * @file
 * Unit tests for CARBONX_PROFILE and the hierarchical phase profiler:
 * nesting, counts, cross-thread merge, enable/disable, reset, JSON
 * output, and the one scope feeding the profile tree and the Chrome
 * trace from the same two instants.
 */

#include "obs/profiler.h"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/trace.h"

namespace carbonx::obs
{
namespace
{

/** Enables the profiler for one test, restoring the old state after. */
class ProfilerScope
{
  public:
    ProfilerScope()
    {
        PhaseProfiler::instance().reset();
        PhaseProfiler::instance().setEnabled(true);
    }

    ~ProfilerScope()
    {
        PhaseProfiler::instance().setEnabled(false);
        PhaseProfiler::instance().reset();
    }
};

TEST(PhaseProfiler, DisabledByDefaultRecordsNothing)
{
    PhaseProfiler::instance().reset();
    ASSERT_FALSE(PhaseProfiler::instance().enabled());
    {
        CARBONX_PROFILE("off/phase");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    EXPECT_TRUE(root.children.empty());
}

TEST(PhaseProfiler, RecordsCountAndNesting)
{
    ProfilerScope scope;
    for (int i = 0; i < 3; ++i) {
        CARBONX_PROFILE("outer");
        {
            CARBONX_PROFILE("inner");
        }
        {
            CARBONX_PROFILE("inner2");
        }
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *outer = root.find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 3u);
    ASSERT_EQ(outer->children.size(), 2u);
    const ProfileNode *inner = outer->find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 3u);
    const ProfileNode *inner2 = outer->find("inner2");
    ASSERT_NE(inner2, nullptr);
    EXPECT_EQ(inner2->count, 3u);
    // Nothing at top level but "outer" (find() is a deep search, so
    // check the direct children explicitly).
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "outer");
}

TEST(PhaseProfiler, SelfTimeNeverExceedsTotal)
{
    ProfilerScope scope;
    {
        CARBONX_PROFILE("parent");
        CARBONX_PROFILE("child");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *parent = root.find("parent");
    ASSERT_NE(parent, nullptr);
    EXPECT_LE(parent->self_ns, parent->total_ns);
    const ProfileNode *child = parent->find("child");
    ASSERT_NE(child, nullptr);
    EXPECT_LE(child->total_ns, parent->total_ns);
    // A leaf's self time is its total.
    EXPECT_EQ(child->self_ns, child->total_ns);
    // The merged root aggregates its top-level children.
    EXPECT_EQ(root.total_ns, parent->total_ns);
    EXPECT_EQ(root.self_ns, 0u);
}

TEST(PhaseProfiler, MinMaxBracketEachOccurrence)
{
    ProfilerScope scope;
    for (int i = 0; i < 5; ++i) {
        CARBONX_PROFILE("bracketed");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *node = root.find("bracketed");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->count, 5u);
    EXPECT_LE(node->min_ns, node->max_ns);
    EXPECT_LE(node->max_ns, node->total_ns);
    EXPECT_GE(node->total_ns, 5 * node->min_ns);
}

TEST(PhaseProfiler, MergesAcrossThreads)
{
    ProfilerScope scope;
    {
        CARBONX_PROFILE("main/phase");
    }
    std::thread worker([] {
        for (int i = 0; i < 2; ++i) {
            CARBONX_PROFILE("worker/phase");
        }
    });
    worker.join();
    EXPECT_GE(PhaseProfiler::instance().threadCount(), 2u);
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *main_phase = root.find("main/phase");
    ASSERT_NE(main_phase, nullptr);
    EXPECT_EQ(main_phase->count, 1u);
    // The worker's tree survives thread exit and merges as its own
    // top-level path.
    const ProfileNode *worker_phase = root.find("worker/phase");
    ASSERT_NE(worker_phase, nullptr);
    EXPECT_EQ(worker_phase->count, 2u);
}

TEST(PhaseProfiler, MergesIdenticalPhasesFromParallelWorkers)
{
    ProfilerScope scope;
    setThreadCount(4);
    parallelFor(0, 64, 1, [](size_t, size_t) {
        CARBONX_PROFILE("pool/phase");
    });
    setThreadCount(1);
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *phase = root.find("pool/phase");
    ASSERT_NE(phase, nullptr);
    // Same literal from every worker folds into one node.
    EXPECT_EQ(phase->count, 64u);
}

TEST(PhaseProfiler, ResetClearsAllTrees)
{
    ProfilerScope scope;
    {
        CARBONX_PROFILE("to/be/cleared");
    }
    PhaseProfiler::instance().reset();
    const ProfileNode root = PhaseProfiler::instance().merged();
    EXPECT_TRUE(root.children.empty());
    EXPECT_EQ(root.total_ns, 0u);
}

TEST(PhaseProfiler, WriteTextListsPhases)
{
    ProfilerScope scope;
    {
        CARBONX_PROFILE("text/outer");
        CARBONX_PROFILE("text/inner");
    }
    std::ostringstream os;
    PhaseProfiler::instance().writeText(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("text/outer"), std::string::npos);
    EXPECT_NE(out.find("text/inner"), std::string::npos);
}

TEST(PhaseProfiler, WriteJsonIsWellFormed)
{
    ProfilerScope scope;
    {
        CARBONX_PROFILE("json/outer");
        CARBONX_PROFILE("json/inner");
    }
    std::ostringstream os;
    PhaseProfiler::instance().writeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"json/outer\""), std::string::npos);
    EXPECT_NE(out.find("\"json/inner\""), std::string::npos);
    EXPECT_NE(out.find("\"total_ns\""), std::string::npos);
    EXPECT_NE(out.find("\"self_ns\""), std::string::npos);
    // Balanced braces/brackets is a cheap well-formedness check; the
    // bench comparator tests parse profiler JSON for real.
    long depth = 0;
    for (const char c : out) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(PhaseProfiler, ScopedPhaseCapturesEnabledAtConstruction)
{
    PhaseProfiler::instance().reset();
    PhaseProfiler::instance().setEnabled(false);
    {
        CARBONX_PROFILE("toggled/phase");
        // Enabling mid-scope must not make the destructor record a
        // phase it never opened.
        PhaseProfiler::instance().setEnabled(true);
    }
    PhaseProfiler::instance().setEnabled(false);
    const ProfileNode root = PhaseProfiler::instance().merged();
    EXPECT_EQ(root.find("toggled/phase"), nullptr);
    PhaseProfiler::instance().reset();
}

/** One "X" event parsed from the one-event-per-line trace JSON. */
struct XEvent
{
    std::string name;
    uint64_t ts = 0;
    uint64_t dur = 0;
};

uint64_t
fieldAfter(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = line.find(needle);
    return pos == std::string::npos
               ? 0
               : std::strtoull(line.c_str() + pos + needle.size(),
                               nullptr, 10);
}

std::vector<XEvent>
tracedEvents()
{
    std::ostringstream os;
    SpanTracer::instance().writeChromeTrace(os);
    std::vector<XEvent> events;
    std::istringstream lines(os.str());
    std::string line;
    while (std::getline(lines, line)) {
        const size_t at = line.find("{\"name\": \"");
        if (at == std::string::npos ||
            line.find("\"ph\": \"X\"") == std::string::npos)
            continue;
        const size_t start = at + 10;
        events.push_back(XEvent{line.substr(start, line.find('"', start) -
                                                       start),
                                fieldAfter(line, "ts"),
                                fieldAfter(line, "dur")});
    }
    return events;
}

/** Turns the two sinks on or off for one test and clears both after. */
class Sinks
{
  public:
    Sinks(bool profile, bool trace)
    {
        clear();
        PhaseProfiler::instance().setEnabled(profile);
        SpanTracer::instance().setEnabled(trace);
    }

    ~Sinks() { clear(); }

  private:
    static void clear()
    {
        PhaseProfiler::instance().setEnabled(false);
        SpanTracer::instance().setEnabled(false);
        PhaseProfiler::instance().reset();
        SpanTracer::instance().clear();
    }
};

/** Burn roughly @p us microseconds so a scope spans clock ticks. */
void
spin(double us)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double, std::micro>(us);
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST(ScopedPhase, BothSinksSeeOneScopeFromTheSameInstants)
{
    const Sinks sinks(true, true);
    {
        CARBONX_PROFILE("both/scope");
        spin(50.0);
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *node = root.find("both/scope");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->count, 1u);

    const std::vector<XEvent> events = tracedEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "both/scope");
    // dur is the difference of two truncated microsecond instants, so
    // it stays within one microsecond of the profiler's nanoseconds.
    const auto dur_ns = static_cast<int64_t>(events[0].dur * 1000);
    EXPECT_LT(std::llabs(dur_ns - static_cast<int64_t>(node->total_ns)),
              1000);
}

TEST(ScopedPhase, OnlyTheProfilerRecordsWhenTracingIsOff)
{
    const Sinks sinks(true, false);
    {
        CARBONX_PROFILE("profile/only");
    }
    const ProfileNode root = PhaseProfiler::instance().merged();
    const ProfileNode *node = root.find("profile/only");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->count, 1u);
    EXPECT_EQ(SpanTracer::instance().eventCount(), 0u);
}

TEST(ScopedPhase, OnlyTheTracerRecordsWhenProfilingIsOff)
{
    const Sinks sinks(false, true);
    {
        CARBONX_PROFILE("trace/only");
    }
    EXPECT_TRUE(PhaseProfiler::instance().merged().children.empty());
    const std::vector<XEvent> events = tracedEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "trace/only");
}

TEST(ScopedPhase, NothingRecordsWhenBothSinksAreOff)
{
    const Sinks sinks(false, false);
    {
        CARBONX_PROFILE("sinks/off");
        spin(5.0);
    }
    EXPECT_TRUE(PhaseProfiler::instance().merged().children.empty());
    EXPECT_EQ(SpanTracer::instance().eventCount(), 0u);
}

TEST(ScopedPhase, NestedSpansStayContainedOverManyRuns)
{
    // A child shorter than its parent but straddling microsecond
    // boundaries differently must never end after it in the trace.
    const Sinks sinks(false, true);
    constexpr int kRuns = 10000;
    for (int run = 0; run < kRuns; ++run) {
        CARBONX_PROFILE("nested/parent");
        spin(0.3);
        {
            CARBONX_PROFILE("nested/child");
            spin(1.0);
        }
    }
    const std::vector<XEvent> events = tracedEvents();
    ASSERT_EQ(events.size(), 2u * kRuns);
    size_t overruns = 0;
    // Children close first: events alternate child, parent.
    for (size_t i = 0; i + 1 < events.size(); i += 2) {
        const XEvent &child = events[i];
        const XEvent &parent = events[i + 1];
        ASSERT_EQ(child.name, "nested/child");
        ASSERT_EQ(parent.name, "nested/parent");
        if (child.ts < parent.ts ||
            child.ts + child.dur > parent.ts + parent.dur)
            ++overruns;
    }
    EXPECT_EQ(overruns, 0u);
}

} // namespace
} // namespace carbonx::obs
