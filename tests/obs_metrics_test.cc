/**
 * @file
 * Tests of the metrics registry: counter/gauge semantics, text/JSON/CSV
 * dumps, and thread-safety of concurrent increments.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "obs/metrics.h"

namespace carbonx::obs
{
namespace
{

/**
 * Extract the numeric token following "\"<key>\": " in a JSON dump.
 * Minimal on purpose — our writer emits one key per line.
 */
double
jsonNumberAfter(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << "missing key " << key;
    if (pos == std::string::npos)
        return -1.0;
    return std::stod(json.substr(pos + needle.size()));
}

TEST(Metrics, CounterIncrementsMonotonically)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.increment(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd)
{
    Gauge g;
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.25);
    g.add(-0.75);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.set(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Metrics, RegistryReturnsStableNamedInstruments)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();

    Counter &a = registry.counter("test.stable");
    a.increment(7);
    Counter &b = registry.counter("test.stable");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 7u);

    // reset() zeroes in place; the reference must stay usable.
    registry.reset();
    EXPECT_EQ(a.value(), 0u);
    a.increment();
    EXPECT_EQ(registry.counter("test.stable").value(), 1u);
}

TEST(Metrics, JsonDumpRoundTripsValues)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    registry.counter("test.json_counter").increment(123);
    registry.gauge("test.json_gauge").set(45.5);

    std::ostringstream os;
    registry.writeJson(os);
    const std::string json = os.str();

    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "test.json_counter"), 123.0);
    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "test.json_gauge"), 45.5);
    // Phase timing lives in the profile tree and the span trace.
    EXPECT_EQ(json.find("latencies"), std::string::npos);

    // Structural sanity: one object, balanced braces and brackets.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Metrics, TextAndCsvDumpsContainEveryInstrument)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    registry.counter("test.dump_counter").increment(5);
    registry.gauge("test.dump_gauge").set(1.5);

    std::ostringstream text;
    registry.writeText(text);
    EXPECT_NE(text.str().find("test.dump_counter"), std::string::npos);
    EXPECT_NE(text.str().find("test.dump_gauge"), std::string::npos);

    std::ostringstream csv;
    registry.writeCsv(csv);
    EXPECT_NE(csv.str().find("kind,name,field,value"),
              std::string::npos);
    EXPECT_NE(csv.str().find("counter,test.dump_counter,value,5"),
              std::string::npos);
    EXPECT_NE(csv.str().find("gauge,test.dump_gauge,value,1.5"),
              std::string::npos);
}

TEST(Metrics, ConcurrentIncrementsLoseNothing)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();

    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry] {
            // Mix lookups and updates so registration races are
            // exercised too, not just the atomic adds.
            auto &c = registry.counter("test.concurrent_counter");
            auto &g = registry.gauge("test.concurrent_gauge");
            for (int i = 0; i < kPerThread; ++i) {
                c.increment();
                g.add(0.5);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(registry.counter("test.concurrent_counter").value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(registry.gauge("test.concurrent_gauge").value(),
                     0.5 * kThreads * kPerThread);
}

TEST(Metrics, WriteFileDispatchesPromExtension)
{
    // .prom is no format of its own: like any extension other than
    // .json and .csv, it gets the text table.
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    registry.counter("test.prom_file").increment(1);

    std::ostringstream text;
    registry.writeText(text);
    for (const std::string path :
         {"metrics_dispatch_test.prom", "metrics_dispatch_test.xyz"}) {
        registry.writeFile(path);
        std::ifstream in(path);
        std::ostringstream buf;
        buf << in.rdbuf();
        EXPECT_EQ(buf.str(), text.str()) << path;
        std::remove(path.c_str());
    }
}

TEST(Metrics, HotCountersMergeIntoEveryDump)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    ::carbonx::counter("test.hot_merged").increment(11);

    std::ostringstream json_os;
    registry.writeJson(json_os);
    EXPECT_DOUBLE_EQ(jsonNumberAfter(json_os.str(), "test.hot_merged"),
                     11.0);

    std::ostringstream csv_os;
    registry.writeCsv(csv_os);
    EXPECT_NE(csv_os.str().find("counter,test.hot_merged,value,11"),
              std::string::npos);

    const auto counters = registry.counterValues();
    bool found = false;
    for (const auto &[name, value] : counters)
        found = found || (name == "test.hot_merged" && value == 11);
    EXPECT_TRUE(found);

    // Registry reset() zeroes the common layer's counters too.
    registry.reset();
    EXPECT_EQ(::carbonx::counter("test.hot_merged").value(), 0u);
}

TEST(Metrics, ObsAndCommonCounterNamesShareOneStore)
{
    Counter &via_obs = obs::counter("test.one_store");
    Counter &via_common = ::carbonx::counter("test.one_store");
    Counter &via_registry =
        MetricsRegistry::instance().counter("test.one_store");
    EXPECT_EQ(&via_obs, &via_common);
    EXPECT_EQ(&via_obs, &via_registry);
}

} // namespace
} // namespace carbonx::obs
