/**
 * @file
 * Tests of the metrics registry: counter/gauge/latency semantics,
 * text/JSON/CSV dumps, and thread-safety of concurrent increments.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/fnv.h"
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

TEST(Metrics, LatencyHistogramTracksExactSummary)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.meanUs(), 0.0);

    h.record(10.0);
    h.record(100.0);
    h.record(1000.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.totalUs(), 1110.0);
    EXPECT_DOUBLE_EQ(h.minUs(), 10.0);
    EXPECT_DOUBLE_EQ(h.maxUs(), 1000.0);
    EXPECT_DOUBLE_EQ(h.meanUs(), 370.0);

    // Three decades apart -> three distinct non-empty bins.
    const auto bins = h.bins();
    ASSERT_EQ(bins.size(), 3u);
    uint64_t total = 0;
    for (const auto &bin : bins) {
        EXPECT_LT(bin.lo_us, bin.hi_us);
        total += bin.count;
    }
    EXPECT_EQ(total, 3u);
}

TEST(Metrics, LatencyHistogramClampsOutliersIntoEdgeBins)
{
    LatencyHistogram h;
    h.record(0.0);    // Below the 1 us bin floor.
    h.record(1e9);    // Above the 10 s bin ceiling (1000 s).
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.minUs(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxUs(), 1e9);
    uint64_t total = 0;
    for (const auto &bin : h.bins())
        total += bin.count;
    EXPECT_EQ(total, 2u);
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
    registry.latency("test.json_latency").record(250.0);
    registry.latency("test.json_latency").record(750.0);

    std::ostringstream os;
    registry.writeJson(os);
    const std::string json = os.str();

    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "test.json_counter"), 123.0);
    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "test.json_gauge"), 45.5);
    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "count"), 2.0);
    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "total_us"), 1000.0);
    EXPECT_DOUBLE_EQ(jsonNumberAfter(json, "mean_us"), 500.0);

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
    registry.latency("test.dump_latency").record(10.0);

    std::ostringstream text;
    registry.writeText(text);
    EXPECT_NE(text.str().find("test.dump_counter"), std::string::npos);
    EXPECT_NE(text.str().find("test.dump_gauge"), std::string::npos);
    EXPECT_NE(text.str().find("test.dump_latency"), std::string::npos);

    std::ostringstream csv;
    registry.writeCsv(csv);
    EXPECT_NE(csv.str().find("kind,name,field,value"),
              std::string::npos);
    EXPECT_NE(csv.str().find("counter,test.dump_counter,value,5"),
              std::string::npos);
    EXPECT_NE(csv.str().find("latency,test.dump_latency,count,1"),
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
            auto &h = registry.latency("test.concurrent_latency");
            for (int i = 0; i < kPerThread; ++i) {
                c.increment();
                g.add(0.5);
                if (i % 100 == 0)
                    h.record(static_cast<double>(i % 1000) + 1.0);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(registry.counter("test.concurrent_counter").value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(registry.gauge("test.concurrent_gauge").value(),
                     0.5 * kThreads * kPerThread);
    EXPECT_EQ(registry.latency("test.concurrent_latency").count(),
              static_cast<uint64_t>(kThreads) * (kPerThread / 100));
}

TEST(Metrics, PrometheusDumpHasHelpTypeAndSuffixes)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    registry.counter("test.prom_counter").increment(7);
    registry.gauge("test.prom_gauge").set(2.5);

    std::ostringstream os;
    registry.dumpPrometheus(os);
    const std::string prom = os.str();

    // Counters: carbonx_ prefix, dots sanitized, _total suffix, and
    // the HELP/TYPE pair preceding the sample.
    EXPECT_NE(prom.find("# HELP carbonx_test_prom_counter_total"),
              std::string::npos);
    EXPECT_NE(
        prom.find("# TYPE carbonx_test_prom_counter_total counter"),
        std::string::npos);
    EXPECT_NE(prom.find("carbonx_test_prom_counter_total 7"),
              std::string::npos);

    EXPECT_NE(prom.find("# TYPE carbonx_test_prom_gauge gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("carbonx_test_prom_gauge 2.5"),
              std::string::npos);
}

TEST(Metrics, PrometheusHistogramBucketsAreCumulative)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    auto &h = registry.latency("test.prom_latency");
    // Three samples across two distinct log bins.
    h.record(10.0);
    h.record(12.0);
    h.record(10000.0);

    std::ostringstream os;
    registry.dumpPrometheus(os);
    const std::string prom = os.str();

    EXPECT_NE(prom.find("# TYPE carbonx_test_prom_latency histogram"),
              std::string::npos);
    // The cumulative series must end at the exact count via +Inf.
    EXPECT_NE(prom.find("carbonx_test_prom_latency_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("carbonx_test_prom_latency_count 3"),
              std::string::npos);
    EXPECT_NE(prom.find("carbonx_test_prom_latency_sum 10022"),
              std::string::npos);

    // Bucket counts never decrease in exposition order.
    uint64_t last = 0;
    size_t pos = 0;
    size_t buckets = 0;
    const std::string needle =
        "carbonx_test_prom_latency_bucket{le=\"";
    while ((pos = prom.find(needle, pos)) != std::string::npos) {
        const size_t close = prom.find("\"} ", pos);
        ASSERT_NE(close, std::string::npos);
        const uint64_t cumulative = std::stoull(prom.substr(close + 3));
        EXPECT_GE(cumulative, last);
        last = cumulative;
        ++buckets;
        pos = close;
    }
    EXPECT_GE(buckets, 3u); // Two non-empty bins plus +Inf.
    EXPECT_EQ(last, 3u);
}

TEST(Metrics, PrometheusCollidingNamesGetDistinctStableSeries)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    // Both raw names sanitize to carbonx_test_collide_x; without
    // disambiguation the second would silently merge into the first's
    // scrape series.
    registry.counter("test.collide.x").increment(3);
    registry.counter("test.collide_x").increment(9);
    // A lone name whose sanitized form nobody else claims must keep
    // the plain spelling, suffix-free.
    registry.counter("test.collide.alone").increment(1);

    std::ostringstream os;
    registry.dumpPrometheus(os);
    const std::string prom = os.str();

    // Each colliding raw name appears under a deterministic suffixed
    // series carrying its own value.
    const std::string dot_series =
        "carbonx_test_collide_x_" +
        fnvHex(fnv1a64String("test.collide.x")).substr(0, 8) +
        "_total";
    const std::string under_series =
        "carbonx_test_collide_x_" +
        fnvHex(fnv1a64String("test.collide_x")).substr(0, 8) +
        "_total";
    ASSERT_NE(dot_series, under_series);
    EXPECT_NE(prom.find(dot_series + " 3"), std::string::npos);
    EXPECT_NE(prom.find(under_series + " 9"), std::string::npos);
    // The bare merged name must not be exported as a sample.
    EXPECT_EQ(prom.find("\ncarbonx_test_collide_x_total "),
              std::string::npos);
    EXPECT_NE(prom.find("carbonx_test_collide_alone_total 1"),
              std::string::npos);

    // Determinism across dumps: same suffixes every time.
    std::ostringstream again;
    registry.dumpPrometheus(again);
    EXPECT_EQ(prom, again.str());
}

TEST(Metrics, WriteFileDispatchesPromExtension)
{
    auto &registry = MetricsRegistry::instance();
    registry.reset();
    registry.counter("test.prom_file").increment(1);

    const std::string path = "metrics_dispatch_test.prom";
    registry.writeFile(path);
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("carbonx_test_prom_file_total 1"),
              std::string::npos);
    std::remove(path.c_str());
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

    std::ostringstream prom_os;
    registry.dumpPrometheus(prom_os);
    EXPECT_NE(prom_os.str().find("carbonx_test_hot_merged_total 11"),
              std::string::npos);

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
