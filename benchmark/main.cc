/**
 * @file
 * carbonx_benchmark: runs one workload and prints its metrics.
 *
 *   carbonx_benchmark --workload NAME [--seed N] [--seconds S]
 *                     [--trace 0|1] [--smoke] [--write-expected]
 *   carbonx_benchmark --list
 *
 * Run it from the repository root (benchmark/run.sh does). stdout
 * carries one "name value unit" line per metric and, as its last
 * line, one JSON object {correct, attempted, failed, metrics}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 they
 * are the per-layer ones, and a Chrome trace is written too. A fuller
 * result file, stamped with the commit, core count, threads, build
 * type and seed, goes to .bench_build/results/. Progress and failed
 * checks go to stderr. Exit status: 0 after a run (even one whose
 * checks failed; see "correct"), 1 on an error, 2 on bad usage.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/json.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace cxbench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, measured with tracing off. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"points_per_s", "points/s"},
    {"request_p10_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/**
 * Timings are read at the fastest tenth of their samples. On a shared
 * machine, neighbours slow the cores by up to ~1.5x for seconds at a
 * time; the median moves with the share of a run spent in such phases
 * (relative IQR up to 0.32 over ten seeds), the lower decile far less
 * (README.md has the numbers).
 */
constexpr double kFastShare = 0.1;

/** Per-layer metrics of a --trace 1 run. */
constexpr MetricDef kPerLayer[] = {
    {"grid.synthesize_ms", "ms"},
    {"datacenter.load_generate_ms", "ms"},
    {"core.explorer_construct_ms", "ms"},
    {"scheduler.batch_ns_per_lane_hour.cas", "ns"},
    {"scheduler.batch_ns_per_lane_hour.renewables", "ns"},
    {"battery.ops_per_lane_hour", "ops"},
    {"coverage.supply_ns_per_hour", "ns"},
    {"scheduler.batch_fill_ns_per_lane", "ns"},
    {"scheduler.lane_hours", "count"},
    {"core.evaluator_points_per_s", "points/s"},
    {"core.driver_overhead_frac", "fraction"},
    {"core.adaptive_simulated_frac", "fraction"},
    {"core.adaptive_margin_inflations", "count"},
    {"parallel.idle_frac", "fraction"},
    {"parallel.scaling_eff", "fraction"},
    {"cache.open_ms", "ms"},
    {"cache.find_ns", "ns"},
    {"cache.replay_hit_ratio", "fraction"},
    {"cache.insert_ns_per_record", "ns"},
    {"cache.flush_ns_per_record", "ns"},
    {"cache.bytes_per_record", "bytes"},
    {"journal.rows_per_lattice_point", "rows"},
    {"journal.bytes_per_row", "bytes"},
    {"journal.flush_ns_per_row", "ns"},
    {"core.evaluate_ns_per_hour", "ns"},
    {"core.explain_ns_per_hour", "ns"},
    {"audit.ns_per_hour", "ns"},
    {"carbon.grid_emissions_ns_per_hour", "ns"},
    {"trace_overhead_frac", "fraction"},
};

/** Sweep threads: two, or fewer on a smaller machine. */
constexpr size_t kThreads = 2;

struct UsageError : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

Options
parseArgs(int argc, char **argv, bool &list)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw UsageError(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                const std::string v = value();
                size_t used = 0;
                o.seed = std::stoull(v, &used);
                if (used != v.size())
                    throw UsageError("--seed must be a whole number");
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value());
                if (!(o.seconds >= 0.0))
                    throw UsageError("--seconds must be >= 0");
            } else if (arg == "--trace") {
                // Takes 0 or 1; a bare --trace means 1.
                o.trace = true;
                if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                                     std::string(argv[i + 1]) == "1"))
                    o.trace = std::string(argv[++i]) == "1";
            } else if (arg == "--smoke") {
                o.smoke = true;
            } else if (arg == "--write-expected") {
                o.write_expected = true;
            } else if (arg == "--list") {
                list = true;
            } else {
                throw UsageError("unknown argument " + arg);
            }
        } catch (const std::logic_error &e) {
            if (dynamic_cast<const UsageError *>(&e) != nullptr)
                throw;
            throw UsageError("bad value for " + arg);
        }
    }
    if (!list && !have_workload)
        throw UsageError("--workload is required");
    return o;
}

std::string
provenanceJson(const Options &o, size_t threads)
{
    const char *commit = std::getenv("CARBONX_BENCH_COMMIT");
    std::ostringstream os;
    os << "{\"commit\": \""
       << carbonx::jsonEscapeString(commit != nullptr ? commit : "unknown")
       << "\", \"nproc\": " << carbonx::hardwareThreads()
       << ", \"threads\": " << threads << ", \"build_type\": \""
       << CARBONX_BENCH_BUILD_TYPE << "\", \"workload\": \""
       << carbonx::jsonEscapeString(o.workload) << "\", \"seed\": " << o.seed
       << ", \"seconds\": " << exactNumber(o.seconds)
       << ", \"trace\": " << (o.trace ? "true" : "false")
       << ", \"smoke\": " << (o.smoke ? "true" : "false") << "}";
    return os.str();
}

/**
 * Extra share of wall time the traced iterations took over the
 * untraced ones. Iterations alternate in blocks of one pass over the
 * pool (traced first), so both sides see the same studies; only
 * complete traced/untraced block pairs count.
 */
double
traceOverhead(const std::vector<double> &iteration_s, size_t block)
{
    double traced = 0.0;
    double untraced = 0.0;
    for (size_t b = 0; (2 * b + 2) * block <= iteration_s.size(); ++b) {
        for (size_t k = 0; k < block; ++k) {
            traced += iteration_s[2 * b * block + k];
            untraced += iteration_s[(2 * b + 1) * block + k];
        }
    }
    return untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
}

/**
 * Design points per second over one pass of the pool: each pool entry
 * contributes one request's points and the lower decile of its
 * requests' times. Summing over every entry, rather than picking the
 * fastest requests overall, keeps the mix of studies, and so the
 * figure, the same from seed to seed.
 */
double
poolPointsPerSecond(const std::vector<Sample> &samples)
{
    std::map<size_t, std::vector<double>> entry_ms;
    std::map<size_t, size_t> entry_points;
    for (const Sample &s : samples) {
        if (s.points == 0)
            continue;
        entry_ms[s.entry].push_back(s.ms);
        entry_points[s.entry] = s.points;
    }
    double points = 0.0;
    double ms = 0.0;
    for (const auto &[entry, times] : entry_ms) {
        points += static_cast<double>(entry_points[entry]);
        ms += quantile(times, kFastShare);
    }
    return ms > 0.0 ? points / (ms / 1e3) : 0.0;
}

int
runBenchmark(const Options &opt)
{
    const size_t threads = std::min(kThreads, carbonx::hardwareThreads());
    carbonx::setThreadCount(threads);
    Tracer tracer;
    tracer.setEnabled(opt.trace);
    TempDir tmp(std::string(kOutDir) + "/tmp");
    const std::unique_ptr<Workload> workload =
        makeWorkload(opt, tracer, tmp);
    const std::string provenance = provenanceJson(opt, threads);
    std::cerr << "carbonx_benchmark: " << provenance << '\n';

    std::vector<Sample> samples;
    std::vector<double> setup_s;
    std::vector<double> iteration_s;
    double loop_s = 0.0;
    double idle_us = 0.0;
    std::map<std::string, double> layers;
    {
        auto root = tracer.span("workload " + opt.workload);
        // Set-up: building the whole explorer pool.
        const auto setup = [&] {
            auto span = tracer.span("setup");
            const auto t0 = Clock::now();
            workload->buildPool();
            setup_s.push_back(secondsSince(t0));
        };
        setup();
        {
            auto span = tracer.span("warmup");
            std::vector<Sample> discard;
            workload->request(0, discard);
        }

        // Start the pool, then zero every library counter, so the
        // timed loop's counts are its own. pool.idle_us accrues when a
        // parked worker wakes, hence the empty job after the loop too.
        const auto wake_pool = [threads] {
            carbonx::parallelFor(0, threads, 1, [](size_t) {});
        };
        wake_pool();
        carbonx::obs::MetricsRegistry::instance().reset();
        {
            auto span = tracer.span("loop");
            const size_t block = workload->poolSize();
            const auto loop_start = Clock::now();
            auto last_setup = loop_start;
            do {
                // Untraced runs set up again about once a second, between
                // requests, so the set-up samples span the run the way
                // the requests do instead of one moment of it.
                if (!opt.trace && secondsSince(last_setup) >= 1.0) {
                    setup();
                    last_setup = Clock::now();
                }
                const size_t j = iteration_s.size();
                tracer.setEnabled(opt.trace && (j / block) % 2 == 0);
                const auto t0 = Clock::now();
                workload->request(j + 1, samples);
                iteration_s.push_back(secondsSince(t0));
            } while (secondsSince(loop_start) < opt.seconds);
            loop_s = secondsSince(loop_start);
            tracer.setEnabled(opt.trace);
        }
        wake_pool();
        idle_us = static_cast<double>(counterValue("pool.idle_us"));
        {
            auto span = tracer.span("verify");
            workload->verify();
            workload->checkExpected();
        }
        if (opt.trace) {
            layers = runProbes(*workload, tracer, tmp);
            layers["parallel.idle_frac"] =
                idle_us / (static_cast<double>(threads) * loop_s * 1e6);
            layers["trace_overhead_frac"] =
                traceOverhead(iteration_s, workload->poolSize());
        }
    }

    std::map<std::string, double> values;
    std::vector<MetricDef> defs;
    if (opt.trace) {
        defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
        values = layers;
    } else {
        defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
        std::vector<double> ms;
        for (const Sample &s : samples)
            ms.push_back(s.ms);
        values["setup_s"] = quantile(setup_s, kFastShare);
        values["points_per_s"] = poolPointsPerSecond(samples);
        values["request_p10_ms"] = quantile(ms, kFastShare);
        values["peak_rss_mb"] = peakRssMb();
    }

    const bool correct = workload->failed() == 0;
    std::ostringstream metrics;
    metrics << '{';
    for (size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        if (it == values.end() || !std::isfinite(it->second))
            throw std::logic_error(std::string("metric ") + defs[i].name +
                                   " was not measured");
        std::cout << defs[i].name << ' ' << exactNumber(it->second) << ' '
                  << defs[i].unit << '\n';
        metrics << (i == 0 ? "" : ", ") << '"' << defs[i].name
                << "\": {\"value\": " << exactNumber(it->second)
                << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    metrics << '}';
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << workload->attempted()
           << ", \"failed\": " << workload->failed()
           << ", \"metrics\": " << metrics.str() << '}';

    const std::string out_dir = kOutDir;
    const std::string stem = out_dir + "/results/" + opt.workload +
        "-seed" + std::to_string(opt.seed) + (opt.trace ? "-trace" : "");
    std::filesystem::create_directories(out_dir + "/results");
    {
        // The raw samples behind the metrics, in request order.
        const auto array = [](const auto &values, const auto &get) {
            std::string s = "[";
            for (const auto &v : values)
                s += (s.size() == 1 ? "" : ", ") + exactNumber(get(v));
            return s + "]";
        };
        const auto self = [](double v) { return v; };
        std::ofstream out(stem + ".json");
        out << "{\"provenance\": " << provenance
            << ",\n \"result\": " << result.str()
            << ",\n \"loop_s\": " << exactNumber(loop_s)
            << ",\n \"setup_s\": " << array(setup_s, self)
            << ",\n \"iteration_s\": " << array(iteration_s, self)
            << ",\n \"request_ms\": "
            << array(samples, [](const Sample &s) { return s.ms; })
            << ",\n \"request_points\": "
            << array(samples, [](const Sample &s) {
                   return static_cast<double>(s.points);
               })
            << ",\n \"request_entry\": "
            << array(samples, [](const Sample &s) {
                   return static_cast<double>(s.entry);
               })
            << "}\n";
    }
    if (opt.trace) {
        const std::string path = out_dir + "/traces/" + opt.workload +
            "-seed" + std::to_string(opt.seed) + ".json";
        tracer.writeChrome(path, provenance);
        std::cerr << "carbonx_benchmark: trace written to " << path << '\n';
    }
    std::cerr << "carbonx_benchmark: " << opt.workload << ": "
              << samples.size() << " requests in " << iteration_s.size()
              << " iterations, " << workload->failed() << " failed\n";
    std::cout << result.str() << std::endl;
    return 0;
}

} // namespace

} // namespace cxbench

int
main(int argc, char **argv)
{
    bool list = false;
    cxbench::Options options;
    try {
        options = cxbench::parseArgs(argc, argv, list);
    } catch (const std::exception &e) {
        std::cerr << "carbonx_benchmark: " << e.what() << '\n';
        return 2;
    }
    if (list) {
        for (const cxbench::WorkloadSpec &spec : cxbench::workloadSpecs())
            std::cout << spec.name << '\n';
        return 0;
    }
    try {
        return cxbench::runBenchmark(options);
    } catch (const std::exception &e) {
        std::cerr << "carbonx_benchmark: error: " << e.what() << '\n';
        return 1;
    }
}
