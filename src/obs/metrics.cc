#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/fnv.h"
#include "common/json.h"
#include "common/table.h"
#include "obs/provenance.h"

namespace carbonx::obs
{

namespace
{

// Log10(us) range of the latency bins: 1 us .. 10 s. Samples outside
// clamp into the edge bins (Histogram semantics); min/max stay exact.
constexpr double kLogLoUs = 0.0;
constexpr double kLogHiUs = 7.0;
constexpr size_t kLogBins = 28;

/** Render a double as JSON (finite; shortest round-trippable-ish). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(15);
    os << v;
    return os.str();
}

/** Map a registry name onto the Prometheus charset, with prefix. */
std::string
prometheusName(const std::string &name)
{
    std::string out = "carbonx_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/**
 * prometheusName() is lossy — "sweep.points" and "sweep_points" both
 * map to carbonx_sweep_points — so two distinct registry names can
 * silently merge into one scrape series. Resolve the full dump's
 * names at once: any sanitized name claimed by more than one raw
 * name gets a deterministic 8-hex-digit FNV suffix of its raw name,
 * so colliding series stay distinct and stable across runs.
 */
std::map<std::string, std::string>
disambiguatedPromNames(const std::vector<std::string> &raw_names)
{
    std::map<std::string, std::set<std::string>> by_prom;
    for (const std::string &raw : raw_names)
        by_prom[prometheusName(raw)].insert(raw);
    std::map<std::string, std::string> out;
    for (const auto &[prom, raws] : by_prom) {
        for (const std::string &raw : raws) {
            if (raws.size() == 1)
                out[raw] = prom;
            else
                out[raw] = prom + "_" +
                           fnvHex(fnv1a64String(raw)).substr(0, 8);
        }
    }
    return out;
}

} // namespace

LatencyHistogram::LatencyHistogram()
    : log_bins_(kLogLoUs, kLogHiUs, kLogBins)
{
}

void
LatencyHistogram::record(double us)
{
    us = std::max(us, 0.0);
    const std::lock_guard<std::mutex> lock(mutex_);
    log_bins_.add(std::log10(std::max(us, 1e-3)));
    if (count_ == 0 || us < min_us_)
        min_us_ = us;
    if (count_ == 0 || us > max_us_)
        max_us_ = us;
    sum_us_ += us;
    ++count_;
}

uint64_t
LatencyHistogram::count() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
LatencyHistogram::totalUs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return sum_us_;
}

double
LatencyHistogram::minUs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return min_us_;
}

double
LatencyHistogram::maxUs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return max_us_;
}

double
LatencyHistogram::meanUs() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_ > 0 ? sum_us_ / static_cast<double>(count_) : 0.0;
}

std::vector<LatencyHistogram::Bin>
LatencyHistogram::bins() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Bin> out;
    for (size_t b = 0; b < log_bins_.numBins(); ++b) {
        if (log_bins_.count(b) == 0)
            continue;
        out.push_back(Bin{std::pow(10.0, log_bins_.lowerEdge(b)),
                          std::pow(10.0, log_bins_.upperEdge(b)),
                          log_bins_.count(b)});
    }
    return out;
}

void
LatencyHistogram::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    log_bins_ = Histogram(kLogLoUs, kLogHiUs, kLogBins);
    count_ = 0;
    sum_us_ = 0.0;
    min_us_ = 0.0;
    max_us_ = 0.0;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked on purpose so instrument references stay valid in static
    // destructors (e.g. batteries flushing counts at program exit).
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return ::carbonx::counter(name);
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return gauges_[name];
}

LatencyHistogram &
MetricsRegistry::latency(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return latencies_[name];
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::counterValues() const
{
    return counterSnapshot();
}

void
MetricsRegistry::writeText(std::ostream &os) const
{
    if (hasProcessProvenance())
        processProvenance().writeCommentHeader(os, "# ");
    const std::lock_guard<std::mutex> lock(mutex_);
    TextTable table("Metrics registry",
                    {"Kind", "Name", "Count/Value", "Mean us", "Min us",
                     "Max us"});
    for (const auto &[name, v] : counterSnapshot()) {
        table.addRow({"counter", name, std::to_string(v), "-",
                      "-", "-"});
    }
    for (const auto &[name, g] : gauges_) {
        table.addRow({"gauge", name, formatFixed(g.value(), 3), "-",
                      "-", "-"});
    }
    for (const auto &[name, h] : latencies_) {
        table.addRow({"latency", name, std::to_string(h.count()),
                      formatFixed(h.meanUs(), 1),
                      formatFixed(h.minUs(), 1),
                      formatFixed(h.maxUs(), 1)});
    }
    table.print(os);
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n";
    if (hasProcessProvenance()) {
        os << "  \"provenance\": ";
        processProvenance().writeJson(os, "  ");
        os << ",\n";
    }
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counterSnapshot()) {
        os << (first ? "" : ",") << "\n    \"" << jsonEscapeString(name)
           << "\": " << v;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_) {
        os << (first ? "" : ",") << "\n    \"" << jsonEscapeString(name)
           << "\": " << jsonNumber(g.value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"latencies\": {";
    first = true;
    for (const auto &[name, h] : latencies_) {
        os << (first ? "" : ",") << "\n    \"" << jsonEscapeString(name)
           << "\": {\"count\": " << h.count()
           << ", \"total_us\": " << jsonNumber(h.totalUs())
           << ", \"min_us\": " << jsonNumber(h.minUs())
           << ", \"max_us\": " << jsonNumber(h.maxUs())
           << ", \"mean_us\": " << jsonNumber(h.meanUs())
           << ", \"bins\": [";
        bool first_bin = true;
        for (const auto &bin : h.bins()) {
            os << (first_bin ? "" : ", ") << "{\"lo_us\": "
               << jsonNumber(bin.lo_us) << ", \"hi_us\": "
               << jsonNumber(bin.hi_us) << ", \"count\": " << bin.count
               << "}";
            first_bin = false;
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    if (hasProcessProvenance())
        processProvenance().writeCommentHeader(os, "# ");
    const std::lock_guard<std::mutex> lock(mutex_);
    os << "kind,name,field,value\n";
    for (const auto &[name, v] : counterSnapshot())
        os << "counter," << name << ",value," << v << '\n';
    for (const auto &[name, g] : gauges_)
        os << "gauge," << name << ",value," << jsonNumber(g.value())
           << '\n';
    for (const auto &[name, h] : latencies_) {
        os << "latency," << name << ",count," << h.count() << '\n'
           << "latency," << name << ",total_us,"
           << jsonNumber(h.totalUs()) << '\n'
           << "latency," << name << ",min_us," << jsonNumber(h.minUs())
           << '\n'
           << "latency," << name << ",max_us," << jsonNumber(h.maxUs())
           << '\n'
           << "latency," << name << ",mean_us,"
           << jsonNumber(h.meanUs()) << '\n';
    }
}

void
MetricsRegistry::dumpPrometheus(std::ostream &os) const
{
    // Prometheus ignores comment lines that are not HELP/TYPE, so the
    // provenance header travels with the scrape text unharmed.
    if (hasProcessProvenance())
        processProvenance().writeCommentHeader(os, "# ");
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto counters = counterSnapshot();
    std::vector<std::string> raw_names;
    for (const auto &[name, v] : counters)
        raw_names.push_back(name);
    for (const auto &[name, g] : gauges_)
        raw_names.push_back(name);
    for (const auto &[name, h] : latencies_)
        raw_names.push_back(name);
    const std::map<std::string, std::string> prom_names =
        disambiguatedPromNames(raw_names);
    for (const auto &[name, v] : counters) {
        const std::string prom = prom_names.at(name) + "_total";
        os << "# HELP " << prom << " carbonx counter " << name << '\n'
           << "# TYPE " << prom << " counter\n"
           << prom << ' ' << v << '\n';
    }
    for (const auto &[name, g] : gauges_) {
        const std::string prom = prom_names.at(name);
        os << "# HELP " << prom << " carbonx gauge " << name << '\n'
           << "# TYPE " << prom << " gauge\n"
           << prom << ' ' << jsonNumber(g.value()) << '\n';
    }
    for (const auto &[name, h] : latencies_) {
        const std::string prom = prom_names.at(name);
        os << "# HELP " << prom << " carbonx latency " << name
           << " (microseconds)\n"
           << "# TYPE " << prom << " histogram\n";
        uint64_t cumulative = 0;
        for (const auto &bin : h.bins()) {
            cumulative += bin.count;
            os << prom << "_bucket{le=\"" << jsonNumber(bin.hi_us)
               << "\"} " << cumulative << '\n';
        }
        os << prom << "_bucket{le=\"+Inf\"} " << h.count() << '\n'
           << prom << "_sum " << jsonNumber(h.totalUs()) << '\n'
           << prom << "_count " << h.count() << '\n';
    }
}

void
MetricsRegistry::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    require(out.good(), "cannot open metrics output file: " + path);
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
        writeJson(out);
    else if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
        writeCsv(out);
    else if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0)
        dumpPrometheus(out);
    else
        writeText(out);
    require(out.good(), "failed writing metrics output file: " + path);
}

void
MetricsRegistry::reset()
{
    resetCounters();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, g] : gauges_)
        g.reset();
    for (auto &[name, h] : latencies_)
        h.reset();
}

Gauge &
gauge(const std::string &name)
{
    return MetricsRegistry::instance().gauge(name);
}

LatencyHistogram &
latency(const std::string &name)
{
    return MetricsRegistry::instance().latency(name);
}

} // namespace carbonx::obs
