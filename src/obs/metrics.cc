#include "metrics.h"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "common/table.h"
#include "obs/provenance.h"

namespace carbonx::obs
{

namespace
{

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

} // namespace

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
    TextTable table("Metrics registry", {"Kind", "Name", "Value"});
    for (const auto &[name, v] : counterSnapshot())
        table.addRow({"counter", name, std::to_string(v)});
    for (const auto &[name, g] : gauges_)
        table.addRow({"gauge", name, formatFixed(g.value(), 3)});
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
}

Gauge &
gauge(const std::string &name)
{
    return MetricsRegistry::instance().gauge(name);
}

} // namespace carbonx::obs
