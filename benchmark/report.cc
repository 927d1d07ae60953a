/**
 * @file
 * Span recording, Chrome trace output and the small measurement
 * helpers the benchmark shares.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "bench.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace cxbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::Span::Span(Tracer *tracer, std::string name) : tracer_(tracer)
{
    if (tracer_ == nullptr)
        return;
    Event event;
    event.name = std::move(name);
    event.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now() - tracer_->epoch_)
                         .count();
    event.parent = tracer_->open_.empty()
        ? -1
        : static_cast<int64_t>(tracer_->open_.back());
    index_ = tracer_->events_.size();
    tracer_->events_.push_back(std::move(event));
    tracer_->open_.push_back(index_);
}

Tracer::Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    Event &event = tracer_->events_[index_];
    event.dur_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - tracer_->epoch_)
                       .count() -
        event.start_us;
    tracer_->open_.pop_back();
}

void
Tracer::writeChrome(const std::string &path,
                    const std::string &metadata) const
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\",\n \"otherData\": " << metadata
        << ",\n \"traceEvents\": [";
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": \""
            << carbonx::jsonEscapeString(e.name)
            << "\", \"cat\": \"benchmark\", \"ph\": \"X\", \"pid\": 1, "
               "\"tid\": 1, \"ts\": "
            << e.start_us << ", \"dur\": " << std::max<int64_t>(e.dur_us, 0)
            << ", \"args\": {\"id\": " << i << ", \"parent\": " << e.parent
            << "}}";
    }
    out << "\n]}\n";
    if (!out.good())
        throw std::runtime_error("cannot write trace file " + path);
}

TempDir::TempDir(const std::string &parent)
{
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr)
        throw std::runtime_error("cannot create a temporary directory in " +
                                 parent);
    path_ = pattern;
}

TempDir::~TempDir()
{
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
}

std::string
TempDir::freshSubdir(const std::string &tag)
{
    const std::string dir = path_ + "/" + tag + "-" + std::to_string(next_++);
    std::filesystem::create_directories(dir);
    return dir;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
        (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

uint64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] :
         carbonx::obs::MetricsRegistry::instance().counterValues()) {
        if (key == name)
            return value;
    }
    return 0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
exactNumber(double value)
{
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, result.ptr);
}

} // namespace cxbench
