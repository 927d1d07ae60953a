#include "inspect_suite.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fnv.h"
#include "common/json.h"
#include "common/table.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace carbonx::tools
{

namespace
{

/** Aggregates of one evaluation wave. */
struct WaveStats
{
    size_t rows = 0;
    std::array<size_t, obs::kDecisionVerdicts> by_verdict{};
    std::set<uint16_t> workers;
    uint64_t ts_first_us = 0;
    uint64_t ts_last_us = 0;
    double skip_margin_sum = 0.0; ///< Over finite skip/re-arm margins.
    size_t skip_margin_count = 0;
};

/** Aggregates of one worker. */
struct WorkerStats
{
    size_t rows = 0;
    size_t simulated = 0;
};

/** Everything the renderers need, fully derived from journal rows. */
struct InspectReport
{
    uint64_t config_digest = 0;
    bool has_provenance = false;
    std::string truncation_reason;
    size_t rows = 0;
    std::array<size_t, obs::kDecisionVerdicts> by_verdict{};
    size_t simulated = 0;     ///< evaluated + interpolated + re-armed
    size_t net_skipped = 0;   ///< skipped - revived (never simulated)
    size_t revived = 0;       ///< obs::isRevival rows
    size_t prediction_samples = 0;
    double prediction_abs_err_sum = 0.0;
    double prediction_abs_err_max = 0.0;
    std::map<uint32_t, WaveStats> waves;
    std::map<uint16_t, WorkerStats> workers;
};

bool
isSimulatedVerdict(obs::DecisionVerdict v)
{
    return v == obs::DecisionVerdict::Evaluated ||
        v == obs::DecisionVerdict::Interpolated ||
        v == obs::DecisionVerdict::ReArmed;
}

InspectReport
buildReport(const obs::JournalData &data)
{
    InspectReport rep;
    rep.config_digest = data.config_digest;
    rep.has_provenance = !data.provenance.empty();
    rep.truncation_reason = data.truncation_reason;
    rep.rows = data.rows.size();
    for (const obs::DecisionRow &row : data.rows) {
        const auto v = static_cast<size_t>(row.verdict);
        if (v < obs::kDecisionVerdicts)
            ++rep.by_verdict[v];
        if (isSimulatedVerdict(row.verdict))
            ++rep.simulated;
        if (obs::isRevival(row))
            ++rep.revived;

        WaveStats &wave = rep.waves[row.wave];
        if (wave.rows == 0) {
            wave.ts_first_us = row.ts_us;
            wave.ts_last_us = row.ts_us;
        }
        ++wave.rows;
        if (v < obs::kDecisionVerdicts)
            ++wave.by_verdict[v];
        wave.workers.insert(row.worker);
        wave.ts_first_us = std::min(wave.ts_first_us, row.ts_us);
        wave.ts_last_us = std::max(wave.ts_last_us, row.ts_us);
        if ((row.verdict == obs::DecisionVerdict::Skipped ||
             obs::isRevival(row)) &&
            std::isfinite(row.margin_kg)) {
            wave.skip_margin_sum += row.margin_kg;
            ++wave.skip_margin_count;
        }

        WorkerStats &worker = rep.workers[row.worker];
        ++worker.rows;
        if (isSimulatedVerdict(row.verdict))
            ++worker.simulated;

        if (std::isfinite(row.predicted_kg) &&
            std::isfinite(row.actual_kg)) {
            const double err =
                std::abs(row.actual_kg - row.predicted_kg);
            rep.prediction_abs_err_sum += err;
            rep.prediction_abs_err_max =
                std::max(rep.prediction_abs_err_max, err);
            ++rep.prediction_samples;
        }
    }
    const size_t skipped = rep.by_verdict[static_cast<size_t>(
        obs::DecisionVerdict::Skipped)];
    rep.net_skipped = skipped >= rep.revived ? skipped - rep.revived
                                             : 0;
    return rep;
}

std::string
percentOf(size_t part, size_t whole)
{
    if (whole == 0)
        return formatPercent(0.0);
    return formatPercent(100.0 * static_cast<double>(part) /
                         static_cast<double>(whole));
}

void
writeText(std::ostream &os, const InspectReport &rep)
{
    os << "journal: " << rep.rows << " decisions, config digest "
       << fnvHex(rep.config_digest)
       << (rep.has_provenance ? ", provenance attached" : "") << '\n';
    if (!rep.truncation_reason.empty()) {
        os << "warning: journal tail dropped (" << rep.truncation_reason
           << "); figures cover the clean prefix\n";
    }

    {
        TextTable table("Decision breakdown",
                        {"Verdict", "Rows", "Share"});
        for (size_t v = 0; v < obs::kDecisionVerdicts; ++v) {
            if (rep.by_verdict[v] == 0)
                continue;
            table.addRow({obs::decisionVerdictName(
                              static_cast<obs::DecisionVerdict>(v)),
                          std::to_string(rep.by_verdict[v]),
                          percentOf(rep.by_verdict[v], rep.rows)});
        }
        table.print(os);
    }

    os << "\nCache efficacy: "
       << rep.by_verdict[static_cast<size_t>(
              obs::DecisionVerdict::CacheHit)]
       << " replayed, " << rep.simulated << " simulated, "
       << rep.by_verdict[static_cast<size_t>(
              obs::DecisionVerdict::CacheCorrupt)]
       << " corrupt-cache events\n"
       << "Pruning: " << rep.net_skipped << " points never simulated, "
       << rep.revived << " revived by margin inflation\n";
    if (rep.prediction_samples > 0) {
        os << "Prediction error (|actual - predicted|): mean "
           << formatFixed(rep.prediction_abs_err_sum /
                              static_cast<double>(
                                  rep.prediction_samples),
                          1)
           << " kg, max "
           << formatFixed(rep.prediction_abs_err_max, 1) << " kg over "
           << rep.prediction_samples << " samples\n";
    }

    {
        TextTable table("Wave timeline",
                        {"Wave", "Rows", "Sim", "Skip", "Cache",
                         "Workers", "Span us", "Avg margin kg"});
        for (const auto &[wave, stats] : rep.waves) {
            const size_t sim =
                stats.by_verdict[static_cast<size_t>(
                    obs::DecisionVerdict::Evaluated)] +
                stats.by_verdict[static_cast<size_t>(
                    obs::DecisionVerdict::Interpolated)] +
                stats.by_verdict[static_cast<size_t>(
                    obs::DecisionVerdict::ReArmed)];
            table.addRow(
                {std::to_string(wave), std::to_string(stats.rows),
                 std::to_string(sim),
                 std::to_string(stats.by_verdict[static_cast<size_t>(
                     obs::DecisionVerdict::Skipped)]),
                 std::to_string(stats.by_verdict[static_cast<size_t>(
                     obs::DecisionVerdict::CacheHit)]),
                 std::to_string(stats.workers.size()),
                 std::to_string(stats.ts_last_us - stats.ts_first_us),
                 stats.skip_margin_count > 0
                     ? formatFixed(stats.skip_margin_sum /
                                       static_cast<double>(
                                           stats.skip_margin_count),
                                   1)
                     : std::string("-")});
        }
        os << '\n';
        table.print(os);
    }

    {
        TextTable table("Per-worker utilization",
                        {"Worker", "Rows", "Simulated", "Share"});
        for (const auto &[worker, stats] : rep.workers) {
            table.addRow({std::to_string(worker),
                          std::to_string(stats.rows),
                          std::to_string(stats.simulated),
                          percentOf(stats.simulated, rep.simulated)});
        }
        os << '\n';
        table.print(os);
    }
}

void
writeJson(std::ostream &os, const InspectReport &rep)
{
    os << "{\n  \"config_digest\": \"" << fnvHex(rep.config_digest)
       << "\",\n  \"rows\": " << rep.rows
       << ",\n  \"truncation_reason\": \""
       << jsonEscapeString(rep.truncation_reason)
       << "\",\n  \"decisions\": {";
    bool first = true;
    for (size_t v = 0; v < obs::kDecisionVerdicts; ++v) {
        os << (first ? "" : ", ") << '"'
           << obs::decisionVerdictName(
                  static_cast<obs::DecisionVerdict>(v))
           << "\": " << rep.by_verdict[v];
        first = false;
    }
    os << "},\n  \"simulated\": " << rep.simulated
       << ",\n  \"net_skipped\": " << rep.net_skipped
       << ",\n  \"revived\": " << rep.revived
       << ",\n  \"prediction_samples\": " << rep.prediction_samples;
    if (rep.prediction_samples > 0) {
        os << ",\n  \"prediction_mean_abs_err_kg\": "
           << formatFixed(rep.prediction_abs_err_sum /
                              static_cast<double>(
                                  rep.prediction_samples),
                          3)
           << ",\n  \"prediction_max_abs_err_kg\": "
           << formatFixed(rep.prediction_abs_err_max, 3);
    }
    os << ",\n  \"waves\": [";
    first = true;
    for (const auto &[wave, stats] : rep.waves) {
        os << (first ? "\n" : ",\n") << "    {\"wave\": " << wave
           << ", \"rows\": " << stats.rows << ", \"verdicts\": {";
        bool vfirst = true;
        for (size_t v = 0; v < obs::kDecisionVerdicts; ++v) {
            os << (vfirst ? "" : ", ") << '"'
               << obs::decisionVerdictName(
                      static_cast<obs::DecisionVerdict>(v))
               << "\": " << stats.by_verdict[v];
            vfirst = false;
        }
        os << "}, \"workers\": " << stats.workers.size()
           << ", \"ts_first_us\": " << stats.ts_first_us
           << ", \"ts_last_us\": " << stats.ts_last_us << '}';
        first = false;
    }
    os << "\n  ],\n  \"workers\": [";
    first = true;
    for (const auto &[worker, stats] : rep.workers) {
        os << (first ? "\n" : ",\n") << "    {\"worker\": " << worker
           << ", \"rows\": " << stats.rows
           << ", \"simulated\": " << stats.simulated << '}';
        first = false;
    }
    os << "\n  ]\n}\n";
}

void
writeCsv(std::ostream &os, const InspectReport &rep)
{
    os << "wave,rows,evaluated,interpolated,skipped,cache_hit,"
          "re_armed,cache_corrupt,workers,ts_first_us,ts_last_us\n";
    for (const auto &[wave, stats] : rep.waves) {
        os << wave << ',' << stats.rows;
        for (size_t v = 0; v < obs::kDecisionVerdicts; ++v)
            os << ',' << stats.by_verdict[v];
        os << ',' << stats.workers.size() << ',' << stats.ts_first_us
           << ',' << stats.ts_last_us << '\n';
    }
}

/**
 * Per-wave verdict counts as Chrome counter tracks (wave index maps
 * to the trace's hour axis), merged into whatever trace the session
 * writes. No-op unless --trace-out enabled the tracer.
 */
void
addTraceCounters(const InspectReport &rep)
{
    auto &tracer = obs::SpanTracer::instance();
    if (!tracer.enabled() || rep.waves.empty())
        return;
    const uint32_t last_wave = rep.waves.rbegin()->first;
    std::vector<double> simulated(last_wave + 1, 0.0);
    std::vector<double> skipped(last_wave + 1, 0.0);
    std::vector<double> cached(last_wave + 1, 0.0);
    for (const auto &[wave, stats] : rep.waves) {
        simulated[wave] = static_cast<double>(
            stats.by_verdict[static_cast<size_t>(
                obs::DecisionVerdict::Evaluated)] +
            stats.by_verdict[static_cast<size_t>(
                obs::DecisionVerdict::Interpolated)] +
            stats.by_verdict[static_cast<size_t>(
                obs::DecisionVerdict::ReArmed)]);
        skipped[wave] = static_cast<double>(
            stats.by_verdict[static_cast<size_t>(
                obs::DecisionVerdict::Skipped)]);
        cached[wave] = static_cast<double>(
            stats.by_verdict[static_cast<size_t>(
                obs::DecisionVerdict::CacheHit)]);
    }
    tracer.addCounterTrack("journal/simulated_per_wave", simulated);
    tracer.addCounterTrack("journal/skipped_per_wave", skipped);
    tracer.addCounterTrack("journal/cache_hits_per_wave", cached);
}

} // namespace

int
cmdInspect(const ArgParser &args)
{
    require(args.positionals().size() >= 2,
            "usage: carbonx inspect <journal> "
            "[--format text|json|csv]");
    const std::string &path = args.positionals()[1];
    const obs::JournalData data = obs::readJournal(path);
    const InspectReport rep = buildReport(data);

    const std::string format = args.getString("format", "text");
    if (format == "text")
        writeText(std::cout, rep);
    else if (format == "json")
        writeJson(std::cout, rep);
    else if (format == "csv")
        writeCsv(std::cout, rep);
    else
        throw UserError("unknown inspect format '" + format +
                        "' (text|json|csv)");
    addTraceCounters(rep);
    return 0;
}

} // namespace carbonx::tools
