#include "run_suite.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/error.h"
#include "common/table.h"
#include "scenario/registry.h"
#include "scenario/runner.h"

namespace carbonx::tools
{

namespace
{

using carbonx::scenario::Scenario;
using carbonx::scenario::ScenarioRegistry;

int
listScenarios(const ScenarioRegistry &reg, const ArgParser &args)
{
    const std::string tag = args.getString("tag", "");
    const std::vector<const Scenario *> runnable = reg.runnable(tag);
    if (runnable.empty()) {
        std::cerr << "carbonx: no scenarios"
                  << (tag.empty() ? "" : " tagged '" + tag + "'")
                  << " in the registry\n";
        return kExitNoScenario;
    }

    TextTable table("Scenarios" +
                        (tag.empty() ? std::string()
                                     : " tagged '" + tag + "'"),
                    {"Id", "Site", "Strategy", "Mode", "Lattice",
                     "Name"});
    for (const Scenario *s : runnable) {
        const std::string site =
            s->traces_csv.empty() ? s->ba_code : "external";
        table.addRow({s->id, site, strategyName(s->strategy),
                      sweepModeName(s->mode),
                      std::to_string(
                          s->designSpace().sizeFor(s->strategy)),
                      s->name});
    }
    table.print(std::cout);

    size_t abstract = 0;
    for (const Scenario &s : reg.all())
        if (s.abstract_base)
            ++abstract;
    if (abstract > 0)
        std::cout << abstract
                  << " abstract base(s) not listed (extend them via "
                     "\"extends\")\n";
    return 0;
}

int
checkScenarios(const ScenarioRegistry &reg, const ArgParser &args)
{
    // Loading already parsed, resolved, and validated every file;
    // reaching this point means the corpus is clean.
    if (reg.empty()) {
        std::cerr << "carbonx: no scenarios found under '"
                  << args.getString("scenario-dir", "scenarios")
                  << "'\n";
        return kExitNoScenario;
    }
    size_t runnable = 0;
    for (const Scenario &s : reg.all())
        if (!s.abstract_base)
            ++runnable;
    std::cout << reg.all().size() << " scenarios valid (" << runnable
              << " runnable, " << reg.all().size() - runnable
              << " abstract)\n";
    return 0;
}

/** Look up @p id; when missing, print why and the near misses. */
const Scenario *
resolveScenario(const ScenarioRegistry &reg, const std::string &id)
{
    if (reg.empty()) {
        std::cerr << "carbonx: scenario registry is empty (pass "
                     "--scenario-dir or run from the repo root)\n";
        return nullptr;
    }
    if (const Scenario *s = reg.find(id)) {
        if (s->abstract_base) {
            std::cerr << "carbonx: scenario '" << id
                      << "' is an abstract base; run one of its "
                         "children (see `carbonx run --list`)\n";
            return nullptr;
        }
        return s;
    }
    std::cerr << "carbonx: unknown scenario '" << id << "'";
    const std::vector<std::string> close = reg.nearMisses(id);
    if (!close.empty()) {
        std::cerr << "; did you mean: ";
        for (size_t i = 0; i < close.size(); ++i)
            std::cerr << (i ? ", " : "") << close[i];
        std::cerr << "?";
    }
    std::cerr << " (see `carbonx run --list`)\n";
    return nullptr;
}

/** Run @p s and print its report; 1 on a violated expectation. */
int
runResolvedScenario(const Scenario &s, const ArgParser &args)
{
    scenario::ScenarioRunOptions opts;
    if (args.getBool("refine"))
        opts.mode_override = SweepMode::Adaptive;
    else if (args.getBool("exhaustive"))
        opts.mode_override = SweepMode::Exhaustive;
    opts.cache_dir = args.getString("cache-dir", "");
    opts.journal_path = args.getString("journal-out", "");

    const scenario::ScenarioRunResult run =
        scenario::runScenario(s, opts);

    std::ostringstream report;
    scenario::writeScenarioReport(report, s, run);
    std::cout << report.str();
    const std::string report_path = args.getString("report-out", "");
    if (!report_path.empty()) {
        std::ofstream out(report_path);
        require(out.good(),
                "cannot write report to '" + report_path + "'");
        out << report.str();
    }

    const std::vector<std::string> violations =
        scenario::checkExpectations(s, run.result.best);
    for (const std::string &v : violations)
        std::cerr << "carbonx: scenario '" << s.id
                  << "' expectation violated: " << v << '\n';
    return violations.empty() ? 0 : 1;
}

} // namespace

int
cmdRun(const ArgParser &args)
{
    const ScenarioRegistry reg = ScenarioRegistry::loadDirectory(
        args.getString("scenario-dir", "scenarios"));

    if (args.getBool("list"))
        return listScenarios(reg, args);
    if (args.getBool("check"))
        return checkScenarios(reg, args);

    // positionals[0] is the subcommand itself.
    if (args.positionals().size() < 2) {
        std::cerr << "usage: carbonx run <scenario-id> | --list "
                     "[--tag T] | --check\n";
        return 2;
    }
    const Scenario *s = resolveScenario(reg, args.positionals()[1]);
    if (s == nullptr)
        return kExitNoScenario;
    return runResolvedScenario(*s, args);
}

} // namespace carbonx::tools
