#include "site.h"

#include "common/error.h"

namespace carbonx
{

SiteRegistry::SiteRegistry()
{
    // Table 1 of the paper: location, state, balancing authority,
    // solar investment MW, wind investment MW. The three PJM rows and
    // the two TVA rows share their BA's renewable investment, which
    // the paper lists once (VA for PJM, TN for TVA); the other rows
    // carry their own investments. Average DC power is our assignment
    // within the paper's 19-73 MW range (see header).
    sites_ = {
        {1, "Sarpy County, Nebraska", "NE", "SWPP", 0, 515, 55},
        {2, "Prineville, Oregon", "OR", "BPAT", 100, 0, 73},
        {3, "Eagle Mountain, Utah", "UT", "PACE", 694, 239, 19},
        {4, "Los Lunas, New Mexico", "NM", "PNM", 420, 215, 40},
        {5, "Fort Worth, Texas", "TX", "ERCO", 300, 404, 60},
        {6, "DeKalb, Illinois", "IL", "PJM", 0, 0, 28},
        {7, "Henrico, Virginia", "VA", "PJM", 840, 309, 64},
        {8, "New Albany, Ohio", "OH", "PJM", 0, 0, 36},
        {9, "Forest City, North Carolina", "NC", "DUK", 410, 0, 51},
        {10, "Altoona, Iowa", "IA", "MISO", 0, 141, 48},
        {11, "Newton County, Georgia", "GA", "SOCO", 425, 0, 42},
        {12, "Gallatin, Tennessee", "TN", "TVA", 742, 0, 46},
        {13, "Huntsville, Alabama", "AL", "TVA", 0, 0, 33},
    };
}

const SiteRegistry &
SiteRegistry::instance()
{
    static const SiteRegistry registry;
    return registry;
}

const Site &
SiteRegistry::byState(const std::string &state) const
{
    for (const auto &s : sites_) {
        if (s.state == state)
            return s;
    }
    throw UserError("unknown datacenter site state: " + state);
}

double
SiteRegistry::totalSolarInvestMw() const
{
    double total = 0.0;
    for (const auto &s : sites_)
        total += s.solar_invest_mw;
    return total;
}

double
SiteRegistry::totalWindInvestMw() const
{
    double total = 0.0;
    for (const auto &s : sites_)
        total += s.wind_invest_mw;
    return total;
}

} // namespace carbonx
