/**
 * @file
 * Registry of Meta's US datacenter sites and renewable investments
 * (the paper's Table 1), plus per-site datacenter sizes.
 */

#ifndef CARBONX_DATACENTER_SITE_H
#define CARBONX_DATACENTER_SITE_H

#include <string>
#include <vector>

namespace carbonx
{

/** One datacenter site row of Table 1. */
struct Site
{
    int index;               ///< 1-based row number in Table 1.
    std::string location;    ///< e.g. "Prineville, Oregon".
    std::string state;       ///< Two-letter state code, e.g. "OR".
    std::string ba_code;     ///< Balancing authority, e.g. "BPAT".
    double solar_invest_mw;  ///< Existing solar PPA investment (MW).
    double wind_invest_mw;   ///< Existing wind PPA investment (MW).
    /**
     * Average datacenter power (MW). Not published per-site; we assign
     * values in the paper's reported 19-73 MW range, scaled with the
     * site's renewable investment as a proxy for campus size.
     */
    double avg_dc_power_mw;

    double totalInvestMw() const
    {
        return solar_invest_mw + wind_invest_mw;
    }
};

/** The thirteen Table 1 sites. */
class SiteRegistry
{
  public:
    static const SiteRegistry &instance();

    const std::vector<Site> &all() const { return sites_; }

    /** Site by two-letter state code. @throws UserError when absent. */
    const Site &byState(const std::string &state) const;

    /** Sum of solar investments across sites (paper: 1823 MW). */
    double totalSolarInvestMw() const;

    /** Sum of wind investments across sites (paper: 3931 MW). */
    double totalWindInvestMw() const;

  private:
    SiteRegistry();

    std::vector<Site> sites_;
};

} // namespace carbonx

#endif // CARBONX_DATACENTER_SITE_H
