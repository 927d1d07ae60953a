/**
 * @file
 * Tests of the Table 1 site registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "datacenter/site.h"

namespace carbonx
{
namespace
{

TEST(Sites, ThirteenSites)
{
    EXPECT_EQ(SiteRegistry::instance().all().size(), 13u);
}

TEST(Sites, Table1InvestmentTotals)
{
    // Summing Table 1's rows: solar 3931 MW, wind 1823 MW, 5754 MW
    // total. (The paper's printed Total row swaps the two column
    // sums; the per-row data is authoritative — section 4.1 confirms
    // Oregon's investment is solar, not wind.)
    const auto &reg = SiteRegistry::instance();
    EXPECT_DOUBLE_EQ(reg.totalSolarInvestMw(), 3931.0);
    EXPECT_DOUBLE_EQ(reg.totalWindInvestMw(), 1823.0);
    EXPECT_DOUBLE_EQ(reg.totalSolarInvestMw() + reg.totalWindInvestMw(),
                     5754.0);
}

TEST(Sites, SpotCheckRows)
{
    const auto &reg = SiteRegistry::instance();
    const Site &ne = reg.byState("NE");
    EXPECT_EQ(ne.ba_code, "SWPP");
    EXPECT_DOUBLE_EQ(ne.wind_invest_mw, 515.0);
    EXPECT_DOUBLE_EQ(ne.solar_invest_mw, 0.0);

    const Site &ut = reg.byState("UT");
    EXPECT_EQ(ut.ba_code, "PACE");
    EXPECT_DOUBLE_EQ(ut.solar_invest_mw, 694.0);
    EXPECT_DOUBLE_EQ(ut.wind_invest_mw, 239.0);

    const Site &tx = reg.byState("TX");
    EXPECT_EQ(tx.ba_code, "ERCO");
    EXPECT_DOUBLE_EQ(tx.totalInvestMw(), 704.0);
}

TEST(Sites, BalancingAuthorityGroups)
{
    const auto served = [](const std::string &ba) {
        const std::vector<Site> &sites = SiteRegistry::instance().all();
        return std::count_if(sites.begin(), sites.end(),
                             [&ba](const Site &s) { return s.ba_code == ba; });
    };
    // PJM serves three sites (IL, VA, OH); TVA serves two (TN, AL).
    EXPECT_EQ(served("PJM"), 3);
    EXPECT_EQ(served("TVA"), 2);
    EXPECT_EQ(served("BPAT"), 1);
    EXPECT_EQ(served("XXXX"), 0);
}

TEST(Sites, DcPowerInPaperRange)
{
    for (const auto &s : SiteRegistry::instance().all()) {
        EXPECT_GE(s.avg_dc_power_mw, 19.0) << s.state;
        EXPECT_LE(s.avg_dc_power_mw, 73.0) << s.state;
    }
}

TEST(Sites, IndicesMatchTable1Order)
{
    const auto &sites = SiteRegistry::instance().all();
    for (size_t i = 0; i < sites.size(); ++i)
        EXPECT_EQ(sites[i].index, static_cast<int>(i) + 1);
}

TEST(Sites, UnknownStateThrows)
{
    EXPECT_THROW(SiteRegistry::instance().byState("ZZ"), UserError);
}

} // namespace
} // namespace carbonx
