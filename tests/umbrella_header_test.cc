/**
 * @file
 * Compilation test of the umbrella header: everything public must be
 * reachable through a single include, and the core types must be
 * usable together.
 */

#include <gtest/gtest.h>

#include "carbonx.h"

namespace carbonx
{
namespace
{

TEST(Umbrella, CoreTypesComposable)
{
    using namespace carbonx::literals;
    const MegaWattHours e = 19_MW * 2_h;
    EXPECT_DOUBLE_EQ(e.value(), 38.0);

    const WorkloadMix mix = WorkloadMix::simpleFlexible(0.4);
    EXPECT_NEAR(mix.flexibleShare(24.0), 0.4, 1e-12);

    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    BatchLaneConfig lane;
    lane.chemistry = &lfp;
    lane.battery_capacity_mwh = MegaWattHours(10.0);
    SimulationBatch batch(1);
    batch.addLane(lane);
    EXPECT_EQ(batch.size(), 1u);

    const DesignPoint point{MegaWatts(10.0), MegaWatts(20.0),
                            MegaWattHours(30.0), Fraction(0.1)};
    EXPECT_DOUBLE_EQ(point.renewableMw().value(), 30.0);

    EXPECT_EQ(SiteRegistry::instance().all().size(), 13u);
    EXPECT_EQ(BalancingAuthorityRegistry::instance().all().size(),
              10u);
}

TEST(Umbrella, ErrorHierarchyVisible)
{
    EXPECT_THROW(require(false, "nope"), UserError);
    try {
        throw InternalError("boom");
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("internal error"),
                  std::string::npos);
    }
}

} // namespace
} // namespace carbonx
