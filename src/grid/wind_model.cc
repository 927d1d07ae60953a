#include "wind_model.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"

namespace carbonx
{

namespace
{

/**
 * Hour blocks of the parallel shaping pass, about a month each: a
 * year splits evenly over 2, 3, 4 or 6 workers, and positioning each
 * block's stream copy costs one skipNormals call.
 */
constexpr size_t kShapeBlocks = 12;

} // namespace

WindResourceModel::WindResourceModel(const WindModelParams &params)
    : params_(params)
{
    require(params.mean_speed_ms > 0.0, "mean wind speed must be positive");
    require(params.weibull_shape > 0.0, "Weibull shape must be positive");
    require(params.correlation_hours >= 1.0,
            "wind correlation time must be at least one hour");
    require(params.cut_in_ms < params.rated_ms &&
                params.rated_ms < params.cut_out_ms,
            "turbine speeds must satisfy cut-in < rated < cut-out");
    require(params.sub_farms >= 1, "need at least one sub-farm");
}

double
WindResourceModel::powerCurve(double speed_ms) const
{
    if (speed_ms < params_.cut_in_ms || speed_ms >= params_.cut_out_ms)
        return 0.0;
    if (speed_ms >= params_.rated_ms)
        return 1.0;
    // Cubic ramp in available kinetic power between cut-in and rated.
    const double v3 = speed_ms * speed_ms * speed_ms;
    const double vin3 =
        params_.cut_in_ms * params_.cut_in_ms * params_.cut_in_ms;
    const double vr3 = params_.rated_ms * params_.rated_ms * params_.rated_ms;
    return (v3 - vin3) / (vr3 - vin3);
}

double
WindResourceModel::latentToSpeed(double z, double scale) const
{
    // Probability-integral transform: z ~ N(0,1) -> u ~ U(0,1) ->
    // Weibull(k, scale) quantile.
    const double u =
        std::clamp(0.5 * std::erfc(-z / std::numbers::sqrt2),
                   1e-12, 1.0 - 1e-12);
    return scale * std::pow(-std::log1p(-u), 1.0 / params_.weibull_shape);
}

TimeSeries
WindResourceModel::generate(int year, uint64_t seed) const
{
    TimeSeries out(year);
    const HourlyCalendar &cal = out.calendar();
    Rng weather(seed, "wind-weather");
    Rng spatial(seed, "wind-spatial");

    const size_t hours = cal.hoursInYear();
    const double days = static_cast<double>(cal.daysInYear());

    // Weibull scale chosen so that the marginal mean speed equals
    // mean_speed_ms: E[V] = scale * Gamma(1 + 1/k).
    const double gamma_term =
        std::tgamma(1.0 + 1.0 / params_.weibull_shape);
    const double base_scale = params_.mean_speed_ms / gamma_term;

    // AR(1) latent weather with the requested correlation time.
    const double rho = std::exp(-1.0 / params_.correlation_hours);
    const double innovation_sd =
        params_.variability * std::sqrt(1.0 - rho * rho);

    // Sub-farm offsets: persistent perturbations representing
    // geographically spread farms seeing related but distinct weather.
    const int farms = params_.sub_farms;
    std::vector<double> farm_offset(static_cast<size_t>(farms));
    for (auto &off : farm_offset)
        off = spatial.normal(0.0, 0.5);

    // Serial draw. The AR(1) latent weather is parked in `out` (the
    // shaping pass overwrites each hour with its power), and a copy
    // of the spatial stream is taken at every block start, then moved
    // past the block's farms x hours perturbations without the
    // Box-Muller math.
    const auto blockBegin = [&](size_t b) {
        return b * hours / kShapeBlocks;
    };
    double z = 0.0;
    for (size_t h = 0; h < hours; ++h) {
        z = rho * z + weather.normal(0.0, innovation_sd);
        out[h] = z;
    }
    std::vector<Rng> block_spatial;
    block_spatial.reserve(kShapeBlocks);
    for (size_t b = 0; b < kShapeBlocks; ++b) {
        block_spatial.push_back(spatial);
        spatial.skipNormals(static_cast<uint64_t>(farms) *
                            (blockBegin(b + 1) - blockBegin(b)));
    }

    // Parallel shaping: each block runs the per-hour body on its own
    // stream copy, with the same expressions in the same order as a
    // serial pass, so the trace is bit-identical at any thread count.
    // The copy lives on the worker's stack: neighbouring Rngs in
    // block_spatial share a cache line, and advancing them in place
    // from two workers cost the whole 2-thread gain.
    parallelFor(0, kShapeBlocks, 1, [&](size_t b) {
        Rng block_rng = block_spatial[b];
        for (size_t h = blockBegin(b); h < blockBegin(b + 1); ++h) {
            const double z_h = out[h];
            const double day = static_cast<double>(h) / kHoursPerDayF;
            const double seasonal = 1.0 + params_.seasonal_amp *
                std::cos(2.0 * std::numbers::pi *
                         (day - params_.seasonal_peak_day) / days);
            const double hour_of_day =
                static_cast<double>(h % kHoursPerDay);
            const double diurnal = 1.0 + params_.diurnal_amp *
                std::cos(2.0 * std::numbers::pi * (hour_of_day - 2.0) /
                         kHoursPerDayF);
            const double scale = base_scale * seasonal * diurnal;

            double power = 0.0;
            for (int f = 0; f < farms; ++f) {
                const double zf =
                    z_h + farm_offset[static_cast<size_t>(f)] +
                    block_rng.normal(0.0, 0.18);
                power += powerCurve(latentToSpeed(zf, scale));
            }
            out[h] = std::max(power / static_cast<double>(farms),
                              params_.aggregate_floor);
        }
    });
    return out;
}

} // namespace carbonx
