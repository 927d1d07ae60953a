/**
 * @file
 * Umbrella header: include everything the Carbon Explorer framework
 * exposes. Fine for applications; library code should include the
 * specific headers it needs.
 */

#ifndef CARBONX_CARBONX_H
#define CARBONX_CARBONX_H

// Common utilities.
#include "common/csv.h"
#include "common/error.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

// Observability: metrics, tracing, live sweep status.
#include "obs/metrics.h"
#include "obs/status.h"
#include "obs/trace.h"

// Time series.
#include "timeseries/calendar.h"
#include "timeseries/timeseries.h"

// Forecasting.
#include "forecast/forecaster.h"

// Grid synthesis.
#include "grid/balancing_authority.h"
#include "grid/curtailment.h"
#include "grid/fuels.h"
#include "grid/generation_mix.h"
#include "grid/grid_synthesizer.h"
#include "grid/pricing.h"
#include "grid/solar_model.h"
#include "grid/wind_model.h"

// Datacenter models.
#include "datacenter/load_model.h"
#include "datacenter/server_fleet.h"
#include "datacenter/site.h"
#include "datacenter/workload.h"

// Energy storage.
#include "battery/battery_stats.h"
#include "battery/chemistry.h"

// Scheduling and simulation.
#include "scheduler/batched_engine.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/simulation_batch.h"
#include "scheduler/tiered_scheduler.h"

// Carbon accounting.
#include "carbon/embodied.h"
#include "carbon/horizon.h"
#include "carbon/operational.h"

// Fleet.
#include "fleet/fleet.h"

// Design-space exploration.
#include "core/coverage.h"
#include "core/design_point.h"
#include "core/design_space.h"
#include "core/explorer.h"
#include "core/pareto.h"
#include "core/report.h"
#include "core/robustness.h"
#include "core/sensitivity.h"

// Declarative scenarios.
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

#endif // CARBONX_CARBONX_H
