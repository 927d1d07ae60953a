/**
 * @file
 * Seeded layering violation for the lint WILL_FAIL test. The fixture
 * lives under a `src/obs/` path on purpose: classify() assigns it the
 * obs layer, so its quoted includes are held to the obs edge set
 * (obs may depend only on common). Never compiled — linted only.
 */

#ifndef CARBONX_TESTS_LINT_FIXTURES_SRC_OBS_LAYERING_VIOLATIONS_H
#define CARBONX_TESTS_LINT_FIXTURES_SRC_OBS_LAYERING_VIOLATIONS_H

#include "common/units.h"                 // OK: obs -> common
#include "scheduler/batched_engine.h"     // VIOLATION: obs -> scheduler

#endif // CARBONX_TESTS_LINT_FIXTURES_SRC_OBS_LAYERING_VIOLATIONS_H
