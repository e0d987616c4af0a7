//===- suites/Runner.h - Catalogue measurement harness -----------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures every (kernel, dataset) pair of a benchmark catalogue on a
/// simulated platform, producing the Observation records the predictive
/// models train and evaluate on (section 7.2: "Each experiment is
/// repeated five times and the average execution time is recorded" — our
/// simulator is deterministic, so a single execution suffices and the
/// repetition count is not modelled).
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUITES_RUNNER_H
#define CLGEN_SUITES_RUNNER_H

#include "predict/Evaluation.h"
#include "runtime/HostDriver.h"
#include "suites/Catalogue.h"

#include <vector>

namespace clgen {
namespace suites {

struct RunnerOptions {
  /// Work-group sampling cap per launch (counters are rescaled).
  size_t MaxSimulatedGroups = 24;
  uint64_t Seed = 0x5EEDCAFE;
};

/// Runs every kernel x dataset of \p Catalogue on \p P. Returns one
/// observation per successful run, in catalogue order; a kernel that
/// fails to compile, or a run that fails, is skipped with a warning on
/// stderr.
std::vector<predict::Observation>
measureCatalogue(const std::vector<BenchmarkKernel> &Catalogue,
                 const runtime::Platform &P,
                 const RunnerOptions &Opts = RunnerOptions());

} // namespace suites
} // namespace clgen

#endif // CLGEN_SUITES_RUNNER_H
