//===- support/FailPoint.h - Deterministic fault injection -------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic failpoint framework. Named injection sites are scattered
/// through the pipeline (interpreter traps, payload generation, channel
/// producer/consumer, store I/O, lock acquisition) behind the
/// CLGS_FAILPOINT macros. Every build compiles every site in; while no
/// plan is armed a site costs one relaxed atomic load and takes no lock.
///
/// Injection is *bit-reproducible*: whether the n-th evaluation of a
/// (site, key) pair trips is a pure function of (plan seed, site name,
/// key, n), derived through Rng::split chains. Thread scheduling cannot
/// change any stream's decisions, and because the per-pair hit counter
/// advances on every evaluation, a retry of a tripped operation sees a
/// fresh decision and can clear — exactly the behavior the retry layer
/// needs to converge.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUPPORT_FAILPOINT_H
#define CLGEN_SUPPORT_FAILPOINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace clgen {
namespace support {

/// One armed injection schedule. Deterministic: two runs armed with the
/// same plan make identical trip decisions for identical (site, key,
/// evaluation-count) triples.
struct FailPlan {
  /// Root of the Rng::split chain that keys every decision.
  uint64_t Seed = 0;
  /// Probability in [0, 1] that any single evaluation trips.
  double Probability = 0.0;
  /// Upper bound on total fires per site; ~0ull means unbounded.
  uint64_t MaxFiresPerSite = ~0ull;
  /// How long a tripped stall site sleeps, bounded so that runs without
  /// a watchdog still terminate.
  uint32_t StallMs = 10;
  /// Restrict injection to these exact site names; empty = all sites.
  std::vector<std::string> Sites;
};

/// Global failpoint registry. All members are thread-safe.
class FailPoints {
public:
  /// Installs \p Plan and resets all per-site counters.
  static void arm(const FailPlan &Plan);

  /// Removes any armed plan and resets all per-site counters.
  static void disarm();

  /// True when a plan is armed.
  static bool armed();

  /// The decision procedure behind the CLGS_FAILPOINT macros: records a
  /// hit for (\p Site, \p Key) and returns true when this evaluation
  /// trips under the armed plan. Always false when disarmed, and then it
  /// reads one atomic and returns without taking the registry lock.
  static bool trip(const char *Site, uint64_t Key = 0);

  /// Trips like trip(), and on a trip sleeps for the plan's StallMs
  /// before returning — models a hung worker for the watchdog to catch.
  /// Returns whether it stalled.
  static bool stall(const char *Site, uint64_t Key = 0);

  /// Hit/fire counts for one site since the last arm()/disarm().
  struct SiteStats {
    std::string Site;
    uint64_t Hits = 0;
    uint64_t Fires = 0;
  };

  /// Per-site counters, sorted by site name.
  static std::vector<SiteStats> stats();

  /// Total fires across all sites since the last arm()/disarm().
  static uint64_t totalFires();
};

} // namespace support
} // namespace clgen

/// Site macros. Use as `if (CLGS_FAILPOINT("store.write")) { <fail> }`.
/// CLGS_FAILPOINT_KEYED threads a stable identity (accept index, cache
/// key) into the decision so per-item streams are scheduling-independent.
/// CLGS_FAILPOINT_STALL is a statement, `CLGS_FAILPOINT_STALL(SITE, KEY);`,
/// with no value.
#define CLGS_FAILPOINT(SITE) (::clgen::support::FailPoints::trip(SITE))
#define CLGS_FAILPOINT_KEYED(SITE, KEY)                                        \
  (::clgen::support::FailPoints::trip(SITE, (KEY)))
#define CLGS_FAILPOINT_STALL(SITE, KEY)                                        \
  ((void)::clgen::support::FailPoints::stall(SITE, (KEY)))

#endif // CLGEN_SUPPORT_FAILPOINT_H
