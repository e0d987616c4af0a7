//===- support/FailPoint.cpp - Deterministic fault injection -----*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace clgen {
namespace support {

namespace {

/// FNV-1a over the site name, used as the site's stream id in the
/// Rng::split chain. Kept local: support/ must not depend on store/.
uint64_t siteStreamId(const char *Site) {
  uint64_t H = 1469598103934665603ull;
  for (const char *P = Site; *P; ++P) {
    H ^= static_cast<uint8_t>(*P);
    H *= 1099511628211ull;
  }
  return H;
}

struct SiteState {
  uint64_t Hits = 0;
  uint64_t Fires = 0;
  /// Evaluation count per key: the "n" in the (site, key, n) decision.
  std::map<uint64_t, uint64_t> KeyHits;
};

struct Registry {
  std::mutex Mutex;
  FailPlan Plan;
  std::map<std::string, SiteState> Sites;
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Whether a plan is armed. Written only under the registry lock, and
/// read without it by trip()'s disarmed fast path; constant-initialised,
/// so that read needs no static-init guard either.
std::atomic<bool> Armed{false};

/// trip() once a plan is seen armed. Kept out of line so the disarmed
/// path sets up no frame for the locked one.
[[gnu::noinline]] bool tripArmed(const char *Site, uint64_t Key) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  if (!Armed.load(std::memory_order_relaxed))
    return false;
  if (!R.Plan.Sites.empty() &&
      std::find(R.Plan.Sites.begin(), R.Plan.Sites.end(), Site) ==
          R.Plan.Sites.end())
    return false;
  SiteState &S = R.Sites[Site];
  ++S.Hits;
  uint64_t N = S.KeyHits[Key]++;
  // Pure function of (seed, site, key, n): scheduling-independent, and a
  // retry (n+1) re-rolls rather than re-failing forever.
  Rng Decision =
      Rng(R.Plan.Seed).split(siteStreamId(Site)).split(Key).split(N);
  bool Fire =
      Decision.uniform() < R.Plan.Probability && S.Fires < R.Plan.MaxFiresPerSite;
  if (Fire)
    ++S.Fires;
  return Fire;
}

} // namespace

void FailPoints::arm(const FailPlan &Plan) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Plan = Plan;
  R.Sites.clear();
  Armed.store(true, std::memory_order_release);
}

void FailPoints::disarm() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  Armed.store(false, std::memory_order_release);
  R.Sites.clear();
}

bool FailPoints::armed() { return Armed.load(std::memory_order_acquire); }

bool FailPoints::trip(const char *Site, uint64_t Key) {
  // Every build compiles every site in: disarmed, a site is this load.
  return Armed.load(std::memory_order_relaxed) && tripArmed(Site, Key);
}

bool FailPoints::stall(const char *Site, uint64_t Key) {
  if (!trip(Site, Key))
    return false;
  uint32_t Ms = 0;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    Ms = R.Plan.StallMs;
  }
  if (Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
  return true;
}

std::vector<FailPoints::SiteStats> FailPoints::stats() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::vector<SiteStats> Out;
  for (const auto &Entry : R.Sites)
    Out.push_back({Entry.first, Entry.second.Hits, Entry.second.Fires});
  return Out;
}

uint64_t FailPoints::totalFires() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  uint64_t Total = 0;
  for (const auto &Entry : R.Sites)
    Total += Entry.second.Fires;
  return Total;
}

} // namespace support
} // namespace clgen
