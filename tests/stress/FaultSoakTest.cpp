//===- tests/stress/FaultSoakTest.cpp - randomized fault-injection soak -------===//
//
// Soaks the fault-tolerant streaming pipeline (refill + cache + ledger,
// multiple measurement workers) under randomized failpoint schedules:
// every round arms a different plan seed so faults land at different
// sites, counts and interleavings, and the suite asserts the invariants
// that must hold under EVERY schedule — the run terminates (no hang),
// refill accounting is exactly-once, surviving measurements all
// succeeded, and the store directory never holds a torn entry (every
// file is either a structurally-sound archive or an in-flight temp
// file).
//
// Registered under the ctest label "stress"; the sanitizer matrix runs
// it via `ctest -L stress` in -DCLGS_SANITIZE trees, which is what
// makes the multi-worker rounds TSan coverage.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "../TestUtil.h"
#include "githubsim/GithubSim.h"
#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

using namespace clgen;
using namespace clgen::core;
using testutil::ArmedPlan;
using testutil::ScratchDir;

namespace {

/// Every persisted file must be whole: a structurally-sound archive
/// (magic, version, checksum) or a leftover atomic-rename temp. A file
/// that is neither is a torn write — exactly what the injection rounds
/// try to produce and the store must never exhibit.
void expectNoTornEntries(const std::filesystem::path &Root) {
  std::error_code Ec;
  for (auto It = std::filesystem::recursive_directory_iterator(Root, Ec);
       !Ec && It != std::filesystem::recursive_directory_iterator(); ++It) {
    if (!It->is_regular_file())
      continue;
    const std::filesystem::path &File = It->path();
    if (File.extension() != ".clgs")
      continue; // Temp/lock files may be mid-write by design.
    auto Info = store::inspectArchive(File.string());
    EXPECT_TRUE(Info.ok()) << "torn store entry: " << File << ": "
                           << Info.errorMessage();
  }
}

void expectExactlyOnceAccounting(const StreamingResult &Out) {
  EXPECT_EQ(Out.Kernels.size(), Out.Measurements.size());
  EXPECT_EQ(Out.Stats.Accepted, Out.Kernels.size() + Out.Excised.size());
  for (const auto &M : Out.Measurements)
    EXPECT_TRUE(M.ok()) << M.errorMessage();
  std::set<size_t> Seen;
  for (const ExcisedKernel &E : Out.Excised) {
    EXPECT_TRUE(Seen.insert(E.AcceptIndex).second);
    EXPECT_NE(E.Kind, TrapKind::None);
  }
}

} // namespace

TEST(FaultSoakTest, RandomizedSchedulesNeverHangOrTearTheStore) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  PipelineOptions POpts;
  POpts.NGram.Order = 8;
  ClgenPipeline Pipeline = ClgenPipeline::train(Files, POpts);

  ScratchDir Dir("clgen_fault_soak_", "injected");

  StreamingOptions Base;
  // Target 8 spans several natural deterministic out-of-bounds traps in
  // this model's accept stream, so refill also meets real failures.
  Base.Synthesis.TargetKernels = 8;
  Base.Synthesis.MaxAttempts = 30000;
  Base.Synthesis.Workers = 2;
  Base.Driver.GlobalSize = 2048;
  Base.Driver.MaxRetries = 2;
  Base.RefillFailures = true;
  Base.MeasureWorkers = 4;
  Base.QueueCapacity = 2;

  for (size_t Round = 0; Round < 8; ++Round) {
    // A different seed per round randomizes which sites fire, at which
    // keys and evaluation counts; the fire cap bounds every schedule so
    // the refill loop always has a fault-free tail.
    support::FailPlan Plan;
    Plan.Seed = 0x50AC + Round * 7919;
    Plan.Probability = Round % 2 ? 0.25 : 0.08;
    Plan.MaxFiresPerSite = 40;
    Plan.StallMs = 20;

    store::ResultCache Cache(Dir.str() + "/results");
    store::FailureLedger Ledger(Dir.str() + "/failures");
    StreamingOptions Opts = Base;
    Opts.Cache = &Cache;
    Opts.Ledger = &Ledger;
    Opts.Driver.WatchdogMs = 10;

    StreamingResult Out = [&] {
      ArmedPlan Armed(Plan);
      return Pipeline.synthesizeAndMeasure(runtime::amdPlatform(), Opts);
    }();

    expectExactlyOnceAccounting(Out);
    EXPECT_EQ(Out.Kernels.size(), Base.Synthesis.TargetKernels)
        << "round " << Round << " stopped short of the target";
    expectNoTornEntries(Dir.path());
  }

  // The shared directories survived every schedule: the ledger listing
  // parses and replays, and a final clean run is served from the store
  // without measuring anything new.
  auto Records = store::listFailures(Dir.str() + "/failures");
  for (const auto &[Key, Rec] : Records) {
    EXPECT_TRUE(isDeterministicTrap(Rec.Kind))
        << "non-deterministic kind persisted: " << trapKindName(Rec.Kind);
    EXPECT_FALSE(Rec.Detail.empty());
  }
  store::ResultCache Cache(Dir.str() + "/results");
  store::FailureLedger Ledger(Dir.str() + "/failures");
  StreamingOptions Clean = Base;
  Clean.Cache = &Cache;
  Clean.Ledger = &Ledger;
  StreamingResult Final =
      Pipeline.synthesizeAndMeasure(runtime::amdPlatform(), Clean);
  expectExactlyOnceAccounting(Final);
  EXPECT_EQ(Final.CacheStats.Misses, 0u)
      << "after the soak every kernel in the accept range is either "
         "cached or ledgered";
}
