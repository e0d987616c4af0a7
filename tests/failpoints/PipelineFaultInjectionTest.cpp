//===- tests/failpoints/PipelineFaultInjectionTest.cpp - armed refill -----===//
//
// The refill acceptance scenario with every failpoint site class armed:
// launch faults, stalls under a watchdog, payload faults,
// producer/consumer pipeline faults, store/ledger I/O faults and lock
// losses. Builds into clgen_failpoint_tests, which links a library with
// the sites compiled in.
//
//===----------------------------------------------------------------------===//

#include "../clgen/PipelineFaultFixtures.h"

#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::core;
using namespace clgen::faulttest;

TEST(PipelineFaultTest, RefillSurvivesFaultsAtEverySiteClass) {
  ASSERT_TRUE(support::FailPoints::sitesCompiledIn())
      << "clgen_failpoint_tests must link a library with the sites in";

  FaultWorkload W = makeFaultWorkload(/*TargetKernels=*/40);
  // The accept rate at this model configuration is ~0.06%, and the
  // armed run below excises both the natural deterministic traps and up
  // to 25 watchdog-killed stalls, so the budget must cover well past 90
  // accepts for refill to reach the full target under every schedule.
  W.Opts.Synthesis.MaxAttempts = 250000;
  ScratchDir Dir("acceptance");

  // Fault-free refill reference first (also warms nothing: no stores).
  StreamingOptions Clean = W.Opts;
  Clean.RefillFailures = true;
  StreamingResult Ref = W.Pipeline->synthesizeAndMeasure(W.P, Clean);
  ASSERT_EQ(Ref.Kernels.size(), 40u);

  // Armed run: every site class can fire — launch faults, stalls under
  // a watchdog, payload faults, producer/consumer pipeline faults,
  // store/ledger I/O faults and lock losses. The per-site fire cap
  // guarantees the schedule eventually dries up, so refill MUST reach
  // the full target.
  support::FailPlan Plan;
  Plan.Seed = 0xFA17;
  Plan.Probability = 0.10;
  Plan.MaxFiresPerSite = 25;
  Plan.StallMs = 30;
  support::FailPoints::arm(Plan);

  store::ResultCache Cache(Dir.str() + "/results");
  store::FailureLedger Ledger(Dir.str() + "/failures");
  StreamingOptions Armed = W.Opts;
  Armed.RefillFailures = true;
  Armed.Cache = &Cache;
  Armed.Ledger = &Ledger;
  Armed.Driver.WatchdogMs = 10; // Stalled launches die as timeouts.
  Armed.Driver.MaxRetries = 3;
  Armed.MeasureWorkers = 4;
  StreamingResult Out = W.Pipeline->synthesizeAndMeasure(W.P, Armed);
  support::FailPoints::disarm();

  expectRefillInvariants(Out);
  EXPECT_EQ(Out.Kernels.size(), 40u)
      << "the bounded fault schedule must not stop refill short";

  // Surviving pairs are byte-identical to the fault-free run at the
  // same accept indices — injection may excise, never perturb.
  std::vector<size_t> Indices = survivorIndices(Out);
  ASSERT_EQ(Indices.size(), Out.Kernels.size());
  StreamingOptions Wide = W.Opts;
  Wide.Synthesis.TargetKernels = Out.Stats.Accepted;
  StreamingResult WideRef = W.Pipeline->synthesizeAndMeasure(W.P, Wide);
  ASSERT_GE(WideRef.Kernels.size(), Out.Stats.Accepted);
  for (size_t J = 0; J < Indices.size(); ++J) {
    size_t I = Indices[J];
    EXPECT_EQ(Out.Kernels[J].Source, WideRef.Kernels[I].Source);
    EXPECT_EQ(measurementBytes(Out.Measurements[J]),
              measurementBytes(WideRef.Measurements[I]))
        << "accept index " << I << " diverged under injection";
  }

  // Excisions are classified, and every deterministic one that was
  // actually measured this run is in the ledger — minus the records the
  // armed ledger.write site deliberately dropped (ledger writes are
  // best-effort by design; a lost record only costs a re-measurement).
  EXPECT_GT(Out.Excised.size(), 0u) << "no faults landed; raise p";
  size_t Deterministic = 0, Missing = 0;
  for (const ExcisedKernel &E : Out.Excised) {
    EXPECT_NE(E.Kind, TrapKind::None);
    if (isDeterministicTrap(E.Kind) && !E.FromLedger) {
      ++Deterministic;
      if (!Ledger.lookup(E.Key).has_value())
        ++Missing;
    }
  }
  EXPECT_GT(Deterministic, 0u) << "no deterministic traps under injection";
  EXPECT_LE(Missing, Ledger.stats().WriteFailures)
      << "ledger entries missing beyond the injected write failures";
  EXPECT_GT(Deterministic - Missing, 0u)
      << "no classified record survived to the ledger";
}
