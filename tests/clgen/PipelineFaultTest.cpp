//===- tests/clgen/PipelineFaultTest.cpp - refill + ledger pipeline tests -----===//
//
// The fault-tolerant side of core::synthesizeAndMeasure: the refill
// contract (failed kernels excised, replacements drawn by resuming the
// deterministic sampling cursor, surviving pairs byte-identical to a
// fault-free run at the same accept indices), the exactly-once
// accounting invariant, worker-count invariance under refill, the
// streaming failure-ledger round trip, and the full acceptance scenario
// with every failpoint site class armed.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "../TestUtil.h"
#include "githubsim/GithubSim.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"

#include <gtest/gtest.h>

#include <set>

using namespace clgen;
using namespace clgen::core;
using testutil::ArmedPlan;
using testutil::counterValue;
using testutil::ScratchDir;

namespace {

std::vector<uint8_t> measurementBytes(const Result<runtime::Measurement> &M) {
  store::ArchiveWriter W(store::ArchiveKind::Measurement);
  W.writeBool(M.ok());
  if (M.ok())
    store::serializeMeasurement(W, M.get());
  else
    W.writeString(M.errorMessage());
  return W.finalize();
}

struct FaultWorkload {
  std::unique_ptr<ClgenPipeline> Pipeline;
  StreamingOptions Opts;
  runtime::Platform P = runtime::amdPlatform();
};

/// Shared workload for the refill tests. Roughly a quarter of the
/// kernels this model synthesizes trap with a deterministic
/// out-of-bounds access at measurement time (the first at accept index
/// 5), which is what gives the refill pass real work without any
/// injection — so targets here are kept >= 6.
FaultWorkload makeFaultWorkload(size_t TargetKernels) {
  FaultWorkload W;
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  PipelineOptions POpts;
  POpts.NGram.Order = 8;
  W.Pipeline = std::make_unique<ClgenPipeline>(
      ClgenPipeline::train(Files, POpts));
  W.Opts.Synthesis.TargetKernels = TargetKernels;
  W.Opts.Synthesis.MaxAttempts = 20000;
  W.Opts.Driver.GlobalSize = 2048;
  W.Opts.MeasureWorkers = 2;
  return W;
}

/// Reconstructs the accept indices of the surviving kernels: accept
/// order minus the excised indices.
std::vector<size_t> survivorIndices(const StreamingResult &Out) {
  std::set<size_t> Excised;
  for (const ExcisedKernel &E : Out.Excised)
    Excised.insert(E.AcceptIndex);
  std::vector<size_t> Indices;
  for (size_t I = 0; I < Out.Stats.Accepted; ++I)
    if (!Excised.count(I))
      Indices.push_back(I);
  return Indices;
}

/// The exactly-once refill contract: every accepted kernel either
/// survives with a successful measurement or appears in Excised with a
/// classified cause — never both, never neither.
void expectRefillInvariants(const StreamingResult &Out) {
  EXPECT_EQ(Out.Kernels.size(), Out.Measurements.size());
  EXPECT_EQ(Out.Stats.Accepted, Out.Kernels.size() + Out.Excised.size());
  for (const auto &M : Out.Measurements)
    EXPECT_TRUE(M.ok()) << "refill must excise every failed measurement: "
                        << M.errorMessage();
  std::set<size_t> Seen;
  for (const ExcisedKernel &E : Out.Excised) {
    EXPECT_TRUE(Seen.insert(E.AcceptIndex).second)
        << "accept index excised twice: " << E.AcceptIndex;
    EXPECT_LT(E.AcceptIndex, Out.Stats.Accepted);
    EXPECT_NE(E.Kind, TrapKind::None);
    EXPECT_FALSE(E.Error.empty());
    EXPECT_FALSE(E.Source.empty());
  }
}

} // namespace

TEST(PipelineFaultTest, RefillExcisesFailuresAndMatchesFaultFreeRun) {
  FaultWorkload W = makeFaultWorkload(/*TargetKernels=*/6);

  StreamingOptions Refill = W.Opts;
  Refill.RefillFailures = true;
  StreamingResult Out = W.Pipeline->synthesizeAndMeasure(W.P, Refill);
  expectRefillInvariants(Out);
  ASSERT_GT(Out.Excised.size(), 0u)
      << "workload produced no failures; the refill test is vacuous — "
         "lower the acceptance rate";
  ASSERT_EQ(Out.Kernels.size(), 6u)
      << "refill must reach the full target while attempts remain";

  // Reference: a fault-free classic run over the same accept-index
  // range. Every surviving (kernel, measurement) pair must be
  // byte-identical at its accept index — the refill pass may excise and
  // extend, but never perturb.
  StreamingOptions Ref = W.Opts;
  Ref.Synthesis.TargetKernels = Out.Stats.Accepted;
  StreamingResult RefOut = W.Pipeline->synthesizeAndMeasure(W.P, Ref);
  ASSERT_EQ(RefOut.Kernels.size(), Out.Stats.Accepted);

  std::vector<size_t> Indices = survivorIndices(Out);
  ASSERT_EQ(Indices.size(), Out.Kernels.size());
  for (size_t J = 0; J < Indices.size(); ++J) {
    size_t I = Indices[J];
    EXPECT_EQ(Out.Kernels[J].Source, RefOut.Kernels[I].Source)
        << "survivor " << J << " is not the accept-order kernel " << I;
    EXPECT_EQ(measurementBytes(Out.Measurements[J]),
              measurementBytes(RefOut.Measurements[I]))
        << "measurement for accept index " << I << " diverged";
  }
  // And the excised kernels are exactly the reference's failures.
  for (const ExcisedKernel &E : Out.Excised) {
    ASSERT_LT(E.AcceptIndex, RefOut.Measurements.size());
    EXPECT_FALSE(RefOut.Measurements[E.AcceptIndex].ok());
    EXPECT_EQ(E.Error,
              RefOut.Measurements[E.AcceptIndex].errorMessage());
    EXPECT_EQ(E.Kind, RefOut.Measurements[E.AcceptIndex].trap());
  }
}

TEST(PipelineFaultTest, RefillIsWorkerCountInvariant) {
  FaultWorkload W = makeFaultWorkload(/*TargetKernels=*/8);
  StreamingOptions Opts = W.Opts;
  Opts.RefillFailures = true;

  auto Canonical = [](const StreamingResult &Out) {
    store::ArchiveWriter A(store::ArchiveKind::Synthesis);
    A.writeU64(Out.Stats.Accepted);
    A.writeU64(Out.Kernels.size());
    for (const auto &K : Out.Kernels)
      A.writeString(K.Source);
    for (const auto &M : Out.Measurements) {
      A.writeBool(M.ok());
      if (M.ok())
        store::serializeMeasurement(A, M.get());
    }
    A.writeU64(Out.Excised.size());
    for (const ExcisedKernel &E : Out.Excised) {
      A.writeU64(E.AcceptIndex);
      A.writeString(E.Source);
      A.writeU8(static_cast<uint8_t>(E.Kind));
      A.writeString(E.Error);
    }
    return A.finalize();
  };

  Opts.MeasureWorkers = 1;
  Opts.Synthesis.Workers = 1;
  std::vector<uint8_t> RefBytes =
      Canonical(W.Pipeline->synthesizeAndMeasure(W.P, Opts));
  for (unsigned MeasureWorkers : {2u, 4u}) {
    for (unsigned SynthWorkers : {1u, 2u}) {
      Opts.MeasureWorkers = MeasureWorkers;
      Opts.Synthesis.Workers = SynthWorkers;
      Opts.QueueCapacity = 1 + MeasureWorkers;
      StreamingResult Out = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
      expectRefillInvariants(Out);
      EXPECT_EQ(Canonical(Out), RefBytes)
          << "refill diverged at measure=" << MeasureWorkers
          << " synth=" << SynthWorkers;
    }
  }
}

TEST(PipelineFaultTest, StreamingLedgerRecordsAndReplays) {
  FaultWorkload W = makeFaultWorkload(/*TargetKernels=*/6);
  ScratchDir Dir("clgen_fault_test_", "stream_ledger");

  // Run 1: cold cache + cold ledger. Deterministic failures (the
  // natural out-of-bounds traps) are recorded.
  store::ResultCache Cache1(Dir.str() + "/results");
  store::FailureLedger Ledger1(Dir.str() + "/failures");
  StreamingOptions Opts = W.Opts;
  Opts.Cache = &Cache1;
  Opts.Ledger = &Ledger1;
  StreamingResult Run1 = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
  size_t Failures = 0;
  for (const auto &M : Run1.Measurements)
    Failures += M.ok() ? 0 : 1;
  ASSERT_GT(Failures, 0u)
      << "workload produced no failures; the ledger test is vacuous";
  EXPECT_EQ(Run1.CacheStats.Hits, 0u);
  EXPECT_EQ(Run1.CacheStats.LedgerHits, 0u);
  EXPECT_EQ(Run1.CacheStats.LedgerRecords, Failures)
      << "every out-of-bounds trap is deterministic, so every failure "
         "must be recorded";

  // Run 2: fresh store objects over the same directories. Successes are
  // cache hits, failures are ledger negative hits, nothing is measured,
  // and the output — including replayed diagnostics — is byte-identical.
  store::ResultCache Cache2(Dir.str() + "/results");
  store::FailureLedger Ledger2(Dir.str() + "/failures");
  Opts.Cache = &Cache2;
  Opts.Ledger = &Ledger2;
  StreamingResult Run2 = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
  EXPECT_EQ(Run2.CacheStats.Hits, Run1.Measurements.size() - Failures);
  EXPECT_EQ(Run2.CacheStats.LedgerHits, Failures);
  EXPECT_EQ(Run2.CacheStats.Misses, 0u);
  EXPECT_EQ(Run2.CacheStats.LedgerRecords, 0u);
  ASSERT_EQ(Run2.Measurements.size(), Run1.Measurements.size());
  for (size_t I = 0; I < Run1.Measurements.size(); ++I)
    EXPECT_EQ(measurementBytes(Run2.Measurements[I]),
              measurementBytes(Run1.Measurements[I]))
        << "replay diverged at accept index " << I;

  // Refill + warm ledger: known-bad kernels are excised without ever
  // being measured (FromLedger), and the target is still met.
  store::ResultCache Cache3(Dir.str() + "/results");
  store::FailureLedger Ledger3(Dir.str() + "/failures");
  Opts.Cache = &Cache3;
  Opts.Ledger = &Ledger3;
  Opts.RefillFailures = true;
  StreamingResult Run3 = W.Pipeline->synthesizeAndMeasure(W.P, Opts);
  expectRefillInvariants(Run3);
  EXPECT_EQ(Run3.Kernels.size(), W.Opts.Synthesis.TargetKernels);
  size_t FromLedger = 0;
  for (const ExcisedKernel &E : Run3.Excised)
    FromLedger += E.FromLedger ? 1 : 0;
  EXPECT_EQ(FromLedger, Failures)
      << "every previously-recorded failure must be excised as a "
         "ledger negative hit, not re-measured";
}

TEST(PipelineFaultTest, RefillSurvivesFaultsAtEverySiteClass) {
  FaultWorkload W = makeFaultWorkload(/*TargetKernels=*/40);
  // The accept rate at this model configuration is ~0.06%, and the
  // armed run below excises both the natural deterministic traps and up
  // to 25 watchdog-killed stalls, so the budget must cover well past 90
  // accepts for refill to reach the full target under every schedule.
  W.Opts.Synthesis.MaxAttempts = 250000;
  ScratchDir Dir("clgen_fault_test_", "acceptance");

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

  store::ResultCache Cache(Dir.str() + "/results");
  store::FailureLedger Ledger(Dir.str() + "/failures");
  StreamingOptions Armed = W.Opts;
  Armed.RefillFailures = true;
  Armed.Cache = &Cache;
  Armed.Ledger = &Ledger;
  Armed.Driver.WatchdogMs = 10; // Stalled launches die as timeouts.
  Armed.Driver.MaxRetries = 3;
  Armed.MeasureWorkers = 4;
  uint64_t WriteFailuresBefore = counterValue("clgen.ledger.write_failures");
  StreamingResult Out = [&] {
    ArmedPlan Scope(Plan);
    return W.Pipeline->synthesizeAndMeasure(W.P, Armed);
  }();

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
  EXPECT_LE(Missing,
            counterValue("clgen.ledger.write_failures") - WriteFailuresBefore)
      << "ledger entries missing beyond the injected write failures";
  EXPECT_GT(Deterministic - Missing, 0u)
      << "no classified record survived to the ledger";
}
