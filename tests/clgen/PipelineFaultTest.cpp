//===- tests/clgen/PipelineFaultTest.cpp - refill + ledger pipeline tests -----===//
//
// The fault-tolerant side of core::synthesizeAndMeasure: the refill
// contract (failed kernels excised, replacements drawn by resuming the
// deterministic sampling cursor, surviving pairs byte-identical to a
// fault-free run at the same accept indices), the exactly-once
// accounting invariant, worker-count invariance under refill and the
// streaming failure-ledger round trip. The full acceptance scenario
// with every failpoint site class armed is in
// tests/failpoints/PipelineFaultInjectionTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "PipelineFaultFixtures.h"

#include "store/FailureLedger.h"
#include "store/ResultCache.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::core;
using namespace clgen::faulttest;

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
  ScratchDir Dir("stream_ledger");

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
