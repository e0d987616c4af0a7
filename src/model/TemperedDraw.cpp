//===- model/TemperedDraw.cpp - Temperature-adjusted token draws --------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/TemperedDraw.h"

#include <algorithm>
#include <cmath>

using namespace clgen;
using namespace clgen::model;

namespace {

/// Memoizing log-space temperature reweighting: w = exp(log(p)/T).
/// Smoothed distributions repeat one floor probability across most of
/// the vocabulary (bit-identically), so a single-entry memo collapses
/// nearly every exp/log pair; the few "real" probabilities each pay one.
struct TemperedWeight {
  double InvT;
  double LastP = -1.0;
  double LastW = 0.0;

  explicit TemperedWeight(double Temperature)
      : InvT(1.0 / (Temperature <= 0.0 ? 1e-3 : Temperature)) {}

  double operator()(double P) {
    if (P != LastP) {
      LastP = P;
      LastW = std::exp(std::log(P) * InvT);
    }
    return LastW;
  }
};

} // namespace

int model::drawToken(const std::vector<double> &Dist, double Temperature,
                     Rng &R) {
  // Cumulative (inverse-CDF) sampling from the p^(1/T) distribution in
  // two memoized passes — no pow() storm and no intermediate weight
  // vector. Exactly one uniform draw per emitted token keeps the RNG
  // stream advance independent of the distribution's content.
  TemperedWeight Weight(Temperature);
  double Sum = 0.0;
  for (double P : Dist)
    if (P > 0.0)
      Sum += Weight(P);
  double Target = R.uniform() * Sum;
  if (Dist.empty() || Sum <= 0.0 || !std::isfinite(Sum))
    return Vocabulary::EndOfText;
  double Running = 0.0;
  int Last = Vocabulary::EndOfText;
  for (size_t I = 0; I < Dist.size(); ++I) {
    double P = Dist[I];
    if (P <= 0.0)
      continue;
    Running += Weight(P);
    Last = static_cast<int>(I);
    if (Target < Running)
      return Last;
  }
  // Floating-point shortfall at the tail: return the last nonzero entry.
  return Last;
}

void TemperedCdfMemo::clear() {
  SlotOf.clear();
  Cdfs.clear();
  Checkpoints.clear();
  Entries.clear();
}

TemperedCdfMemo::Cdf TemperedCdfMemo::build(double Temperature) {
  TemperedWeight Weight(Temperature);
  Cdf C;
  C.Size = static_cast<uint32_t>(Dist.size());
  C.FirstCheckpoint = static_cast<uint32_t>(Checkpoints.size());
  C.FirstEntry = static_cast<uint32_t>(Entries.size());
  // Every entry equal to the minimum shares one weight; an entry with
  // p <= 0 (or NaN) weighs 0, which drawToken skips and a re-add of
  // +0.0 leaves bit-identical.
  double FloorP = Dist.empty() ? 0.0 : *std::min_element(Dist.begin(),
                                                          Dist.end());
  C.FloorWeight = FloorP > 0.0 ? Weight(FloorP) : 0.0;
  // drawToken's first pass: the same additions in the same order.
  double Running = 0.0;
  for (size_t I = 0; I < Dist.size(); ++I) {
    if (I != 0 && I % BlockSize == 0)
      Checkpoints.push_back(Running);
    double P = Dist[I];
    bool OnFloor = P == FloorP;
    double W = OnFloor ? C.FloorWeight : P > 0.0 ? Weight(P) : 0.0;
    if (!OnFloor)
      Entries.push_back({W, static_cast<uint32_t>(I)});
    if (P > 0.0) {
      Running += W;
      C.Last = static_cast<int32_t>(I);
    }
  }
  C.EntryCount = static_cast<uint32_t>(Entries.size()) - C.FirstEntry;
  C.Total = Running;
  return C;
}

int TemperedCdfMemo::drawFrom(const Cdf &C, Rng &R) const {
  // drawToken's order: the one uniform comes first, whatever the CDF.
  double Target = R.uniform() * C.Total;
  if (C.Size == 0 || C.Total <= 0.0 || !std::isfinite(C.Total))
    return Vocabulary::EndOfText;
  // The running sums never decrease, so the first entry whose sum
  // exceeds the target lies in the first block whose closing sum does.
  const double *Starts = Checkpoints.data() + C.FirstCheckpoint;
  size_t Blocks = (C.Size + BlockSize - 1) / BlockSize;
  size_t B = 0;
  while (B + 1 < Blocks && !(Target < Starts[B]))
    ++B;
  double Running = B == 0 ? 0.0 : Starts[B - 1];
  size_t I = B * BlockSize;
  size_t Stop = std::min<size_t>(I + BlockSize, C.Size);
  const Entry *E = Entries.data() + C.FirstEntry;
  const Entry *End = E + C.EntryCount;
  while (E != End && E->Index < I)
    ++E;
  for (; I < Stop; ++I) {
    double W = C.FloorWeight;
    if (E != End && E->Index == I)
      W = (E++)->Weight;
    Running += W;
    if (Target < Running)
      return static_cast<int>(I);
  }
  // The target reached the total: drawToken's tail fallback.
  return C.Last;
}
