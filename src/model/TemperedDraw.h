//===- model/TemperedDraw.h - Temperature-adjusted token draws ---*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one owner of the sampler's tempered-draw arithmetic. drawToken is
/// the reference draw from a next-token distribution; TemperedCdfMemo
/// memoizes the same draw per key for a model whose distribution is a
/// pure function of a small integer (the n-gram's trie node). Both add
/// the same weights in the same order, so from the same RNG bits they
/// return the same token.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_TEMPEREDDRAW_H
#define CLGEN_MODEL_TEMPEREDDRAW_H

#include "model/Vocabulary.h"
#include "support/Rng.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace clgen {
namespace model {

/// Temperature-adjusted draw from a probability distribution:
/// inverse-CDF sampling over the log-space reweighted values
/// w_i = exp(log(p_i)/T), computed in two memoized passes with no
/// intermediate weight vector and no per-token pow() (smoothed
/// distributions repeat one floor probability, so almost every entry
/// hits the memo). A temperature <= 0 draws at T = 1e-3. Exactly one
/// uniform is drawn from \p R per call, keeping the stream advance
/// independent of the distribution's content. An empty or all-zero
/// distribution yields Vocabulary::EndOfText (the sampler then treats
/// the sample as complete or rejects it) rather than silently picking
/// token 0.
int drawToken(const std::vector<double> &Dist, double Temperature, Rng &R);

/// drawToken memoized per dense integer key (the n-gram's trie node), at
/// one temperature. For each key it keeps a compact tempered CDF: the
/// floor weight (shared by every entry at the distribution's minimum
/// probability), the other entries as (index, weight) pairs, the total,
/// the last index with p > 0, and the running sum before every block of
/// BlockSize entries. A draw takes one uniform, finds its block by those
/// checkpoints and re-adds at most BlockSize weights from the block's
/// checkpoint. The checkpoints and the re-adds follow drawToken's
/// summation order, so every running sum compared against the target has
/// drawToken's bits, and the draw returns drawToken's token and leaves
/// the generator in drawToken's state.
///
/// A memo belongs to one model instance. It is never carried to a copy,
/// a temperature change clears it, and it is never serialized or hashed
/// into a key. Its slot table is indexed by key, so it is bounded by the
/// largest key drawn: the model's node count.
class TemperedCdfMemo {
public:
  /// Entries per checkpointed block: the most a draw re-adds.
  static constexpr size_t BlockSize = 8;

  TemperedCdfMemo() = default;
  /// The memo stays with its instance: a copy (or move) starts empty,
  /// and assigning one empties the target.
  TemperedCdfMemo(const TemperedCdfMemo &) {}
  TemperedCdfMemo &operator=(const TemperedCdfMemo &) {
    clear();
    return *this;
  }

  /// drawToken(Dist, Temperature, R) for the distribution that \p Fill
  /// writes for \p Key. \p Fill runs only on a miss, and must write the
  /// same distribution every time it is called for the same key.
  template <typename FillFn>
  int draw(uint32_t Key, double Temperature, Rng &R, FillFn &&Fill) {
    if (!(Temperature == MemoTemperature)) {
      clear();
      MemoTemperature = Temperature;
    }
    if (Key >= SlotOf.size())
      SlotOf.resize(static_cast<size_t>(Key) + 1, 0);
    uint32_t &Slot = SlotOf[Key];
    if (Slot == 0) {
      Fill(Dist);
      Cdfs.push_back(build(Temperature));
      Slot = static_cast<uint32_t>(Cdfs.size());
    }
    return drawFrom(Cdfs[Slot - 1], R);
  }

  /// Keys memoized at the current temperature.
  size_t size() const { return Cdfs.size(); }

  /// Forgets every memoized key.
  void clear();

private:
  struct Cdf {
    double Total = 0.0;
    double FloorWeight = 0.0;
    uint32_t FirstCheckpoint = 0;
    uint32_t FirstEntry = 0;
    uint32_t EntryCount = 0;
    uint32_t Size = 0;
    int32_t Last = Vocabulary::EndOfText;
  };
  struct Entry {
    double Weight;
    uint32_t Index;
  };

  /// The compact CDF of Dist at \p Temperature; appends its checkpoints
  /// and entries to the shared arrays.
  Cdf build(double Temperature);
  int drawFrom(const Cdf &C, Rng &R) const;

  /// SlotOf[Key]: 1 + the index of Key's CDF in Cdfs, or 0 if not built.
  std::vector<uint32_t> SlotOf;
  std::vector<Cdf> Cdfs;
  /// Running sum before each block after the first, ceil(Size / 8) - 1
  /// per CDF.
  std::vector<double> Checkpoints;
  /// The entries off the floor, in index order, per CDF.
  std::vector<Entry> Entries;
  /// The distribution a miss fills; reused, so misses do not allocate.
  std::vector<double> Dist;
  double MemoTemperature = std::numeric_limits<double>::quiet_NaN();
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_TEMPEREDDRAW_H
