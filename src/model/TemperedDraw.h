//===- model/TemperedDraw.h - Temperature-adjusted token draws ---*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one owner of the sampler's tempered-draw arithmetic. drawToken is
/// the reference draw from a next-token distribution; TemperedCdfMemo
/// memoizes the same draw per context for a model whose distribution is
/// a pure function of a short key (the n-gram context window). Both add
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
#include <string>
#include <unordered_map>
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

/// drawToken memoized per context key, at one temperature. For each key
/// it keeps a compact tempered CDF: the floor weight (shared by every
/// entry at the distribution's minimum probability), the other entries
/// as (index, weight) pairs, the total, the last index with p > 0, and
/// the running sum before every block of BlockSize entries. A draw takes
/// one uniform, finds its block by those checkpoints and re-adds at most
/// BlockSize weights from the block's checkpoint. The checkpoints and the
/// re-adds follow drawToken's summation order, so every running sum
/// compared against the target has drawToken's bits, and the draw returns
/// drawToken's token and leaves the generator in drawToken's state.
///
/// A memo belongs to one model instance. It is never carried to a copy,
/// a temperature change clears it, and it is never serialized or hashed
/// into a key. It stops inserting at MaxContexts; later misses draw
/// through drawToken.
class TemperedCdfMemo {
public:
  /// Contexts memoized before the memo stops inserting. A context costs
  /// about 104 + 8 * (ceil(V / 8) - 1) + 16 * k bytes for a vocabulary of
  /// V tokens with k entries off the floor: about 220 bytes (7 MB at the
  /// cap) for an order-14 n-gram over the 71-token corpus vocabulary,
  /// where k is a handful, and 1.3 kB (43 MB) in the worst case k = V.
  static constexpr size_t MaxContexts = size_t(1) << 15;
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
  int draw(const std::string &Key, double Temperature, Rng &R,
           FillFn &&Fill) {
    if (!(Temperature == MemoTemperature)) {
      clear();
      MemoTemperature = Temperature;
    }
    auto It = Cdfs.find(Key);
    if (It != Cdfs.end())
      return drawFrom(It->second, R);
    Fill(Dist);
    if (Cdfs.size() >= MaxContexts)
      return drawToken(Dist, Temperature, R);
    return drawFrom(Cdfs.emplace(Key, build(Temperature)).first->second, R);
  }

  /// Contexts memoized at the current temperature.
  size_t size() const { return Cdfs.size(); }

  /// Forgets every memoized context.
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

  std::unordered_map<std::string, Cdf> Cdfs;
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
