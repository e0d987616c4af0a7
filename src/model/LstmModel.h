//===- model/LstmModel.h - LSTM language model -------------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-layer LSTM character-level language model with truncated BPTT
/// training — the architecture of section 4.2 ("a 3-layer LSTM network
/// with 2048 nodes per layer ... trained with Stochastic Gradient
/// Descent for 50 epochs, with an initial learning rate of 0.002,
/// decaying by a factor of one half every 5 epochs"). Defaults here are
/// laptop-scale; the paper's full configuration is reachable through
/// LstmOptions but is not affordable on CPU (model/NGramModel.h describes
/// the model that stands in at scale).
///
/// Everything is implemented from scratch: forward pass, softmax
/// cross-entropy, backpropagation through time, gradient clipping and
/// SGD with the paper's decay schedule. Gradients are verified against
/// finite differences in the test suite.
///
/// Training is data-parallel: the token stream is partitioned into
/// LstmOptions::BatchLanes contiguous lanes of BPTT chunks, and each
/// optimizer step evaluates one chunk per lane against a frozen weight
/// snapshot, fanned across a support::ThreadPool
/// (TrainOptions::Workers). Lane gradients are reduced in lane-index
/// order and applied as one accumulated SGD update, so trained weights
/// are bit-identical for every worker count — and BatchLanes == 1
/// reproduces the classic chunk-sequential SGD exactly (see
/// docs/ARCHITECTURE.md, "Deterministic gradient reduction").
///
/// Performance: weights are stored input-major ("transposed" relative to
/// the usual W[4H x In] math notation) so that every matrix kernel in
/// both the forward and backward pass runs a contiguous,
/// auto-vectorizable inner loop over the fused 4-gate dimension, and the
/// one-hot layer-0 input reduces to an embedding-row lookup. See
/// LstmModel.cpp for the blocked kernels.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_LSTMMODEL_H
#define CLGEN_MODEL_LSTMMODEL_H

#include "model/LanguageModel.h"
#include "support/Rng.h"

#include <functional>
#include <string>
#include <vector>

namespace clgen {
namespace model {

struct LstmOptions {
  int Layers = 2;
  int HiddenSize = 64;
  int Epochs = 3;
  int SequenceLength = 48;
  float LearningRate = 0.02f; // The paper's 0.002 suits its 50-epoch run.
  float LearningRateDecay = 0.5f;
  int DecayEveryEpochs = 5;
  float GradClip = 5.0f;
  uint64_t Seed = 0x15731AB5;
  /// Data-parallel width of training: the chunk sequence is split into
  /// this many contiguous lanes, and every optimizer step reduces one
  /// chunk gradient per lane into a single accumulated update. This is a
  /// SEMANTIC knob (it changes the training trajectory, so it is part of
  /// the serialized options and the pipeline training fingerprint);
  /// 1 = the classic chunk-sequential SGD of the paper. Contrast
  /// TrainOptions::Workers, which is pure scheduling. Clamped to
  /// [1, MaxBatchLanes] at model construction, so a model can never
  /// serialize an options block its own deserializer would reject.
  int BatchLanes = 1;

  /// Upper bound on BatchLanes: the constructor clamp and the archive
  /// range check share it by definition.
  static constexpr int MaxBatchLanes = 1 << 20;
};

/// Scheduling options for LstmModel::train. Nothing here can change the
/// trained weights — output is bit-identical for every value of every
/// field — so none of it enters serialized models or cache fingerprints.
struct TrainOptions {
  /// Threads the per-lane gradient work fans out across (0 = hardware
  /// concurrency). Effective parallelism is capped by
  /// LstmOptions::BatchLanes.
  unsigned Workers = 1;
  /// When set, receives (epoch, average bits-per-char loss).
  std::function<void(int, double)> Progress;
};

class LstmModel : public LanguageModel {
public:
  explicit LstmModel(LstmOptions Opts = LstmOptions()) : Opts(Opts) {
    if (this->Opts.BatchLanes < 1)
      this->Opts.BatchLanes = 1;
    else if (this->Opts.BatchLanes > LstmOptions::MaxBatchLanes)
      this->Opts.BatchLanes = LstmOptions::MaxBatchLanes;
  }

  /// Trains on corpus entries (sentinel-separated). See TrainOptions for
  /// the scheduling knobs; weights are bit-identical for any
  /// TrainOptions value.
  void train(const std::vector<std::string> &Entries,
             const TrainOptions &TOpts);

  /// Back-compat convenience: serial training with an optional progress
  /// callback.
  void train(const std::vector<std::string> &Entries,
             const std::function<void(int, double)> &Progress = nullptr);

  // LanguageModel:
  const Vocabulary &vocabulary() const override { return Vocab; }
  void reset() override;
  void observe(int TokenId) override;
  std::vector<double> nextDistribution() override;
  void nextDistributionInto(std::vector<double> &Dist) override;
  std::unique_ptr<LanguageModel> clone() const override;
  const char *backendName() const override { return "lstm"; }

  /// Total trainable parameter count (the paper's model has 17M).
  size_t parameterCount() const;

  /// Appends options + vocabulary + all weight matrices to an archive
  /// payload. Weights travel as IEEE-754 bit patterns, so a load
  /// restores the parameters bit-exactly and generation from a loaded
  /// model matches the original float for float.
  void serialize(store::ArchiveWriter &W) const;

  /// Rebuilds a trained model from an archive, validating every weight
  /// blob against the stored architecture (layer count, hidden size,
  /// vocabulary size). Trips the reader's error state on mismatch.
  static LstmModel deserialize(store::ArchiveReader &R);

  /// Cross-entropy (bits/char) of a token sequence under the current
  /// parameters, from a zero state. Used by training diagnostics/tests.
  double sequenceLoss(const std::vector<int> &Tokens);

  /// Finite-difference gradient check on a short token sequence; returns
  /// the maximum relative error across a parameter sample. Test-only.
  double gradientCheck(const std::vector<int> &Tokens, int SampleCount = 24);

  /// GradientCapture hook (test-only): while enabled, train() keeps a
  /// copy of the merged raw gradient (post lane reduction, pre clip and
  /// scale) of the most recently applied optimizer step.
  void setGradientCapture(bool Enable) { CaptureGrads = Enable; }

  /// Byte image (IEEE-754 bit patterns, fixed tensor order) of the
  /// gradient captured by the hook above. Two runs produced the same
  /// reduced gradients iff their images are equal byte-for-byte.
  std::vector<uint8_t> capturedGradientImage() const;

private:
  LstmOptions Opts;
  Vocabulary Vocab;
  int V = 0; // Vocabulary size.

  /// Parameters per layer, stored input-major for contiguous access:
  /// WxT[In x 4H] (row i = input unit i's weights to all gates, so the
  /// one-hot layer-0 input is a single contiguous row), WhT[H x 4H],
  /// B[4H]. Gate order within a 4H row block: [i f g o].
  struct Layer {
    std::vector<float> WxT, WhT, B;
    int In = 0;
  };
  std::vector<Layer> Layers;
  std::vector<float> Wy, By; // Output projection [V x H], [V].

  /// One model-shaped gradient accumulator. Lanes fill one each per
  /// optimizer step; the reduction merges them in lane order, and the
  /// update reads from here — never aliasing the live weights — in one
  /// vectorizable pass per tensor.
  struct GradBuf {
    std::vector<Layer> Layers;
    std::vector<float> GWy, GBy;
  };

  /// Generation state.
  std::vector<std::vector<float>> StateH, StateC;

  /// Reused step scratch (gate pre-activations / logits); generation and
  /// loss evaluation allocate nothing per token.
  std::vector<float> ScratchA, ScratchLogits;

  /// Per-lane BPTT scratch (forward tape + backward accumulators); see
  /// LstmModel.cpp.
  struct ChunkWorkspace;

  /// GradientCapture hook state (see setGradientCapture).
  bool CaptureGrads = false;
  GradBuf CapturedGrads;

  void initParameters();
  void allocGradBuf(GradBuf &G) const;
  /// One forward step from (H,C) with input vector X (size In of layer
  /// 0 handled as one-hot id); returns logits.
  void stepState(int TokenId, std::vector<std::vector<float>> &H,
                 std::vector<std::vector<float>> &C,
                 std::vector<float> *LogitsOut);
  /// Forward + backward over one BPTT chunk against the CURRENT weights,
  /// which it never mutates (safe to run concurrently from many lanes).
  /// Accumulates raw gradients into \p Grads (caller zeroes), advances
  /// (H,C) to the chunk's final state, and returns the total loss in
  /// bits; \p StepsOut receives the number of prediction steps.
  double chunkBackward(const std::vector<int> &Tokens, size_t Begin,
                       size_t End, std::vector<std::vector<float>> &H,
                       std::vector<std::vector<float>> &C, GradBuf &Grads,
                       ChunkWorkspace &Ws, int &StepsOut) const;
  /// Clips \p Grads by global norm and applies one SGD step scaled by
  /// Lr / TotalSteps (the accumulated-update half of the engine).
  void applyUpdate(GradBuf &Grads, float Lr, int TotalSteps);
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_LSTMMODEL_H
