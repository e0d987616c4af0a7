//===- clbench/Common.h - shared harness pieces ------------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the serve configuration
/// the synthesis workloads run under, the recorded seed pool and its
/// reference digests, the report (metrics, counts, failures), and the
/// in-memory span recorder of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef CLBENCH_COMMON_H
#define CLBENCH_COMMON_H

#include "clgen/Pipeline.h"
#include "serve/Protocol.h"
#include "support/Result.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace clbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Workload configuration
//===----------------------------------------------------------------------===//

/// The kernel-set configuration `clgen-serve` answers with (Server.cpp):
/// 400 githubsim files, n-gram order 14, temperature 0.5, 16384-item
/// launches on the AMD platform. synth_cold uses the same configuration
/// so that one set of recorded digests checks both paths.
constexpr size_t CorpusFiles = 400;
constexpr int NGramOrder = 14;
constexpr double Temperature = 0.5;
constexpr size_t KernelsPerSeed = 40;
constexpr size_t GlobalSize = 16384;

/// The recorded pool of synthesis seeds. Entry 0 is 0xC17E9, the
/// daemon's default seed. Each workload draws on a fixed slice of it, so
/// every run of a workload does the same work and the run seed only
/// orders it: synth_cold streams [0, SynthSeeds) in every pass,
/// serve_* store the next StoredSeeds, and serve_mixed's fresh seeds and
/// synth_cold's warm-up seed come from the rest.
constexpr size_t PoolSize = 128;
constexpr size_t SynthSeeds = 12;
constexpr size_t StoredSeeds = 8;
constexpr size_t FirstFresh = SynthSeeds + StoredSeeds;
uint64_t poolSeed(size_t I);
/// The K-th element of [0, N) rotated by an offset derived from the run
/// seed.
size_t rotated(uint64_t RunSeed, size_t K, size_t N);

/// Files, corpus and model options of the serve configuration.
std::vector<clgen::corpus::ContentFile> minedFiles();
clgen::core::PipelineOptions pipelineOptions();
/// Streaming options of one 40-kernel request for \p Seed, exactly as
/// serve::Server::runFlight builds them (cache and ledger left unset).
clgen::core::StreamingOptions streamingOptions(uint64_t Seed);

/// fnv1a64 over the kernel sources in order: serve's KernelSetDigest.
uint64_t kernelDigest(const std::vector<std::string> &Sources);
uint64_t kernelDigest(const std::vector<clgen::core::SynthesizedKernel> &K);
/// Digest of measurement rows: per row the ok flag, then the exact bits
/// of the CPU and GPU times or the diagnostic text.
uint64_t rowsDigest(
    const std::vector<clgen::Result<clgen::runtime::Measurement>> &Rows);
uint64_t rowsDigest(const std::vector<clgen::serve::MeasurementRow> &Rows);
/// "Kind:count,..." over the failed rows' trap kinds ("none" if none).
std::string trapSummary(
    const std::vector<clgen::Result<clgen::runtime::Measurement>> &Rows);

//===----------------------------------------------------------------------===//
// Reference data (clbench/reference.txt)
//===----------------------------------------------------------------------===//

struct PoolEntry {
  uint64_t Seed = 0;
  uint64_t Kernels = 0;
  uint64_t Rows = 0;
  std::string Traps;
};

struct Reference {
  std::vector<PoolEntry> Pool; // Indexed like poolSeed().
  /// Digest of the golden experiment's observations: the report bytes
  /// round the measured times, so they alone would miss a drift in them.
  uint64_t Experiment = 0;
  /// Exact work counts of traced runs: (workload, run seed) -> counts.
  std::map<std::pair<std::string, uint64_t>, std::map<std::string, double>>
      Counts;
};

/// Parses reference.txt; an error when missing or malformed.
clgen::Result<Reference> loadReference(const std::string &Path);

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// What one run of one workload found.
struct Report {
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Lines;
  /// Chrome trace-event JSON of the traced run's spans.
  std::string TraceJson;

  void metric(const std::string &Name, double Value,
              const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void line(const std::string &L) { Lines.push_back(L); }
  /// Records one failed operation and why.
  void fail(const std::string &Why) {
    ++Failed;
    Lines.push_back("FAILED: " + Why);
  }
  /// A check that is not an operation of its own (a traced-run count,
  /// a reference digest): a mismatch is one more attempted, failed op.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok)
      fail(What);
  }
};

/// Latency summary of one sample: median, p90, the highest percentile
/// with at least ten samples beyond it, and the sample count.
struct Latency {
  size_t N = 0;
  double P50 = 0.0, P90 = 0.0;
  double SupportedPct = 0.0, Supported = 0.0;
};
Latency summarize(std::vector<double> Ms);
double percentile(std::vector<double> Sorted, double Pct);
double median(std::vector<double> V);
/// "name = v unit (n=N, p50 ..., p90 ..., highest supported pXX ...)".
std::string describeLatency(const std::string &Name, const Latency &L);

/// Set-up repetitions per run; setup_s is their median.
constexpr int SetupRuns = 5;
/// "setup_s: n=N median ... s; samples ... (What)".
std::string describeSetup(const std::vector<double> &Samples,
                          const std::string &What);

/// Peak resident set of process \p Pid (0 = self) in MB, from VmHWM.
double peakRssMb(long Pid = 0);

//===----------------------------------------------------------------------===//
// Traced run: spans kept in memory, written out when the run ends
//===----------------------------------------------------------------------===//

class Tracer {
public:
  struct Span {
    const char *Layer = "";
    const char *Call = "";
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    uint64_t ChildNs = 0;
    int Parent = -1;
  };

  void open(const char *Layer, const char *Call);
  void close();

  /// Self time of every span of \p Layer (span time minus the time of
  /// its child spans), in ms.
  double selfMs(const std::string &Layer) const;
  /// Total time and number of spans of \p Call.
  double callMs(const std::string &Call) const;
  uint64_t calls(const std::string &Call) const;
  /// Duration of each span of \p Call, in ms.
  std::vector<double> durationsMs(const std::string &Call) const;
  std::vector<std::string> layers() const;

  /// Chrome trace-event JSON of every span.
  std::string renderJson() const;

private:
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a null tracer records nothing.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Layer, const char *Call) : T(T) {
    if (T)
      T->open(Layer, Call);
  }
  ~SpanScope() {
    if (T)
      T->close();
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
};

/// Exact work counts of one traced run, named as the per-layer metrics.
using Counts = std::map<std::string, double>;

/// Compares \p Got against the counts recorded for (workload, seed), if
/// any were recorded; every recorded count must match exactly.
void checkRecordedCounts(Report &R, const Reference &Ref,
                         const std::string &Workload, uint64_t Seed,
                         const Counts &Got);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Root;     // Checkout root (tests/golden lives here).
  std::string Work;     // Scratch directory of this run.
  std::string ServeBin; // The clgen-serve daemon binary.
  std::string Self;     // This binary (setup probes re-run it).
  Reference Ref;
};

Report runSynthCold(const RunArgs &A);
Report traceSynthCold(const RunArgs &A);
Report runServe(const RunArgs &A, bool Mixed);
Report traceServe(const RunArgs &A, bool Mixed);
Report runExperimentGolden(const RunArgs &A);
Report traceExperimentGolden(const RunArgs &A);
/// Child-process half of experiment_golden's setup probe.
int experimentSetupProbe(const std::string &Root);
/// Prints the pool and experiment lines of reference.txt (phased and
/// streaming paths must agree for every pool seed).
int recordPool();
/// Observation digest of one cold golden experiment.
uint64_t goldenObservationDigest();

} // namespace clbench

#endif // CLBENCH_COMMON_H
