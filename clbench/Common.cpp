//===- clbench/Common.cpp - shared harness pieces ------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "githubsim/GithubSim.h"
#include "store/Archive.h"
#include "support/Trap.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using namespace clgen;

namespace clbench {

uint64_t poolSeed(size_t I) { return 0xC17E9 + I; }

size_t rotated(uint64_t RunSeed, size_t K, size_t N) {
  // splitmix64 finaliser: neighbouring run seeds start far apart.
  uint64_t Z = RunSeed + 0x9E3779B97F4A7C15ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  Z ^= Z >> 31;
  return static_cast<size_t>((Z % N + K) % N);
}

std::vector<corpus::ContentFile> minedFiles() {
  githubsim::GithubSimOptions G;
  G.FileCount = CorpusFiles;
  return githubsim::mineGithub(G);
}

core::PipelineOptions pipelineOptions() {
  core::PipelineOptions P;
  P.NGram.Order = NGramOrder;
  return P;
}

core::StreamingOptions streamingOptions(uint64_t Seed) {
  core::StreamingOptions S;
  S.Synthesis.TargetKernels = KernelsPerSeed;
  S.Synthesis.Seed = Seed;
  S.Synthesis.Sampling.Temperature = Temperature;
  S.Synthesis.Workers = 1;
  S.Driver.GlobalSize = GlobalSize;
  S.MeasureWorkers = 1;
  return S;
}

uint64_t kernelDigest(const std::vector<std::string> &Sources) {
  uint64_t D = store::fnv1a64(nullptr, 0);
  for (const std::string &S : Sources)
    D = store::fnv1a64(S.data(), S.size(), D);
  return D;
}

uint64_t kernelDigest(const std::vector<core::SynthesizedKernel> &K) {
  std::vector<std::string> Sources;
  for (const core::SynthesizedKernel &SK : K)
    Sources.push_back(SK.Source);
  return kernelDigest(Sources);
}

namespace {
uint64_t rowDigest(uint64_t D, bool Ok, double Cpu, double Gpu,
                   const std::string &Error) {
  uint8_t Flag = Ok ? 1 : 0;
  D = store::fnv1a64(&Flag, 1, D);
  if (Ok) {
    D = store::fnv1a64(&Cpu, sizeof Cpu, D);
    return store::fnv1a64(&Gpu, sizeof Gpu, D);
  }
  return store::fnv1a64(Error.data(), Error.size(), D);
}
} // namespace

uint64_t
rowsDigest(const std::vector<Result<runtime::Measurement>> &Rows) {
  uint64_t D = store::fnv1a64(nullptr, 0);
  for (const Result<runtime::Measurement> &M : Rows)
    D = M.ok() ? rowDigest(D, true, M.get().CpuTime, M.get().GpuTime, "")
               : rowDigest(D, false, 0, 0, M.errorMessage());
  return D;
}

uint64_t rowsDigest(const std::vector<serve::MeasurementRow> &Rows) {
  uint64_t D = store::fnv1a64(nullptr, 0);
  for (const serve::MeasurementRow &R : Rows)
    D = rowDigest(D, R.Ok, R.CpuTime, R.GpuTime, R.Error);
  return D;
}

std::string
trapSummary(const std::vector<Result<runtime::Measurement>> &Rows) {
  std::map<std::string, size_t> Kinds;
  for (const Result<runtime::Measurement> &M : Rows)
    if (!M.ok())
      ++Kinds[trapKindName(M.trap())];
  if (Kinds.empty())
    return "none";
  std::string Out;
  for (const auto &[Kind, N] : Kinds)
    Out += (Out.empty() ? "" : ",") + Kind + ":" + std::to_string(N);
  return Out;
}

Result<Reference> loadReference(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Result<Reference>::error("cannot open reference file " + Path);
  Reference Ref;
  Ref.Pool.resize(PoolSize);
  std::vector<bool> Seen(PoolSize, false);
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Is(Line);
    std::string Tag;
    Is >> Tag;
    auto Bad = [&] {
      return Result<Reference>::error(Path + ":" + std::to_string(LineNo) +
                                      ": malformed line");
    };
    if (Tag == "pool") {
      size_t I = 0;
      std::string Seed, K, R, Traps;
      if (!(Is >> I >> Seed >> K >> R >> Traps) || I >= PoolSize)
        return Bad();
      Ref.Pool[I] = PoolEntry{std::stoull(Seed, nullptr, 16),
                              std::stoull(K, nullptr, 16),
                              std::stoull(R, nullptr, 16), Traps};
      if (Ref.Pool[I].Seed != poolSeed(I))
        return Bad();
      Seen[I] = true;
    } else if (Tag == "experiment") {
      std::string Digest;
      if (!(Is >> Digest))
        return Bad();
      Ref.Experiment = std::stoull(Digest, nullptr, 16);
    } else if (Tag == "count") {
      std::string Workload, Name;
      uint64_t Seed = 0;
      double Value = 0;
      if (!(Is >> Workload >> Seed >> Name >> Value))
        return Bad();
      Ref.Counts[{Workload, Seed}][Name] = Value;
    } else {
      return Bad();
    }
  }
  if (std::find(Seen.begin(), Seen.end(), false) != Seen.end())
    return Result<Reference>::error(Path + ": seed pool incomplete");
  if (Ref.Experiment == 0)
    return Result<Reference>::error(Path + ": no experiment line");
  return Ref;
}

double percentile(std::vector<double> Sorted, double Pct) {
  if (Sorted.empty())
    return 0.0;
  std::sort(Sorted.begin(), Sorted.end());
  // Linear interpolation between closest ranks.
  double Pos = Pct / 100.0 * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

Latency summarize(std::vector<double> Ms) {
  Latency L;
  L.N = Ms.size();
  if (Ms.empty())
    return L;
  std::sort(Ms.begin(), Ms.end());
  L.P50 = percentile(Ms, 50);
  L.P90 = percentile(Ms, 90);
  // The highest percentile that still has ten samples beyond it.
  for (double Pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(L.N) * (1.0 - Pct / 100.0) >= 10.0) {
      L.SupportedPct = Pct;
      L.Supported = percentile(Ms, Pct);
      break;
    }
  }
  return L;
}

std::string describeLatency(const std::string &Name, const Latency &L) {
  char Buf[256];
  if (L.SupportedPct > 0)
    std::snprintf(Buf, sizeof Buf,
                  "%s: n=%zu p50=%.4f ms p90=%.4f ms; highest supported "
                  "percentile p%g=%.4f ms",
                  Name.c_str(), L.N, L.P50, L.P90, L.SupportedPct,
                  L.Supported);
  else
    std::snprintf(Buf, sizeof Buf,
                  "%s: n=%zu p50=%.4f ms p90=%.4f ms; n < 20, so no "
                  "percentile has ten samples beyond it",
                  Name.c_str(), L.N, L.P50, L.P90);
  return Buf;
}

std::string describeSetup(const std::vector<double> &Samples,
                          const std::string &What) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "setup_s: n=%zu, median %.4f s; samples",
                Samples.size(), median(Samples));
  std::string Out = Buf;
  for (double S : Samples) {
    std::snprintf(Buf, sizeof Buf, " %.4f", S);
    Out += Buf;
  }
  return Out + " (" + What + ")";
}

double peakRssMb(long Pid) {
  std::string Path =
      Pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(Pid) +
                                           "/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB -> MB.
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
} // namespace

void Tracer::open(const char *Layer, const char *Call) {
  Span S;
  S.Layer = Layer;
  S.Call = Call;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.StartNs = nowNs();
  Spans.push_back(S);
  Stack.push_back(static_cast<int>(Spans.size() - 1));
}

void Tracer::close() {
  int I = Stack.back();
  Stack.pop_back();
  Span &S = Spans[static_cast<size_t>(I)];
  S.EndNs = nowNs();
  if (S.Parent >= 0)
    Spans[static_cast<size_t>(S.Parent)].ChildNs += S.EndNs - S.StartNs;
}

double Tracer::selfMs(const std::string &Layer) const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (Layer == S.Layer)
      Ns += (S.EndNs - S.StartNs) - S.ChildNs;
  return static_cast<double>(Ns) / 1e6;
}

double Tracer::callMs(const std::string &Call) const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (Call == S.Call)
      Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) / 1e6;
}

uint64_t Tracer::calls(const std::string &Call) const {
  uint64_t N = 0;
  for (const Span &S : Spans)
    if (Call == S.Call)
      ++N;
  return N;
}

std::vector<double> Tracer::durationsMs(const std::string &Call) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (Call == S.Call)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
  return Out;
}

std::vector<std::string> Tracer::layers() const {
  std::set<std::string> L;
  for (const Span &S : Spans)
    L.insert(S.Layer);
  return {L.begin(), L.end()};
}

std::string Tracer::renderJson() const {
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::string Out = "{\"traceEvents\":[";
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  I ? "," : "", S.Call, S.Layer,
                  static_cast<double>(S.StartNs - Base) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                  S.Parent);
    Out += Buf;
  }
  return Out + "]}\n";
}

void checkRecordedCounts(Report &R, const Reference &Ref,
                         const std::string &Workload, uint64_t Seed,
                         const Counts &Got) {
  auto It = Ref.Counts.find({Workload, Seed});
  if (It == Ref.Counts.end()) {
    R.line("recorded counts: none for seed " + std::to_string(Seed) +
           " (recorded seeds are checked exactly)");
    return;
  }
  for (const auto &[Name, Want] : It->second) {
    auto G = Got.find(Name);
    double Value = G == Got.end() ? -1 : G->second;
    R.check(Value == Want, "count " + Name + " = " + std::to_string(Value) +
                               ", recorded " + std::to_string(Want));
  }
  R.line("recorded counts: " + std::to_string(It->second.size()) +
         " compared for seed " + std::to_string(Seed));
}

} // namespace clbench
