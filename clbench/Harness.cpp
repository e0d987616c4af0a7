//===- clbench/Harness.cpp - benchmark entry point ------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the benchmark and prints what it measured:
//
//   clbench --workload W --seed N --seconds S --trace 0|1 --root DIR
//           --work DIR --serve-bin PATH --reference FILE [--trace-out F]
//   clbench --setup-probe --root DIR     (experiment_golden's setup)
//   clbench --record-pool                (pool lines of reference.txt)
//
// Workloads: synth_cold, serve_warm, serve_mixed, experiment_golden.
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// is the separate traced run that yields the per-layer metrics. The last
// line of output is one JSON object: correct, attempted, failed and
// every metric measured. clbench/run.py builds this binary and runs it.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <unistd.h>

using namespace clbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: clbench --workload W --seed N --seconds S --trace 0|1 "
               "--root DIR --work DIR --serve-bin PATH --reference FILE "
               "[--trace-out FILE]\n"
               "       clbench --setup-probe --root DIR\n"
               "       clbench --record-pool\n");
  return 2;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  // A client writing to a daemon that died must see EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);
  RunArgs A;
  std::string ReferencePath, TraceOut;
  bool SetupProbe = false, RecordPool = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--workload")
      A.Workload = Value();
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 0);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (Arg == "--trace")
      A.Trace = Value() == "1";
    else if (Arg == "--root")
      A.Root = Value();
    else if (Arg == "--work")
      A.Work = Value();
    else if (Arg == "--serve-bin")
      A.ServeBin = Value();
    else if (Arg == "--reference")
      ReferencePath = Value();
    else if (Arg == "--trace-out")
      TraceOut = Value();
    else if (Arg == "--setup-probe")
      SetupProbe = true;
    else if (Arg == "--record-pool")
      RecordPool = true;
    else
      return usage();
  }
  if (RecordPool)
    return recordPool();
  if (SetupProbe)
    return A.Root.empty() ? usage() : experimentSetupProbe(A.Root);
  if (A.Workload.empty() || A.Root.empty() || A.Work.empty() ||
      A.ServeBin.empty() || ReferencePath.empty() || A.Seconds <= 0)
    return usage();

  auto Ref = loadReference(ReferencePath);
  if (!Ref.ok()) {
    std::fprintf(stderr, "clbench: %s\n", Ref.errorMessage().c_str());
    return 1;
  }
  A.Ref = Ref.take();
  char Self[4096] = {0};
  ssize_t N = ::readlink("/proc/self/exe", Self, sizeof Self - 1);
  A.Self = N > 0 ? std::string(Self, static_cast<size_t>(N)) : Argv[0];

  Report R;
  if (A.Workload == "synth_cold")
    R = A.Trace ? traceSynthCold(A) : runSynthCold(A);
  else if (A.Workload == "serve_warm")
    R = A.Trace ? traceServe(A, false) : runServe(A, false);
  else if (A.Workload == "serve_mixed")
    R = A.Trace ? traceServe(A, true) : runServe(A, true);
  else if (A.Workload == "experiment_golden")
    R = A.Trace ? traceExperimentGolden(A) : runExperimentGolden(A);
  else
    return usage();
  if (A.Trace) {
    // Work counts repeat exactly: compare them with those recorded for
    // this seed, if any were.
    Counts Exact;
    for (const auto &[Name, M] : R.Metrics)
      if (M.Unit == "count" || M.Unit == "bytes")
        Exact[Name] = M.Value;
    checkRecordedCounts(R, A.Ref, A.Workload, A.Seed, Exact);
  }
  if (R.Attempted == 0)
    R.Attempted = 1 + R.Failed; // A run that attempted nothing failed.

  if (!TraceOut.empty() && !R.TraceJson.empty()) {
    std::ofstream Out(TraceOut, std::ios::binary);
    Out << R.TraceJson;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  std::printf("machine: cpu_cores=%ld compiler=%s build_type=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), CLBENCH_COMPILER,
              CLBENCH_BUILD_TYPE);
  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());
  std::printf("failed_ratio = %.6f (%llu failed of %llu attempted)\n",
              static_cast<double>(R.Failed) / static_cast<double>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const auto &[Name, M] : R.Metrics)
    std::printf("metric %s = %s %s\n", Name.c_str(),
                jsonNumber(M.Value).c_str(), M.Unit.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
