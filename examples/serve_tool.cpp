//===- examples/serve_tool.cpp - clgen-serve pipeline daemon CLI --------------===//
//
// `clgen-serve`: the pipeline-as-a-service front end. One subcommand
// runs the daemon; the rest are thin clients over serve/Client.h:
//
//   clgen-serve daemon --socket PATH --store-dir DIR [options]
//                                         run the multiplexed request
//                                         daemon until SIGTERM/SIGINT
//                                         (graceful drain) or a client
//                                         `shutdown`
//   clgen-serve ping --socket PATH        liveness probe: daemon pid
//   clgen-serve synth --socket PATH       submit one synthesis +
//       [--kernels N] [--seed N]          measurement request and print
//       [--temperature T]                 the response provenance and
//                                         per-kernel measurements
//   clgen-serve stats --socket PATH       fetch the daemon's counters
//   clgen-serve shutdown --socket PATH    ask the daemon to drain
//
// The daemon multiplexes every client onto one trained model, one
// result cache/failure ledger and one artifact store; identical
// concurrent requests coalesce onto a single computation, and warm
// requests load the persisted kernel set instead of sampling (their
// responses prove it: trained 0, sampled 0, measured 0).
//
// Exit codes: 0 success; 1 operational failure (cannot bind, cannot
// connect, request failed); 2 usage error (including --kernels 0: a
// zero-target request is rejected, never an empty success); 3 = synth
// delivered zero successful measurements.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

using namespace clgen;

namespace {

// The signal handler can only touch async-signal-safe state; Server::
// requestDrain is one write(2) to a self-pipe by contract.
serve::Server *ActiveServer = nullptr;

void handleDrainSignal(int) {
  if (ActiveServer)
    ActiveServer->requestDrain();
}

void printUsage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: clgen-serve <subcommand> --socket PATH [options]\n"
      "\n"
      "subcommands:\n"
      "  daemon --socket PATH --store-dir DIR\n"
      "                            run the pipeline daemon: accept\n"
      "                            synthesis/measurement requests over\n"
      "                            the Unix socket, multiplexed onto one\n"
      "                            model + store. SIGTERM/SIGINT drains\n"
      "                            gracefully: in-flight requests finish\n"
      "                            and are answered, telemetry flushes,\n"
      "                            the socket is unlinked\n"
      "    --files N               githubsim corpus size for the daemon's\n"
      "                            model (default 400; model identity)\n"
      "    --measure-workers N     measurement consumer threads per\n"
      "                            request (default 1; scheduling only)\n"
      "    --queue N               kernel channel capacity (0 = auto)\n"
      "    --sweep-interval-ms N   run a background store sweep every N\n"
      "                            ms (0 = off, default)\n"
      "    --sweep-budget-bytes N  byte budget each sweep enforces (0 =\n"
      "                            validate/quarantine only)\n"
      "    --metrics-out FILE      write the metrics exposition on drain\n"
      "    --trace-out FILE        write Chrome trace JSON on drain\n"
      "  ping --socket PATH        liveness probe: prints the daemon pid\n"
      "  synth --socket PATH [--kernels N] [--seed N] [--temperature T]\n"
      "                            submit one request; prints warm/cold,\n"
      "                            the work provenance (models trained,\n"
      "                            sample attempts, kernels measured) and\n"
      "                            the per-kernel measurements. --kernels\n"
      "                            must be positive: a zero target is a\n"
      "                            usage error, not an empty success\n"
      "  stats --socket PATH       print the daemon's counters\n"
      "  shutdown --socket PATH    drain the daemon (in-flight requests\n"
      "                            still finish)\n"
      "  help                      this text\n");
}

int runDaemon(const serve::ServerConfig &Cfg) {
  serve::Server Server(Cfg);
  Status Up = Server.start();
  if (!Up.ok()) {
    std::fprintf(stderr, "clgen-serve daemon: %s\n",
                 Up.errorMessage().c_str());
    return 1;
  }
  ActiveServer = &Server;
  std::signal(SIGTERM, handleDrainSignal);
  std::signal(SIGINT, handleDrainSignal);
  std::signal(SIGPIPE, SIG_IGN); // A vanished client must not kill us.
  std::printf("clgen-serve: listening on %s (store %s, pid %d)\n",
              Cfg.SocketPath.c_str(), Cfg.StoreDir.c_str(),
              static_cast<int>(getpid()));
  std::fflush(stdout);
  Server.wait();
  ActiveServer = nullptr;
  std::printf("clgen-serve: drained\n%s", Server.renderStats().c_str());
  return 0;
}

int runPing(const std::string &Socket) {
  auto C = serve::Client::connect(Socket);
  if (!C.ok()) {
    std::fprintf(stderr, "clgen-serve ping: %s\n", C.errorMessage().c_str());
    return 1;
  }
  auto R = C.get().ping();
  if (!R.ok()) {
    std::fprintf(stderr, "clgen-serve ping: %s\n", R.errorMessage().c_str());
    return 1;
  }
  std::printf("pong: pid %llu protocol %llu\n",
              static_cast<unsigned long long>(R.get().Pid),
              static_cast<unsigned long long>(R.get().Version));
  return 0;
}

int runSynth(const std::string &Socket, const serve::SynthesizeRequest &Req) {
  auto C = serve::Client::connect(Socket);
  if (!C.ok()) {
    std::fprintf(stderr, "clgen-serve synth: %s\n",
                 C.errorMessage().c_str());
    return 1;
  }
  auto R = C.get().synthesize(Req);
  if (!R.ok()) {
    std::fprintf(stderr, "clgen-serve synth: %s\n", R.errorMessage().c_str());
    return 1;
  }
  const serve::SynthesizeResponse &Resp = R.get();
  std::printf("synth: %s — trained %llu models, %llu sample attempts, "
              "%llu kernels measured (%llu cache hits, %llu ledger hits)\n",
              Resp.WarmKernels ? "warm (kernel set loaded, zero sampling)"
                               : "cold (sampled + persisted)",
              static_cast<unsigned long long>(Resp.TrainedModels),
              static_cast<unsigned long long>(Resp.SampleAttempts),
              static_cast<unsigned long long>(Resp.MeasuredKernels),
              static_cast<unsigned long long>(Resp.CacheHits),
              static_cast<unsigned long long>(Resp.LedgerHits));
  std::printf("kernel set: %zu kernels, digest %016llx\n",
              Resp.Sources.size(),
              static_cast<unsigned long long>(Resp.KernelSetDigest));
  size_t Ok = 0;
  for (size_t I = 0; I < Resp.Measurements.size(); ++I) {
    const serve::MeasurementRow &M = Resp.Measurements[I];
    if (M.Ok) {
      ++Ok;
      std::printf("kernel %zu: CPU %.3f ms vs GPU %.3f ms -> %s\n", I,
                  M.CpuTime * 1e3, M.GpuTime * 1e3,
                  M.GpuTime < M.CpuTime ? "GPU" : "CPU");
    } else {
      std::printf("kernel %zu: failed — %s\n", I, M.Error.c_str());
    }
  }
  // Mirror benchmark_runner's contract: zero successful measurements
  // (all failed OR an empty delivery) is exit 3, never silent success.
  return Ok == 0 ? 3 : 0;
}

int runStats(const std::string &Socket) {
  auto C = serve::Client::connect(Socket);
  if (!C.ok()) {
    std::fprintf(stderr, "clgen-serve stats: %s\n",
                 C.errorMessage().c_str());
    return 1;
  }
  auto R = C.get().stats();
  if (!R.ok()) {
    std::fprintf(stderr, "clgen-serve stats: %s\n", R.errorMessage().c_str());
    return 1;
  }
  std::fputs(R.get().c_str(), stdout);
  return 0;
}

int runShutdown(const std::string &Socket) {
  auto C = serve::Client::connect(Socket);
  if (!C.ok()) {
    std::fprintf(stderr, "clgen-serve shutdown: %s\n",
                 C.errorMessage().c_str());
    return 1;
  }
  Status S = C.get().shutdown();
  if (!S.ok()) {
    std::fprintf(stderr, "clgen-serve shutdown: %s\n",
                 S.errorMessage().c_str());
    return 1;
  }
  std::printf("shutdown: acknowledged\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage(stderr);
    return 2;
  }
  std::string Sub = Argv[1];
  if (Sub == "help" || Sub == "--help" || Sub == "-h") {
    printUsage(stdout);
    return 0;
  }

  // strtoul silently wraps negative input, so accept digits only (the
  // benchmark_runner flag-parsing idiom).
  auto ParseDigits = [](const std::string &Text, unsigned long &Out) {
    bool Digits = !Text.empty() &&
                  Text.find_first_not_of("0123456789") == std::string::npos;
    Out = Digits ? std::strtoul(Text.c_str(), nullptr, 10) : 0;
    return Digits;
  };

  std::string Socket;
  serve::ServerConfig Cfg;
  serve::SynthesizeRequest Req;
  Req.TargetKernels = 8;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    unsigned long N = 0;
    if (Arg == "--socket" && I + 1 < Argc) {
      Socket = Argv[++I];
    } else if (Arg == "--store-dir" && I + 1 < Argc && Sub == "daemon") {
      Cfg.StoreDir = Argv[++I];
    } else if (Arg == "--files" && I + 1 < Argc && Sub == "daemon") {
      if (!ParseDigits(Argv[++I], N) || N == 0) {
        std::fprintf(stderr, "--files expects a positive integer\n");
        return 2;
      }
      Cfg.FileCount = N;
    } else if (Arg == "--measure-workers" && I + 1 < Argc &&
               Sub == "daemon") {
      if (!ParseDigits(Argv[++I], N) || N == 0) {
        std::fprintf(stderr,
                     "--measure-workers expects a positive integer\n");
        return 2;
      }
      Cfg.MeasureWorkers = static_cast<unsigned>(N);
    } else if (Arg == "--queue" && I + 1 < Argc && Sub == "daemon") {
      if (!ParseDigits(Argv[++I], N)) {
        std::fprintf(stderr, "--queue expects an integer\n");
        return 2;
      }
      Cfg.QueueCapacity = N;
    } else if (Arg == "--sweep-interval-ms" && I + 1 < Argc &&
               Sub == "daemon") {
      if (!ParseDigits(Argv[++I], N)) {
        std::fprintf(stderr,
                     "--sweep-interval-ms expects an integer (0 = off)\n");
        return 2;
      }
      Cfg.SweepIntervalMs = N;
    } else if (Arg == "--sweep-budget-bytes" && I + 1 < Argc &&
               Sub == "daemon") {
      if (!ParseDigits(Argv[++I], N)) {
        std::fprintf(stderr, "--sweep-budget-bytes expects an integer\n");
        return 2;
      }
      Cfg.SweepBudgetBytes = N;
    } else if (Arg == "--metrics-out" && I + 1 < Argc && Sub == "daemon") {
      Cfg.MetricsOut = Argv[++I];
    } else if (Arg == "--trace-out" && I + 1 < Argc && Sub == "daemon") {
      Cfg.TraceOut = Argv[++I];
    } else if (Arg == "--kernels" && I + 1 < Argc && Sub == "synth") {
      // Zero is rejected HERE, as a usage error: the serve layer never
      // lets a zero-target request devolve into empty-set "success".
      if (!ParseDigits(Argv[++I], N) || N == 0) {
        std::fprintf(stderr, "--kernels expects a positive integer (a "
                             "zero-target request is a usage error)\n");
        return 2;
      }
      Req.TargetKernels = N;
    } else if (Arg == "--seed" && I + 1 < Argc && Sub == "synth") {
      if (!ParseDigits(Argv[++I], N)) {
        std::fprintf(stderr, "--seed expects an integer\n");
        return 2;
      }
      Req.Seed = N;
    } else if (Arg == "--temperature" && I + 1 < Argc && Sub == "synth") {
      char *End = nullptr;
      double T = std::strtod(Argv[++I], &End);
      if (End == Argv[I] || *End != '\0' || !(T > 0.0)) {
        std::fprintf(stderr, "--temperature expects a positive number\n");
        return 2;
      }
      Req.Temperature = T;
    } else {
      std::fprintf(stderr, "unknown or incomplete option for '%s': %s\n\n",
                   Sub.c_str(), Arg.c_str());
      printUsage(stderr);
      return 2;
    }
  }

  if (Socket.empty()) {
    std::fprintf(stderr, "clgen-serve %s: --socket PATH is required\n",
                 Sub.c_str());
    return 2;
  }

  if (Sub == "daemon") {
    if (Cfg.StoreDir.empty()) {
      std::fprintf(stderr, "clgen-serve daemon: --store-dir DIR is "
                           "required\n");
      return 2;
    }
    Cfg.SocketPath = Socket;
    return runDaemon(Cfg);
  }
  if (Sub == "ping")
    return runPing(Socket);
  if (Sub == "synth")
    return runSynth(Socket, Req);
  if (Sub == "stats")
    return runStats(Socket);
  if (Sub == "shutdown")
    return runShutdown(Socket);

  std::fprintf(stderr, "unknown subcommand: %s\n\n", Sub.c_str());
  printUsage(stderr);
  return 2;
}
