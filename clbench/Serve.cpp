//===- clbench/Serve.cpp - the serve_warm and serve_mixed workloads -------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Both workloads drive the shipped clgen-serve daemon over its socket
// from one client process with a closed loop of two connections: with
// four, client and daemon threads oversubscribe a 4-core host and the
// tail wanders. serve_warm repeats a pool of stored seeds. serve_mixed
// sends most requests to stored seeds and a share to fresh ones drawn
// from windows the two connections share, so fresh requests sometimes
// coalesce and sometimes run as two different cold flights at once.
// The daemon is never restarted: if it dies, every request of the run
// counts as failed.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "githubsim/GithubSim.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace clgen;

namespace clbench {

namespace {

/// Closed-loop connections.
constexpr unsigned Connections = 2;
/// Share of serve_mixed requests that ask for a fresh seed.
constexpr double FreshShare = 0.125;
/// Requests of the traced replay.
constexpr size_t TracedRequests = 200;

/// One clgen-serve daemon process.
class Daemon {
public:
  Daemon(const RunArgs &A, std::string Store, const std::string &Name)
      : Bin(A.ServeBin), Store(std::move(Store)),
        Socket(A.Work + "/" + Name + ".sock"),
        Log(A.Work + "/" + Name + ".log") {}
  ~Daemon() {
    if (Pid > 0 && !Exited) {
      ::kill(Pid, SIGKILL);
      reap(true);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start() {
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_addopen(&Fa, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&Fa, 1, 2);
    std::vector<std::string> Args = {Bin,     "daemon",      "--socket",
                                     Socket,  "--store-dir", Store};
    std::vector<char *> Argv;
    for (std::string &S : Args)
      Argv.push_back(S.data());
    Argv.push_back(nullptr);
    int Rc = posix_spawn(&Pid, Bin.c_str(), &Fa, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Fa);
    if (Rc != 0)
      Pid = -1;
    return Rc == 0;
  }

  /// Connects, retrying until the daemon listens or \p TimeoutS passes.
  Result<serve::Client> connect(double TimeoutS = 60) {
    Clock::time_point T0 = Clock::now();
    for (;;) {
      auto C = serve::Client::connect(Socket);
      if (C.ok() || secondsSince(T0) > TimeoutS || !alive())
        return C;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  bool alive() { return Pid > 0 && !reap(false); }

  /// Asks the daemon to drain and waits for it; returns "" on a clean
  /// exit, else what happened.
  std::string stop() {
    if (alive()) {
      auto C = serve::Client::connect(Socket);
      if (C.ok())
        (void)C.get().shutdown();
      Clock::time_point T0 = Clock::now();
      while (!reap(false) && secondsSince(T0) < 30)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (!Exited) {
        ::kill(Pid, SIGKILL);
        reap(true);
        return "daemon did not drain within 30 s";
      }
    }
    return exitDescription();
  }

  /// "" for a clean exit, else the exit code or signal.
  std::string exitDescription() const {
    if (!Exited)
      return "";
    if (WIFSIGNALED(Status))
      return std::string("daemon killed by signal ") +
             std::to_string(WTERMSIG(Status)) + " (" +
             strsignal(WTERMSIG(Status)) + ")";
    if (WIFEXITED(Status) && WEXITSTATUS(Status) != 0)
      return "daemon exited with status " +
             std::to_string(WEXITSTATUS(Status));
    return "";
  }

  long pid() const { return Pid; }

private:
  bool reap(bool Block) {
    if (Exited)
      return true;
    pid_t R = ::waitpid(Pid, &Status, Block ? 0 : WNOHANG);
    if (R == Pid)
      Exited = true;
    return Exited;
  }

  std::string Bin, Store, Socket, Log;
  pid_t Pid = -1;
  int Status = 0;
  bool Exited = false;
};

serve::SynthesizeRequest request(uint64_t Seed) {
  serve::SynthesizeRequest Req;
  Req.TargetKernels = KernelsPerSeed;
  Req.Seed = Seed;
  Req.Temperature = Temperature;
  return Req;
}

/// Checks a response against the recorded pool entry.
std::string checkResponse(const PoolEntry &Ref,
                          const serve::SynthesizeResponse &Resp) {
  if (Resp.KernelSetDigest != Ref.Kernels ||
      kernelDigest(Resp.Sources) != Ref.Kernels)
    return "kernel set digest differs from the recorded one";
  if (rowsDigest(Resp.Measurements) != Ref.Rows)
    return "measurement rows differ from the recorded ones";
  return "";
}

/// The request stream of one connection.
class Stream {
public:
  Stream(uint64_t RunSeed, unsigned Conn, bool Mixed)
      : R(RunSeed * 0x9E3779B97F4A7C15ull + Conn + 1), Mixed(Mixed) {}

  /// Pool index of the next request.
  size_t next(const std::vector<size_t> &Stored,
              const std::vector<size_t> &Fresh) {
    if (Mixed && R.chance(FreshShare)) {
      // Both connections draw from the same growing window, so fresh
      // seeds overlap: sometimes the same seed at once (coalesced),
      // sometimes two different cold seeds at once.
      size_t Window = std::min(Fresh.size(), 2 * FreshDrawn++ + 2);
      return Fresh[R.bounded(Window)];
    }
    return Stored[R.bounded(Stored.size())];
  }

private:
  Rng R;
  bool Mixed;
  size_t FreshDrawn = 0;
};

struct Seeds {
  std::vector<size_t> Stored, Fresh;
};

Seeds seedsFor(uint64_t RunSeed) {
  Seeds S;
  for (size_t K = 0; K < StoredSeeds; ++K)
    S.Stored.push_back(SynthSeeds + rotated(RunSeed, K, StoredSeeds));
  for (size_t K = 0; K < PoolSize - FirstFresh; ++K)
    S.Fresh.push_back(FirstFresh + rotated(RunSeed, K, PoolSize - FirstFresh));
  return S;
}

/// Trains the daemon's model into \p Store and stores the pool seeds,
/// checking each against the recorded digests. False when there is no
/// store to serve from.
bool prepareStore(const RunArgs &A, Report &R, const std::string &Store,
                  const std::vector<size_t> &Stored) {
  auto Pipe =
      core::ClgenPipeline::trainOrLoad(Store, minedFiles(), pipelineOptions());
  R.check(Pipe.ok(), "store preparation: training failed");
  if (!Pipe.ok())
    return false;
  store::ResultCache Cache(Store + "/results");
  store::FailureLedger Ledger(Store + "/failures");
  const runtime::Platform P = runtime::amdPlatform();
  for (size_t I : Stored) {
    const PoolEntry &Ref = A.Ref.Pool[I];
    core::StreamingOptions SO = streamingOptions(Ref.Seed);
    SO.Synthesis.Workers = 3; // Scheduling only; output is identical.
    SO.Cache = &Cache;
    SO.Ledger = &Ledger;
    core::StreamingResult Out =
        Pipe.get().synthesizeAndMeasureOrLoad(Store, P, SO);
    bool Ok = kernelDigest(Out.Kernels) == Ref.Kernels &&
              rowsDigest(Out.Measurements) == Ref.Rows;
    R.check(Ok, "store preparation: seed " + std::to_string(Ref.Seed) +
                    " differs from the recorded digests");
  }
  return true;
}

/// Parses "key value" lines of the daemon's stats text.
std::map<std::string, uint64_t> parseStats(const std::string &Text) {
  std::map<std::string, uint64_t> Out;
  std::istringstream Is(Text);
  std::string Key;
  uint64_t Value = 0;
  while (Is >> Key >> Value)
    Out[Key] = Value;
  return Out;
}

/// Result of one connection's closed loop.
struct ConnResult {
  std::vector<double> WarmMs, ColdMs;
  uint64_t Sent = 0, Ok = 0;
  uint64_t Lost = 0;       // No response: the connection broke.
  uint64_t Mismatched = 0; // A response that differs from the reference.
  std::vector<std::string> Errors;
};

} // namespace

Report runServe(const RunArgs &A, bool Mixed) {
  Report R;
  Seeds S = seedsFor(A.Seed);
  std::string Store = A.Work + "/serve-store";
  if (!prepareStore(A, R, Store, S.Stored))
    return R;

  // Setup: daemon start until it answers its first request, several
  // times; the last daemon serves the timed phase.
  std::vector<double> Setups;
  std::unique_ptr<Daemon> D;
  for (int K = 0; K < SetupRuns; ++K) {
    if (D) {
      std::string Why = D->stop();
      R.check(Why.empty(), "setup daemon: " + Why);
    }
    D = std::make_unique<Daemon>(A, Store, "d" + std::to_string(K));
    Clock::time_point T0 = Clock::now();
    bool Started = D->start();
    auto C = Started ? D->connect()
                     : Result<serve::Client>::error("cannot spawn daemon");
    auto First = C.ok() ? C.get().synthesize(request(
                              A.Ref.Pool[S.Stored[0]].Seed))
                        : Result<serve::SynthesizeResponse>::error(
                              C.errorMessage());
    Setups.push_back(secondsSince(T0));
    std::string Why = First.ok()
                          ? checkResponse(A.Ref.Pool[S.Stored[0]], First.get())
                          : First.errorMessage();
    R.check(Why.empty(), "setup request: " + Why);
    if (!First.ok())
      return R;
  }
  uint64_t DaemonRequests = 1; // The last set-up request.

  // The closed loop: warm-up pass over the stored seeds, then timed.
  std::vector<ConnResult> Results(Connections);
  std::vector<std::thread> Threads;
  Clock::time_point T0;
  std::atomic<bool> Go{false};
  std::atomic<unsigned> Ready{0};
  for (unsigned Conn = 0; Conn < Connections; ++Conn) {
    Threads.emplace_back([&, Conn] {
      ConnResult &Out = Results[Conn];
      auto C = D->connect();
      auto Send = [&](size_t I, bool Timed) {
        const PoolEntry &Ref = A.Ref.Pool[I];
        Clock::time_point Q0 = Clock::now();
        auto Resp = C.get().synthesize(request(Ref.Seed));
        double Ms = secondsSince(Q0) * 1e3;
        ++Out.Sent;
        if (!Resp.ok()) {
          ++Out.Lost;
          Out.Errors.push_back("request for seed " + std::to_string(Ref.Seed) +
                               ": " + Resp.errorMessage());
          return false;
        }
        std::string Why = checkResponse(Ref, Resp.get());
        bool Stored = std::find(S.Stored.begin(), S.Stored.end(), I) !=
                      S.Stored.end();
        if (Why.empty() && Stored && !Resp.get().WarmKernels)
          Why = "stored seed was not served warm";
        if (Why.empty()) {
          ++Out.Ok;
        } else {
          ++Out.Mismatched;
          Out.Errors.push_back("seed " + std::to_string(Ref.Seed) + ": " +
                               Why);
        }
        if (Timed)
          (Resp.get().WarmKernels ? Out.WarmMs : Out.ColdMs).push_back(Ms);
        return true;
      };
      bool Live = C.ok();
      if (!Live)
        Out.Errors.push_back("connect: " + C.errorMessage());
      for (size_t K = 0; Live && K < S.Stored.size(); ++K)
        Live = Send(S.Stored[(K + Conn) % S.Stored.size()], false);
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      Stream Traffic(A.Seed, Conn, Mixed);
      while (Live && secondsSince(T0) < A.Seconds)
        Live = Send(Traffic.next(S.Stored, S.Fresh), true);
    });
  }
  while (Ready.load() < Connections)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  T0 = Clock::now();
  Go = true;
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = secondsSince(T0);

  std::vector<double> Warm, Cold, All;
  uint64_t Sent = 0, Ok = 0, Lost = 0, Mismatched = 0;
  for (ConnResult &C : Results) {
    Lost += C.Lost;
    Mismatched += C.Mismatched;
    Warm.insert(Warm.end(), C.WarmMs.begin(), C.WarmMs.end());
    Cold.insert(Cold.end(), C.ColdMs.begin(), C.ColdMs.end());
    Sent += C.Sent;
    Ok += C.Ok;
    for (const std::string &E : C.Errors)
      R.fail(E);
  }
  R.Attempted += Sent;
  DaemonRequests += Sent;
  All = Warm;
  All.insert(All.end(), Cold.begin(), Cold.end());
  uint64_t TimedRequests = All.size();

  // The daemon's own counters must account for every request.
  double Rss = D->alive() ? peakRssMb(D->pid()) : 0.0;
  if (D->alive()) {
    auto C = D->connect();
    auto Text = C.ok() ? C.get().stats()
                       : Result<std::string>::error(C.errorMessage());
    if (Text.ok()) {
      auto St = parseStats(Text.get());
      R.check(St["synth_requests"] == DaemonRequests &&
                  St["warm_loads"] + St["cold_computes"] +
                          St["coalesced_requests"] ==
                      DaemonRequests &&
                  (Mixed || St["cold_computes"] == 0),
              "daemon stats do not account for the requests sent:\n" +
                  Text.get());
      R.line("daemon stats: warm_loads " +
             std::to_string(St["warm_loads"]) + ", cold_computes " +
             std::to_string(St["cold_computes"]) + ", coalesced " +
             std::to_string(St["coalesced_requests"]) + " of " +
             std::to_string(DaemonRequests) + " requests");
    } else {
      R.check(false, "daemon stats: " + Text.errorMessage());
    }
  }
  std::string Death = D->stop();
  if (!Death.empty()) {
    // A dead daemon fails every request of the run.
    R.fail(Death);
    R.line("the daemon died during the run; every request of the run "
           "counts as failed (" +
           std::to_string(Lost) + " requests lost with the connection, " +
           std::to_string(Mismatched) + " responses differed from the "
           "reference)");
    R.Failed = R.Attempted;
    Ok = 0;
  }

  Latency WL = summarize(Warm), CL = summarize(Cold), AL = summarize(All);
  R.metric("setup_s", median(Setups), "s");
  R.metric("kernels_per_s",
           static_cast<double>(Ok) * KernelsPerSeed / Elapsed,
           "kernels/s");
  R.metric("latency_p50_ms", Mixed ? AL.P50 : WL.P50, "ms");
  R.metric("latency_p90_ms", Mixed ? AL.P90 : WL.P90, "ms");
  R.metric("peak_rss_mb", Rss, "MB");
  char Buf[200];
  R.line(describeSetup(Setups, "daemon start until its first answer"));
  std::snprintf(Buf, sizeof Buf,
                "requests_per_s = %.4f req/s (%" PRIu64
                " timed requests on %u connections in %.3f s)",
                static_cast<double>(TimedRequests) / Elapsed, TimedRequests,
                Connections, Elapsed);
  R.line(Buf);
  R.line(describeLatency("warm_p50_ms / warm_p90_ms (WarmKernels set)", WL));
  if (Mixed)
    R.line(describeLatency("cold_p50_ms (sampled, followers included)", CL));
  return R;
}

Report traceServe(const RunArgs &A, bool Mixed) {
  Report R;
  Seeds S = seedsFor(A.Seed);
  std::string Store = A.Work + "/serve-store";
  if (!prepareStore(A, R, Store, S.Stored))
    return R;
  std::vector<size_t> Q;
  Stream Traffic(A.Seed, 0, Mixed);
  for (size_t K = 0; K < TracedRequests; ++K)
    Q.push_back(Traffic.next(S.Stored, S.Fresh));

  // Artifact paths and a loaded pipeline for the replay's store reads;
  // preparation, outside both timings.
  auto Pipe =
      core::ClgenPipeline::trainOrLoad(Store, minedFiles(), pipelineOptions());
  R.check(Pipe.ok(), "replay pipeline failed to load");
  if (!Pipe.ok())
    return R;
  uint64_t Fingerprint =
      core::ClgenPipeline::fingerprint(minedFiles(), pipelineOptions());
  std::string ModelPath =
      Store + "/model-" + store::hexDigest(Fingerprint) + ".clgs";
  std::string CorpusPath =
      Store + "/corpus-" + store::hexDigest(Fingerprint) + ".clgs";

  // Untraced: the same requests over one connection.
  double Untraced = 0;
  {
    Daemon D(A, Store, "untraced");
    auto C = D.start() ? D.connect()
                       : Result<serve::Client>::error("cannot spawn daemon");
    R.check(C.ok(), "untraced daemon: " + (C.ok() ? "" : C.errorMessage()));
    if (!C.ok())
      return R;
    (void)C.get().synthesize(request(A.Ref.Pool[S.Stored[0]].Seed));
    Clock::time_point U0 = Clock::now();
    for (size_t I : Q) {
      auto Resp = C.get().synthesize(request(A.Ref.Pool[I].Seed));
      R.check(Resp.ok() && checkResponse(A.Ref.Pool[I], Resp.get()).empty(),
              "untraced request for seed " +
                  std::to_string(A.Ref.Pool[I].Seed));
    }
    Untraced = secondsSince(U0);
    std::string Why = D.stop();
    R.check(Why.empty(), "untraced daemon: " + Why);
  }

  // Traced: in-process Server::synthesize beside Client::synthesize
  // over the socket, with the store reads, encoder and parser replayed
  // in between.
  Daemon D(A, Store, "traced");
  auto C = D.start() ? D.connect()
                     : Result<serve::Client>::error("cannot spawn daemon");
  R.check(C.ok(), "traced daemon: " + (C.ok() ? "" : C.errorMessage()));
  if (!C.ok())
    return R;
  serve::ServerConfig Cfg;
  Cfg.SocketPath = A.Work + "/inproc.sock";
  Cfg.StoreDir = Store;
  Cfg.FileCount = CorpusFiles;
  // start() opens the server's result cache and failure ledger; no
  // client ever connects to its socket.
  serve::Server InProc(Cfg);
  Status Up = InProc.start();
  R.check(Up.ok(), "in-process server: " + Up.errorMessage());
  if (!Up.ok())
    return R;
  store::ResultCache Cache(Store + "/results");
  store::FailureLedger Ledger(Store + "/failures");
  const runtime::Platform P = runtime::amdPlatform();
  Tracer T;
  Tally Tl;
  uint64_t ResponseBytes = 0, Warm = 0, Cold = 0, RespHits = 0;
  Clock::time_point V0 = Clock::now();
  {
    SpanScope Sp(&T, "githubsim", "githubsim::mineGithub");
    githubsim::GithubSimOptions G;
    G.FileCount = CorpusFiles;
    (void)githubsim::mineGithub(G);
  }
  {
    SpanScope Sp(&T, "model", "store::loadModel");
    (void)store::loadModel(ModelPath);
  }
  {
    SpanScope Sp(&T, "store", "store::loadCorpus");
    (void)store::loadCorpus(CorpusPath);
  }
  Tl.Reads += 1;
  Tl.ReadBytes += fileBytes(CorpusPath);
  // The daemon's first request loads its model; keep it out of the
  // per-request spans as the untraced run does.
  (void)C.get().synthesize(request(A.Ref.Pool[S.Stored[0]].Seed));
  uint64_t RemoteCold = 0;
  for (size_t K = 0; K < Q.size(); ++K) {
    const PoolEntry &Ref = A.Ref.Pool[Q[K]];
    serve::SynthesizeRequest Req = request(Ref.Seed);
    std::optional<Result<serve::SynthesizeResponse>> Local, Remote;
    auto CallLocal = [&] {
      SpanScope Sp(&T, "serve", "serve::Server::synthesize");
      Local.emplace(InProc.synthesize(Req));
    };
    auto CallRemote = [&] {
      SpanScope Sp(&T, "serve", "serve::Client::synthesize");
      Remote.emplace(C.get().synthesize(Req));
    };
    // Whichever call goes second finds the first one's store reads in
    // the page cache; alternating the order cancels that out of
    // socket_us.
    if (K % 2) {
      CallLocal();
      CallRemote();
    } else {
      CallRemote();
      CallLocal();
    }
    R.check(Remote->ok() && checkResponse(Ref, Remote->get()).empty(),
            "socket response for seed " + std::to_string(Ref.Seed));
    if (Remote->ok() && !Remote->get().WarmKernels)
      ++RemoteCold;
    if (!Local->ok()) {
      R.check(false, "in-process request: " + Local->errorMessage());
      continue;
    }
    const serve::SynthesizeResponse &LR = Local->get();
    (LR.WarmKernels ? Warm : Cold) += 1;
    R.check(checkResponse(Ref, LR).empty(),
            "in-process response for seed " + std::to_string(Ref.Seed));

    // Store read path of a warm request: the kernel-set archive, then
    // one result-cache (or ledger) probe per kernel.
    core::StreamingOptions SO = streamingOptions(Ref.Seed);
    bool Loaded = false;
    std::optional<core::SynthesisResult> Set;
    {
      SpanScope Sp(&T, "store", "ClgenPipeline::synthesizeOrLoad");
      Set.emplace(Pipe.get().synthesizeOrLoad(Store, SO.Synthesis, &Loaded));
    }
    R.check(Loaded, "kernel set of seed " + std::to_string(Ref.Seed) +
                        " was not in the store");
    Tl.Reads += 1;
    Rng DriverBase(SO.Driver.Seed);
    uint64_t Hits = 0;
    for (size_t K = 0; K < Set->Kernels.size(); ++K) {
      uint64_t Key = store::measurementKey(
          Set->Kernels[K].Kernel,
          runtime::batchDriverOptions(SO.Driver, DriverBase, K), P);
      std::optional<runtime::Measurement> Hit;
      {
        SpanScope Sp(&T, "store", "ResultCache::lookup");
        Hit = Cache.lookup(Key);
      }
      Tl.Reads += 1;
      if (Hit) {
        ++Tl.CacheHits;
        ++Hits;
        Tl.ReadBytes += fileBytes(Store + "/results/" +
                                  store::hexDigest(Key) + ".clgs");
        continue;
      }
      std::optional<store::FailureRecord> Known;
      {
        SpanScope Sp(&T, "store", "FailureLedger::lookup");
        Known = Ledger.lookup(Key);
      }
      Tl.Reads += 1;
      if (Known) {
        ++Tl.LedgerHits;
        ++Hits;
        Tl.ReadBytes += fileBytes(Store + "/failures/" +
                                  store::hexDigest(Key) + ".clgs");
      } else {
        ++Tl.Misses;
      }
    }
    if (LR.WarmKernels) {
      RespHits += LR.CacheHits + LR.LedgerHits;
      R.check(Hits == LR.CacheHits + LR.LedgerHits,
              "replayed store hits " + std::to_string(Hits) +
                  " differ from the response's " +
                  std::to_string(LR.CacheHits) + " + " +
                  std::to_string(LR.LedgerHits) + " for seed " +
                  std::to_string(Ref.Seed));
    }

    std::vector<uint8_t> Frame;
    {
      SpanScope Sp(&T, "serve", "serve::encodeSynthesizeResponse");
      Frame = serve::encodeSynthesizeResponse(LR);
    }
    ResponseBytes += Frame.size();
    std::optional<Result<serve::Message>> Parsed;
    {
      SpanScope Sp(&T, "serve", "serve::parseFrame");
      Parsed.emplace(serve::parseFrame(Frame));
    }
    R.check(Parsed->ok() &&
                checkResponse(Ref, Parsed->get().SynthResponse).empty(),
            "encode/parse round trip for seed " + std::to_string(Ref.Seed));
  }
  double Traced = secondsSince(V0);

  // Counts must equal the servers' own ServerStats.
  serve::ServerStats St = InProc.stats();
  R.check(St.SynthRequests == Q.size() && St.WarmLoads == Warm &&
              St.ColdComputes == Cold && St.CoalescedRequests == 0,
          "replay counts differ from the in-process ServerStats");
  auto Text = C.get().stats();
  auto DS = Text.ok() ? parseStats(Text.get())
                      : std::map<std::string, uint64_t>();
  R.check(DS["synth_requests"] == Q.size() + 1 &&
              DS["cold_computes"] == RemoteCold &&
              DS["warm_loads"] == Q.size() + 1 - RemoteCold &&
              DS["coalesced_requests"] == 0,
          "daemon ServerStats do not match the replayed requests");
  std::string Why = D.stop();
  R.check(Why.empty(), "traced daemon: " + Why);
  InProc.requestDrain();
  InProc.wait();

  R.metric("githubsim.files", static_cast<double>(CorpusFiles), "count");
  R.metric("model.archive_bytes", static_cast<double>(fileBytes(ModelPath)),
           "bytes");
  R.metric("serve.requests", static_cast<double>(Q.size()), "count");
  R.metric("serve.warm_loads", static_cast<double>(Warm), "count");
  R.metric("serve.cold_computes", static_cast<double>(Cold), "count");
  R.metric("serve.coalesced", 0.0, "count");
  R.metric("serve.response_bytes", static_cast<double>(ResponseBytes),
           "bytes");
  layerMetrics(R, T, Tl);
  R.metric("trace.untraced_s", Untraced, "s");
  R.metric("trace.traced_s", Traced, "s");
  R.metric("trace.overhead_pct", (Traced / Untraced - 1.0) * 100.0, "%");
  R.line("traced run: " + std::to_string(Q.size()) +
         " requests of connection 0's stream replayed on one thread "
         "(in-process engine, store reads, framing, then the socket); the "
         "untraced run sent the same requests over one connection. Warm "
         "responses carried " +
         std::to_string(RespHits) + " store hits");
  R.TraceJson = T.renderJson();
  return R;
}

} // namespace clbench
