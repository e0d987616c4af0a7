//===- serve/Server.h - clgen-serve pipeline daemon --------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `clgen-serve` daemon: a long-running front end that accepts
/// synthesis/measurement requests over a Unix-domain stream socket
/// (serve/Protocol.h frames) and multiplexes them onto the existing
/// channel-based streaming engine. This is the layer that turns
/// "cache + locks + GC" into "service":
///
/// - **Multiplexed request engine.** One accept loop, one connection
///   thread per client; any number of clients share one trained model,
///   one result cache/failure ledger, and one artifact store.
/// - **In-flight dedup.** Identical concurrent requests coalesce onto
///   exactly one computation (serve/Coalescer.h); underneath, the
///   store::ScopedLock layer dedupes against OTHER processes sharing
///   the store. K identical concurrent cold requests — threads or
///   fork()ed clients — train/sample/measure exactly once.
/// - **Warm start.** Requests run through
///   ClgenPipeline::synthesizeAndMeasureOrLoad: when the kernel-set
///   artifact is warm, the channel producer is an archive reader and
///   the request performs zero sampling; responses carry per-request
///   work provenance (models trained, samples drawn, kernels measured)
///   so a warm request provably reports 0/0/0.
/// - **Lazy model.** The model is trained (or store-loaded) on the
///   first synthesis request, not at startup, so the serving cost of
///   every request — including the one that paid for training — is
///   honestly attributed in its response provenance.
/// - **Background sweeper.** An interval + byte-budget store::sweep
///   runs on its own thread (the deferred PR 5 lifecycle work); sweeps
///   never mutate surviving artifact bytes, so they are safe to run
///   concurrent with requests.
/// - **Graceful drain.** requestDrain() (async-signal-safe, so a
///   SIGTERM handler can call it directly) stops the accept loop,
///   half-closes idle connections, lets in-flight requests finish and
///   write their responses, stops the sweeper, and flushes metrics/
///   trace files if configured. Advisory store locks are request-
///   scoped RAII, so drain never leaves one held.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SERVE_SERVER_H
#define CLGEN_SERVE_SERVER_H

#include "clgen/Pipeline.h"
#include "serve/Coalescer.h"
#include "serve/Protocol.h"
#include "store/FailureLedger.h"
#include "store/ResultCache.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace clgen {
namespace serve {

/// Daemon configuration. Scheduling and policy only — the semantic
/// synthesis configuration arrives per-request.
struct ServerConfig {
  /// Unix-domain socket path (created on start, unlinked on wait()).
  std::string SocketPath;
  /// Artifact store directory: model/corpus/kernel-set archives, the
  /// result cache, the failure ledger, locks and the sweeper all live
  /// here.
  std::string StoreDir;
  /// githubsim corpus size the daemon's model is trained on (model
  /// identity: part of the training fingerprint).
  size_t FileCount = 400;
  /// Streaming scheduling knobs (results bit-identical for any value).
  unsigned MeasureWorkers = 1;
  size_t QueueCapacity = 0;
  /// Background sweeper: interval between store::sweep runs (0 = off)
  /// and the byte budget each sweep enforces (0 = validate/quarantine
  /// only, evict nothing).
  uint64_t SweepIntervalMs = 0;
  uint64_t SweepBudgetBytes = 0;
  /// Flushed on drain when non-empty.
  std::string MetricsOut;
  std::string TraceOut;
};

/// A snapshot of the daemon's counters (also rendered as the text body
/// of a StatsResponse).
struct ServerStats {
  uint64_t RequestsServed = 0;    // All requests, every type.
  uint64_t SynthRequests = 0;     // SynthesizeRequests accepted.
  uint64_t InvalidRequests = 0;   // Validation/protocol rejections.
  uint64_t ColdComputes = 0;      // Flights that ran the cold pipeline.
  uint64_t WarmLoads = 0;         // Flights served from the artifact.
  uint64_t CoalescedRequests = 0; // Followers that piggybacked.
  uint64_t TrainedModels = 0;     // Models trained since startup.
  uint64_t Sweeps = 0;            // Completed background sweeps.
  uint64_t SweepEvictedBytes = 0; // Bytes the sweeper reclaimed.
  uint64_t ActiveRequests = 0;    // Requests in flight right now.
  bool Draining = false;
};

/// The daemon. Construct, start(), then wait() for drain (triggered by
/// requestDrain(), a client ShutdownRequest, or a signal handler).
class Server {
public:
  explicit Server(ServerConfig Cfg);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and spawns the accept loop (and the sweeper when
  /// configured). Fails when the socket cannot be created/bound.
  Status start();

  /// Initiates graceful drain: async-signal-safe (one write(2) to a
  /// self-pipe), so SIGTERM handlers may call it directly. Idempotent.
  void requestDrain();

  /// Blocks until the drain completes: accept loop down, in-flight
  /// requests finished and answered, sweeper stopped, telemetry
  /// flushed, socket unlinked. Returns once the process may exit.
  void wait();

  /// True once requestDrain() has been observed by the accept loop.
  bool draining() const { return Draining.load(); }

  ServerStats stats() const;

  /// stats() rendered as "key value" lines (the StatsResponse body and
  /// the check_serve fixture's assertion surface).
  std::string renderStats() const;

  /// Handles one already-parsed synthesis request (exposed for direct
  /// in-process tests; connection threads route through this too).
  /// Coalesces identical in-flight configurations and reports
  /// per-flight work provenance in the response.
  Result<SynthesizeResponse> synthesize(const SynthesizeRequest &Req);

private:
  void acceptLoop();
  void sweeperLoop();
  void serveConnection(int Fd);
  Result<SynthesizeResponse> runFlight(const SynthesizeRequest &Req);

  /// Lazily trains or store-loads the daemon's model. \p TrainedNow is
  /// true only for the single call that actually trained.
  Result<core::ClgenPipeline *> ensureModel(bool &TrainedNow);

  ServerConfig Cfg;
  int ListenFd = -1;
  int WakePipe[2] = {-1, -1}; // Self-pipe: requestDrain -> accept loop.
  std::thread AcceptThread;
  std::thread SweeperThread;
  std::atomic<bool> Started{false};
  std::atomic<bool> Draining{false};
  std::atomic<bool> Drained{false};

  // Connections. Guarded by ConnMutex; drain half-closes every fd so
  // blocked readers wake with EOF while in-flight responses still
  // write out. Workers never close their own fd (a racing drain-side
  // shutdown() could then hit a reused descriptor) — they mark Done
  // and the accept loop reaps: join + close + erase.
  struct Connection {
    int Fd = -1;
    std::atomic<bool> Done{false};
    std::thread Worker;
  };
  void reapConnections(bool All);
  std::mutex ConnMutex;
  std::vector<std::unique_ptr<Connection>> Connections;

  // The lazily-initialized pipeline (one model shared by all requests).
  std::mutex ModelMutex;
  std::unique_ptr<core::ClgenPipeline> Pipeline;

  // Store-backed measurement state shared by every request.
  std::unique_ptr<store::ResultCache> Cache;
  std::unique_ptr<store::FailureLedger> Ledger;

  Coalescer<SynthesizeResponse> Flights;

  // Sweeper coordination.
  std::mutex SweepMutex;
  std::condition_variable SweepCv;

  // Counters (see ServerStats).
  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> SynthRequests{0};
  std::atomic<uint64_t> InvalidRequests{0};
  std::atomic<uint64_t> ColdComputes{0};
  std::atomic<uint64_t> WarmLoads{0};
  std::atomic<uint64_t> TrainedModels{0};
  std::atomic<uint64_t> Sweeps{0};
  std::atomic<uint64_t> SweepEvictedBytes{0};
  std::atomic<uint64_t> ActiveRequests{0};
};

/// The semantic coalescing key of a request: a digest of exactly the
/// fields that determine the result. Exposed for the coalescing tests.
uint64_t requestKey(const SynthesizeRequest &Req);

} // namespace serve
} // namespace clgen

#endif // CLGEN_SERVE_SERVER_H
