//===- support/Trace.h - Thread-aware span tracing ---------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded, thread-aware span tracing for the synthesis→measurement
/// pipeline, exported as Chrome trace-event JSON (load the file in
/// Perfetto / chrome://tracing). Design points:
///
///  - Per-thread bounded buffers: each recording thread appends to its
///    own pre-registered buffer, so the hot path takes no lock and
///    shares no cache lines — trivially race-free under TSan. When a
///    buffer fills, newer events are dropped and counted (never
///    blocking the pipeline).
///  - Session generations: `Trace::start()` bumps a generation; a
///    thread's cached buffer re-arms lazily on first record of the new
///    session, so start/stop cycles reuse buffers without handshakes.
///  - Names are string literals: events store `const char *` and never
///    copy, keeping a span record to a few stores.
///  - Export after quiescence: call `renderJson()` only after `stop()`
///    and after joining the threads that recorded — the exporter walks
///    the buffers unlocked.
///
/// Spans mark the kernel lifecycle stages (sample → filter → accept →
/// enqueue → measure → cache/ledger write); instants mark pool/channel
/// edge events (steals, full/empty transitions). Sites use
/// CLGS_TRACE_SPAN / CLGS_TRACE_INSTANT below.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUPPORT_TRACE_H
#define CLGEN_SUPPORT_TRACE_H

#include "support/Metrics.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace clgen {
namespace support {

struct TraceOptions {
  /// Bound on events recorded per thread per session; overflow drops
  /// (and counts) rather than growing or blocking.
  size_t EventsPerThread = 1 << 16;
};

/// Process-wide trace session control. One session at a time:
/// start() → record via macros → stop() → renderJson().
class Trace {
public:
  /// Hot-path guard: false outside start()/stop(), in which case span
  /// construction is a single relaxed load.
  static bool active() { return Active.load(std::memory_order_relaxed); }

  /// Begins a new session, discarding events from prior sessions.
  static void start(const TraceOptions &Opts = {});

  /// Ends the session. Events stay readable until the next start().
  static void stop();

  /// Chrome trace-event JSON for the last session: a `traceEvents`
  /// array of "X" (complete span) and "i" (instant) events, ts/dur in
  /// microseconds, tid = buffer registration order. Deterministically
  /// ordered (sorted by timestamp, tid, name). Call after stop() with
  /// recording threads joined.
  static std::string renderJson();

  /// Events captured in the last session (post-stop, threads joined).
  static size_t eventCount();

  /// Events dropped to the per-thread bound in the last session.
  static size_t droppedCount();

  /// Records a completed span of [StartNs, StartNs + DurNs). \p Name
  /// must be a string literal. \p Index tags the event's `args.index`
  /// (kIndexNone = no tag). No-op when inactive.
  static void span(const char *Name, uint64_t StartNs, uint64_t DurNs,
                   uint64_t Index = kIndexNone);

  /// Records a zero-duration instant event. No-op when inactive.
  static void instant(const char *Name, uint64_t Index = kIndexNone);

  static constexpr uint64_t kIndexNone = ~uint64_t(0);

private:
  static std::atomic<bool> Active;
};

/// RAII span: samples the clock at construction and records on
/// destruction. Costs one relaxed load when tracing is inactive.
class ScopedTraceSpan {
public:
  explicit ScopedTraceSpan(const char *Name,
                           uint64_t Index = Trace::kIndexNone)
      : Name(Trace::active() ? Name : nullptr), Index(Index),
        StartNs(this->Name ? telemetryNowNs() : 0) {}

  ~ScopedTraceSpan() {
    if (Name)
      Trace::span(Name, StartNs, telemetryNowNs() - StartNs, Index);
  }

  ScopedTraceSpan(const ScopedTraceSpan &) = delete;
  ScopedTraceSpan &operator=(const ScopedTraceSpan &) = delete;

private:
  const char *Name;
  uint64_t Index;
  uint64_t StartNs;
};

} // namespace support
} // namespace clgen

// Two levels, so __LINE__ expands before the paste and every span gets
// its own variable: two spans can share a scope.
#define CLGS_TRACE_CONCAT_IMPL(A, B) A##B
#define CLGS_TRACE_CONCAT(A, B) CLGS_TRACE_CONCAT_IMPL(A, B)
#define CLGS_TRACE_SPAN(NAME)                                                  \
  ::clgen::support::ScopedTraceSpan CLGS_TRACE_CONCAT(ClgsSpan_, __LINE__)(NAME)
#define CLGS_TRACE_SPAN_IDX(NAME, INDEX)                                       \
  ::clgen::support::ScopedTraceSpan CLGS_TRACE_CONCAT(ClgsSpan_, __LINE__)(    \
      NAME, static_cast<uint64_t>(INDEX))
#define CLGS_TRACE_INSTANT(NAME) ::clgen::support::Trace::instant(NAME)
#define CLGS_TRACE_INSTANT_IDX(NAME, INDEX)                                    \
  ::clgen::support::Trace::instant(NAME, static_cast<uint64_t>(INDEX))

#endif // CLGEN_SUPPORT_TRACE_H
