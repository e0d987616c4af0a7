//===- support/Metrics.h - Process-wide metrics registry ---------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of counters, gauges and log-bucketed latency
/// histograms: the single reporting path for every subsystem (pool,
/// channel, pipeline, driver, store). Design points:
///
///  - Sharded counters: `Counter` spreads increments over cache-line
///    padded atomic shards indexed by a per-thread slot, so hot-path
///    `inc()` never contends across workers. `value()` sums the shards.
///  - Log-bucketed histograms: `Histogram` buckets by bit width, bucket
///    0 holds exactly {0} and bucket B >= 1 covers [2^(B-1), 2^B - 1].
///    65 buckets span the full uint64 range; recording is lock-free.
///  - Stability taxonomy: every metric registers as `Stable` (a pure
///    function of the workload — byte-identical across identical runs)
///    or `Volatile` (timing- or scheduling-dependent: durations, steal
///    counts, queue occupancy). `renderText({.SkipVolatile = true})`
///    is the byte-stability contract the pipeline tests enforce.
///  - Deterministic exposition: `renderText` emits integers only,
///    sorted by metric name, one line per metric — identical registry
///    state always renders identical bytes.
///
/// Instrumentation sites use the `CLGS_COUNT`/`CLGS_HIST_US`/... macros
/// below; like the failpoint sites, every build compiles them in.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUPPORT_METRICS_H
#define CLGEN_SUPPORT_METRICS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace clgen {
namespace support {

/// Steady-clock nanoseconds; the shared time source for histograms and
/// trace spans (monotonic, comparable within one process).
uint64_t telemetryNowNs();

/// How a metric behaves across identical runs of the same workload.
enum class MetricStability : uint8_t {
  /// A pure function of the workload: byte-identical across identical
  /// runs for any worker count (accepted kernels, cache hits, ...).
  Stable,
  /// Timing- or scheduling-dependent (durations, steals, occupancy):
  /// excluded from the byte-stability contract.
  Volatile,
};

/// Monotonic event counter, sharded to keep concurrent `inc()` free of
/// cross-thread cache-line contention.
class Counter {
public:
  void inc(uint64_t N = 1) {
    Shards[shardIndex()].V.fetch_add(N, std::memory_order_relaxed);
  }

  /// Sum over all shards. Exact once writers are quiescent; a snapshot
  /// otherwise.
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const Shard &S : Shards)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

  void reset() {
    for (Shard &S : Shards)
      S.V.store(0, std::memory_order_relaxed);
  }

private:
  static constexpr size_t NumShards = 8; // Power of two.

  static unsigned shardIndex() {
    static std::atomic<unsigned> Next{0};
    thread_local unsigned Mine =
        Next.fetch_add(1, std::memory_order_relaxed) & (NumShards - 1);
    return Mine;
  }

  struct alignas(64) Shard {
    std::atomic<uint64_t> V{0};
  };
  Shard Shards[NumShards];
};

/// Last-value gauge that also tracks the maximum ever set — e.g. queue
/// occupancy (last) and high-water mark (max).
class Gauge {
public:
  void set(int64_t V) {
    Last.store(V, std::memory_order_relaxed);
    updateMax(V);
  }

  /// Adds \p Delta (may be negative) and returns the new value; the
  /// maximum tracks the post-add value.
  int64_t add(int64_t Delta) {
    int64_t Now = Last.fetch_add(Delta, std::memory_order_relaxed) + Delta;
    updateMax(Now);
    return Now;
  }

  int64_t value() const { return Last.load(std::memory_order_relaxed); }
  int64_t maxValue() const { return Max.load(std::memory_order_relaxed); }

  void reset() {
    Last.store(0, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  void updateMax(int64_t V) {
    int64_t Cur = Max.load(std::memory_order_relaxed);
    while (V > Cur &&
           !Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> Last{0};
  std::atomic<int64_t> Max{0};
};

/// Lock-free log₂-bucketed histogram of uint64 samples (typically
/// microsecond latencies). Bucket 0 holds exactly {0}; bucket B >= 1
/// covers [2^(B-1), 2^B - 1].
class Histogram {
public:
  static constexpr size_t NumBuckets = 65;

  /// Bucket index for \p V: 0 for 0, otherwise bit_width(V).
  static size_t bucketFor(uint64_t V) {
    size_t W = 0;
    while (V != 0) {
      ++W;
      V >>= 1;
    }
    return W;
  }

  /// Smallest value mapped to bucket \p B (0, 1, 2, 4, 8, ...).
  static uint64_t bucketLowerBound(size_t B) {
    return B == 0 ? 0 : uint64_t(1) << (B - 1);
  }

  void record(uint64_t V) {
    Buckets[bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
    Count_.fetch_add(1, std::memory_order_relaxed);
    Sum_.fetch_add(V, std::memory_order_relaxed);
    atomicMin(Min_, V);
    atomicMax(Max_, V);
  }

  /// Folds \p Other into this histogram (exact when both are quiescent).
  void merge(const Histogram &Other) {
    for (size_t B = 0; B < NumBuckets; ++B)
      Buckets[B].fetch_add(Other.Buckets[B].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    uint64_t OtherCount = Other.Count_.load(std::memory_order_relaxed);
    if (OtherCount == 0)
      return;
    Count_.fetch_add(OtherCount, std::memory_order_relaxed);
    Sum_.fetch_add(Other.Sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    atomicMin(Min_, Other.Min_.load(std::memory_order_relaxed));
    atomicMax(Max_, Other.Max_.load(std::memory_order_relaxed));
  }

  uint64_t count() const { return Count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  uint64_t min() const {
    return count() == 0 ? 0 : Min_.load(std::memory_order_relaxed);
  }
  uint64_t max() const { return Max_.load(std::memory_order_relaxed); }
  uint64_t bucketCount(size_t B) const {
    return Buckets[B].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Count_.store(0, std::memory_order_relaxed);
    Sum_.store(0, std::memory_order_relaxed);
    Min_.store(UINT64_MAX, std::memory_order_relaxed);
    Max_.store(0, std::memory_order_relaxed);
  }

private:
  static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V < Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V > Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count_{0};
  std::atomic<uint64_t> Sum_{0};
  std::atomic<uint64_t> Min_{UINT64_MAX};
  std::atomic<uint64_t> Max_{0};
};

/// Options for MetricsRegistry::renderText.
struct RenderOptions {
  /// Drop Volatile metrics; what remains is byte-identical across
  /// identical runs of the same workload.
  bool SkipVolatile = false;
};

/// The process-wide metric namespace. Registration returns a reference
/// that stays valid for the life of the process (instrumentation sites
/// cache it in a function-local static); `reset()` zeroes values but
/// never invalidates handles. Registering the same (kind, name) twice
/// returns the same metric; the first registration's stability wins.
class MetricsRegistry {
public:
  static Counter &counter(std::string_view Name,
                          MetricStability S = MetricStability::Stable);
  static Gauge &gauge(std::string_view Name,
                      MetricStability S = MetricStability::Volatile);
  static Histogram &histogram(std::string_view Name,
                              MetricStability S = MetricStability::Volatile);

  /// Lookup without registering; nullptr when the metric was never
  /// registered in this process. For tests and report generators.
  static const Counter *findCounter(std::string_view Name);
  static const Gauge *findGauge(std::string_view Name);
  static const Histogram *findHistogram(std::string_view Name);

  /// Deterministic text exposition: one line per metric, sorted by
  /// name, integers only. Identical registry state renders identical
  /// bytes. Format (v1):
  ///
  ///   # clgen metrics v1
  ///   counter <name> <value> <stable|volatile>
  ///   gauge <name> last=<v> max=<m> <stable|volatile>
  ///   histogram <name> count=<c> sum=<s> min=<lo> max=<hi>
  ///       buckets=<b>:<n>,... <stable|volatile>   (one line)
  ///
  /// Empty histograms render `buckets=-`.
  static std::string renderText(const RenderOptions &Opts = {});

  /// Zeroes every registered metric (handles stay valid). For tests
  /// and per-run reporting.
  static void reset();
};

} // namespace support
} // namespace clgen

//===----------------------------------------------------------------------===//
// Instrumentation-site macros
//===----------------------------------------------------------------------===//
//
// Each site pays one function-local-static guard check plus a relaxed
// atomic op. NAME must be a string literal. The _V variants register the
// metric as Volatile (scheduling/timing dependent).

#define CLGS_COUNT(NAME) CLGS_COUNT_N(NAME, 1)
#define CLGS_COUNT_N(NAME, N)                                                  \
  do {                                                                         \
    static ::clgen::support::Counter &ClgsC_ =                                 \
        ::clgen::support::MetricsRegistry::counter(NAME);                      \
    ClgsC_.inc(N);                                                             \
  } while (false)
#define CLGS_COUNT_V(NAME) CLGS_COUNT_VN(NAME, 1)
#define CLGS_COUNT_VN(NAME, N)                                                 \
  do {                                                                         \
    static ::clgen::support::Counter &ClgsC_ =                                 \
        ::clgen::support::MetricsRegistry::counter(                            \
            NAME, ::clgen::support::MetricStability::Volatile);                \
    ClgsC_.inc(N);                                                             \
  } while (false)
#define CLGS_GAUGE_ADD(NAME, DELTA)                                            \
  do {                                                                         \
    static ::clgen::support::Gauge &ClgsG_ =                                   \
        ::clgen::support::MetricsRegistry::gauge(NAME);                        \
    ClgsG_.add(DELTA);                                                         \
  } while (false)
#define CLGS_GAUGE_SET(NAME, VALUE)                                            \
  do {                                                                         \
    static ::clgen::support::Gauge &ClgsG_ =                                   \
        ::clgen::support::MetricsRegistry::gauge(NAME);                        \
    ClgsG_.set(VALUE);                                                         \
  } while (false)
#define CLGS_HIST_US(NAME, VALUE)                                              \
  do {                                                                         \
    static ::clgen::support::Histogram &ClgsH_ =                               \
        ::clgen::support::MetricsRegistry::histogram(NAME);                    \
    ClgsH_.record(VALUE);                                                      \
  } while (false)

#endif // CLGEN_SUPPORT_METRICS_H
