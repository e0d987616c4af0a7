//===- support/Channel.h - Bounded MPMC channel ------------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded multi-producer/multi-consumer queue with close semantics —
/// the backbone of the streaming synthesis→measurement pipeline. Design
/// points:
///
///  - Bounded: push() blocks while the channel is full, so a fast
///    producer is back-pressured to the consumers' pace instead of
///    buffering unbounded speculative work. Capacity must be positive;
///    a zero-capacity channel could never move a value through push/pop
///    and is rejected at construction.
///  - Close semantics: close() is idempotent and wakes every blocked
///    thread. Pushes on a closed channel return false and drop the
///    value; pops drain whatever is already buffered, then return
///    nullopt. "nullopt from pop()" is therefore the consumers' only
///    termination signal — no sentinel values in the element type.
///  - FIFO: values pop in push order. The pipeline does not rely on
///    this for correctness (results are keyed by index and re-ordered
///    by the caller), but FIFO keeps the measurement tail short: the
///    oldest accepted kernel is always the next one measured.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUPPORT_CHANNEL_H
#define CLGEN_SUPPORT_CHANNEL_H

#include "support/Metrics.h"
#include "support/Trace.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

namespace clgen {
namespace support {

/// Bounded MPMC queue of T with close semantics.
template <typename T> class Channel {
public:
  /// Creates a channel buffering at most \p Capacity values. Throws
  /// std::invalid_argument when \p Capacity is zero.
  explicit Channel(size_t Capacity) : Cap(Capacity) {
    if (Capacity == 0)
      throw std::invalid_argument("Channel capacity must be positive");
  }

  Channel(const Channel &) = delete;
  Channel &operator=(const Channel &) = delete;

  /// Blocks until space is available or the channel is closed. Returns
  /// true when \p Value was enqueued; false when the channel was (or
  /// became) closed, in which case the value is dropped.
  bool push(T Value) {
    std::unique_lock<std::mutex> Lock(Mutex);
    // Metrics aggregate over every Channel instance in the process;
    // blocked-producer time only charges the waits that actually park.
    if (!Closed && Buffer.size() >= Cap) {
      CLGS_COUNT_V("clgen.channel.push_blocks");
      CLGS_TRACE_INSTANT("channel.full");
      uint64_t T0 = telemetryNowNs();
      NotFull.wait(Lock, [this] { return Closed || Buffer.size() < Cap; });
      CLGS_HIST_US("clgen.channel.push_block_us",
                   (telemetryNowNs() - T0) / 1000);
    }
    if (Closed)
      return false;
    Buffer.push_back(std::move(Value));
    CLGS_COUNT("clgen.channel.pushes");
    CLGS_GAUGE_SET("clgen.channel.occupancy",
                   static_cast<int64_t>(Buffer.size()));
    Lock.unlock();
    NotEmpty.notify_one();
    return true;
  }

  /// Non-blocking push: false when the channel is full or closed (the
  /// value is left untouched so the caller can retry or divert it).
  bool tryPush(T &Value) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Closed || Buffer.size() >= Cap)
        return false;
      Buffer.push_back(std::move(Value));
    }
    NotEmpty.notify_one();
    return true;
  }

  /// Blocks until a value is available or the channel is closed and
  /// drained. Returns nullopt only in the latter case — buffered values
  /// survive close() and are always delivered.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (!Closed && Buffer.empty()) {
      CLGS_COUNT_V("clgen.channel.pop_blocks");
      CLGS_TRACE_INSTANT("channel.empty");
      uint64_t T0 = telemetryNowNs();
      NotEmpty.wait(Lock, [this] { return Closed || !Buffer.empty(); });
      CLGS_HIST_US("clgen.channel.pop_block_us",
                   (telemetryNowNs() - T0) / 1000);
    }
    if (Buffer.empty())
      return std::nullopt; // Closed and drained.
    std::optional<T> Out(std::move(Buffer.front()));
    Buffer.pop_front();
    CLGS_COUNT("clgen.channel.pops");
    Lock.unlock();
    NotFull.notify_one();
    return Out;
  }

  /// Non-blocking pop: nullopt when nothing is buffered right now
  /// (whether or not the channel is closed; poll closed() to tell).
  std::optional<T> tryPop() {
    std::optional<T> Out;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Buffer.empty())
        return std::nullopt;
      Out.emplace(std::move(Buffer.front()));
      Buffer.pop_front();
    }
    NotFull.notify_one();
    return Out;
  }

  /// Closes the channel: subsequent (and currently blocked) pushes fail,
  /// pops drain the remaining buffer then return nullopt. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Closed)
        return;
      Closed = true;
    }
    NotFull.notify_all();
    NotEmpty.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Closed;
  }

  /// Number of values currently buffered (racy by nature; for tests and
  /// diagnostics).
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Buffer.size();
  }

  size_t capacity() const { return Cap; }

private:
  const size_t Cap;
  mutable std::mutex Mutex;
  std::condition_variable NotFull;
  std::condition_variable NotEmpty;
  std::deque<T> Buffer;
  bool Closed = false;
};

} // namespace support
} // namespace clgen

#endif // CLGEN_SUPPORT_CHANNEL_H
