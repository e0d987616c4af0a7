//===- store/Lock.h - Advisory cross-process file locks ----------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-process stampede control for the artifact store. A ScopedLock
/// is an advisory `flock(2)` exclusive lock on a dedicated lock file;
/// it serializes the *expensive miss path* of the warm-start layers
/// (trainOrLoad, and synthesizeOrLoad / synthesizeAndMeasureOrLoad,
/// which share one "synthesis" lock) so that N concurrent cold runs of
/// one configuration do the training / sampling and measurement work
/// exactly once instead of N times.
///
/// Protocol (documented normatively in docs/STORE_FORMAT.md §6):
///
///   1. Fast path, LOCK-FREE: probe the store. A hit never touches a
///      lock file — warm runs are completely unaffected by locking.
///   2. On a miss, acquire `<store>/locks/<artifact-class>-<key>.lock`
///      exclusively, with a bounded wait (poll + sleep up to a
///      deadline, never an unbounded block).
///   3. Holding the lock, RE-PROBE the store (double-checked locking):
///      a racer may have published the artifact while we waited. A hit
///      here consumes it and skips the work.
///   4. Still a miss: do the work, publish atomically (temp + rename),
///      release.
///
/// The locks are strictly advisory and strictly an optimization: every
/// writer still publishes via atomic rename, so a process that skips,
/// loses or times out on the lock produces a byte-identical artifact
/// and the worst outcome is duplicated work — exactly the pre-lock
/// behavior. Lock files carry no data (they are empty and are never
/// deleted by lock holders, which makes the acquire path free of the
/// unlink/reopen races that plague delete-on-release schemes); the
/// store sweep ignores `locks/`, and `clgen-store vacuum` may prune
/// the directory when no locks are held.
///
/// flock semantics worth spelling out: the lock is tied to the open
/// file description, so two threads of one process that each open the
/// lock file exclude each other exactly like two processes do — one
/// ScopedLock therefore serializes both thread- and process-level
/// stampedes. Locks vanish automatically when the holder exits or
/// crashes (the kernel releases them with the last close), so a crashed
/// trainer can never wedge the store.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_STORE_LOCK_H
#define CLGEN_STORE_LOCK_H

#include "support/Result.h"

#include <chrono>
#include <cstdint>
#include <string>

namespace clgen {
namespace store {

/// How long an acquire may wait for a contended lock. The wait is
/// always bounded: stampede control degrades to duplicated work, never
/// to a hang.
struct LockOptions {
  /// Total time to keep retrying a held lock before giving up.
  std::chrono::milliseconds Timeout{60000};
  /// Sleep between acquisition attempts while contended.
  std::chrono::milliseconds PollInterval{10};
};

/// RAII holder of one advisory exclusive file lock. Move-only; the
/// destructor releases. A default-constructed ScopedLock holds nothing
/// (held() is false) — callers that treat locking as best-effort can
/// carry one unconditionally.
class ScopedLock {
public:
  ScopedLock() = default;
  ScopedLock(ScopedLock &&Other) noexcept;
  ScopedLock &operator=(ScopedLock &&Other) noexcept;
  ScopedLock(const ScopedLock &) = delete;
  ScopedLock &operator=(const ScopedLock &) = delete;
  ~ScopedLock() { release(); }

  /// Non-blocking acquisition attempt: creates the lock file (and its
  /// parent directories) if needed and tries to take the exclusive
  /// flock exactly once. Fails immediately when another holder exists.
  static Result<ScopedLock> tryAcquire(const std::string &Path);

  /// Bounded-wait acquisition: the fast path is one non-blocking
  /// attempt; while CONTENDED it retries every Opts.PollInterval until
  /// Opts.Timeout expires, then fails. Never blocks unboundedly, and
  /// never retries non-contention failures (an unopenable lock file is
  /// permanent — callers degrade to duplicated work immediately
  /// instead of stalling out the timeout).
  static Result<ScopedLock> acquire(const std::string &Path,
                                    const LockOptions &Opts = LockOptions());

  /// The miss-path acquisition pattern shared by every warm-start
  /// layer: bounded-wait acquire (whose first attempt is non-blocking,
  /// so uncontended misses never sleep), folded to an UNHELD lock on
  /// timeout or error — stampede control is best-effort by contract,
  /// so callers just proceed (and re-probe when held() is true).
  static ScopedLock acquireForMiss(const std::string &Path,
                                   const LockOptions &Opts = LockOptions());

  /// True while this object holds the lock.
  bool held() const { return Fd >= 0; }
  const std::string &path() const { return LockPath; }

  /// Releases early (idempotent; the destructor calls it too).
  void release();

private:
  /// One acquisition attempt; \p Contended reports whether the failure
  /// was another holder (retryable) vs an unopenable lock file
  /// (permanent).
  static Result<ScopedLock> tryAcquireImpl(const std::string &Path,
                                           bool &Contended);

  int Fd = -1; // Open file descriptor owning the flock; -1 = not held.
  std::string LockPath;
};

/// The lock file path for an artifact class + content key inside a
/// store directory: `<dir>/locks/<what>-<16 hex chars of key>.lock`.
/// Centralized so every subsystem (and the docs) agree on the layout.
std::string lockFilePath(const std::string &StoreDir, const char *What,
                         uint64_t Key);

} // namespace store
} // namespace clgen

#endif // CLGEN_STORE_LOCK_H
