//===- store/Lock.cpp - Advisory cross-process file locks ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/Lock.h"

#include "store/Archive.h"
#include "support/FailPoint.h"

#include <filesystem>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace clgen;
using namespace clgen::store;

ScopedLock::ScopedLock(ScopedLock &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)),
      LockPath(std::move(Other.LockPath)) {}

ScopedLock &ScopedLock::operator=(ScopedLock &&Other) noexcept {
  if (this != &Other) {
    release();
    Fd = std::exchange(Other.Fd, -1);
    LockPath = std::move(Other.LockPath);
  }
  return *this;
}

void ScopedLock::release() {
  if (Fd >= 0) {
    // close() drops the flock with the file description; an explicit
    // unlock first keeps the window where a dead fd still excludes
    // others as small as possible.
    ::flock(Fd, LOCK_UN);
    ::close(Fd);
  }
  Fd = -1;
  LockPath.clear();
}

/// One acquisition attempt. \p Contended distinguishes "someone else
/// holds it" (retryable) from "the lock file cannot be opened at all"
/// (permanent — e.g. a read-only store; retrying cannot help).
Result<ScopedLock> ScopedLock::tryAcquireImpl(const std::string &Path,
                                              bool &Contended) {
  Contended = false;
  std::error_code Ec;
  std::filesystem::path P(Path);
  if (P.has_parent_path())
    std::filesystem::create_directories(P.parent_path(), Ec);

  // Lock files are created once and never unlinked by holders: an
  // unlink/reopen scheme lets a racer lock a file that is about to
  // disappear, after which two "holders" lock two different inodes.
  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0)
    return Result<ScopedLock>::error("cannot open lock file: " + Path);
  if (::flock(Fd, LOCK_EX | LOCK_NB) != 0) {
    Contended = errno == EWOULDBLOCK || errno == EINTR;
    ::close(Fd);
    return Result<ScopedLock>::error("lock is held: " + Path);
  }
  ScopedLock L;
  L.Fd = Fd;
  L.LockPath = Path;
  return L;
}

Result<ScopedLock> ScopedLock::tryAcquire(const std::string &Path) {
  bool Contended = false;
  return tryAcquireImpl(Path, Contended);
}

Result<ScopedLock> ScopedLock::acquire(const std::string &Path,
                                       const LockOptions &Opts) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline = Clock::now() + Opts.Timeout;
  for (;;) {
    bool Contended = false;
    Result<ScopedLock> R = tryAcquireImpl(Path, Contended);
    if (R.ok())
      return R;
    // Only contention is worth waiting out; an unopenable lock file
    // is permanent, and stalling the timeout there would turn every
    // cold miss on a read-only store into a multi-second hang.
    if (!Contended)
      return R;
    if (Clock::now() >= Deadline)
      return Result<ScopedLock>::error("timed out waiting for lock: " +
                                       Path);
    std::this_thread::sleep_for(Opts.PollInterval);
  }
}

ScopedLock ScopedLock::acquireForMiss(const std::string &Path,
                                      const LockOptions &Opts) {
  // Injected acquisition failure: exercises the documented degrade path
  // (proceed unlocked, risking only duplicated work — never corruption,
  // because publication stays atomic-rename).
  if (CLGS_FAILPOINT("store.lock"))
    return ScopedLock();
  // acquire()'s first iteration is already a non-blocking try, so an
  // uncontended miss takes the lock without ever sleeping.
  Result<ScopedLock> Lock = acquire(Path, Opts);
  return Lock.ok() ? Lock.take() : ScopedLock();
}

std::string store::lockFilePath(const std::string &StoreDir,
                                const char *What, uint64_t Key) {
  return StoreDir + "/locks/" + What + "-" + hexDigest(Key) + ".lock";
}
