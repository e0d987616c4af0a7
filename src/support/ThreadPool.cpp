//===- support/ThreadPool.cpp - Work-stealing thread pool ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>

using namespace clgen;

size_t ThreadPool::resolveWorkerCount(size_t Requested) {
  if (Requested > 0)
    return Requested;
  size_t HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 1;
}

ThreadPool::ThreadPool(size_t Workers) {
  size_t N = resolveWorkerCount(Workers);
  Queues.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Threads.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

bool ThreadPool::popOrSteal(size_t Worker, Task &Out) {
  // Own queue first: newest task (LIFO) for cache locality.
  {
    WorkerQueue &Q = *Queues[Worker];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (!Q.Deque.empty()) {
      Out = std::move(Q.Deque.back());
      Q.Deque.pop_back();
      return true;
    }
  }
  // Steal the oldest task from the first non-empty victim.
  for (size_t Step = 1; Step < Queues.size(); ++Step) {
    WorkerQueue &Q = *Queues[(Worker + Step) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (!Q.Deque.empty()) {
      Out = std::move(Q.Deque.front());
      Q.Deque.pop_front();
      // Which worker steals is a scheduling accident: volatile.
      CLGS_COUNT_V("clgen.pool.steals");
      CLGS_TRACE_INSTANT_IDX("pool.steal", Worker);
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(size_t Worker, Task &T) {
  CLGS_COUNT("clgen.pool.tasks");
  uint64_t TaskT0 = support::telemetryNowNs();
  try {
    T(Worker);
  } catch (...) {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (!FirstError)
      FirstError = std::current_exception();
  }
  CLGS_HIST_US("clgen.pool.task_us",
               (support::telemetryNowNs() - TaskT0) / 1000);
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    --PendingTasks;
    if (PendingTasks == 0)
      BatchDone.notify_all();
  }
}

void ThreadPool::workerLoop(size_t Worker) {
  for (;;) {
    uint64_t SeenEpoch;
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      SeenEpoch = SubmitEpoch;
    }
    Task T;
    if (popOrSteal(Worker, T)) {
      runTask(Worker, T);
      continue;
    }
    std::unique_lock<std::mutex> Lock(StateMutex);
    if (ShuttingDown)
      return;
    // Sleep only while nothing was submitted since our (empty) scan; a
    // submission that raced the scan leaves SubmitEpoch advanced and we
    // loop straight back to the queues.
    CLGS_COUNT_V("clgen.pool.idle_waits");
    uint64_t IdleT0 = support::telemetryNowNs();
    WorkAvailable.wait(Lock, [this, SeenEpoch] {
      return ShuttingDown || SubmitEpoch != SeenEpoch;
    });
    CLGS_HIST_US("clgen.pool.idle_us",
                 (support::telemetryNowNs() - IdleT0) / 1000);
  }
}

void ThreadPool::parallelFor(
    size_t Begin, size_t End,
    const std::function<void(size_t Worker, size_t Index)> &Fn) {
  if (Begin >= End)
    return;
  size_t Count = End - Begin;
  if (workerCount() == 1 || Count == 1) {
    // Inline fast path: no queueing, caller acts as worker 0.
    for (size_t I = Begin; I < End; ++I)
      Fn(0, I);
    return;
  }

  // Chunk the range so each worker starts with a contiguous slice;
  // stealing rebalances when iteration costs are skewed.
  size_t Chunks = std::min(Count, workerCount() * 4);
  size_t PerChunk = (Count + Chunks - 1) / Chunks;

  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    FirstError = nullptr;
    PendingTasks += Chunks;
    // Tasks queued but not yet finished; the max is the depth
    // high-water mark.
    CLGS_GAUGE_SET("clgen.pool.queue_depth", PendingTasks);
  }
  for (size_t C = 0; C < Chunks; ++C) {
    size_t Lo = Begin + C * PerChunk;
    size_t Hi = std::min(Lo + PerChunk, End);
    Task T = [&Fn, Lo, Hi](size_t Worker) {
      for (size_t I = Lo; I < Hi; ++I)
        Fn(Worker, I);
    };
    WorkerQueue &Q = *Queues[C % Queues.size()];
    {
      std::lock_guard<std::mutex> Lock(Q.Mutex);
      Q.Deque.push_back(std::move(T));
    }
  }
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    ++SubmitEpoch;
  }
  WorkAvailable.notify_all();

  std::unique_lock<std::mutex> Lock(StateMutex);
  BatchDone.wait(Lock, [this] { return PendingTasks == 0; });
  if (FirstError) {
    std::exception_ptr E = FirstError;
    FirstError = nullptr;
    std::rethrow_exception(E);
  }
}
