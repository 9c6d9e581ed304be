//===- support/Executor.h - Small thread-pool executor ---------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool with one primitive: parallelFor, a
/// fork-join map over an index range.  Replicated mode (§3.4, Figure 5)
/// uses it to run its N replicas concurrently — each replica owns an
/// independent heap, so the only synchronization the paper's design needs
/// is the join barrier, which doubles as the lockstep heap-image dump
/// barrier: no isolation starts until every replica has produced its
/// image.  Its other users park threads in long-running bodies: the
/// socket patch server's accept/worker loop and the concurrent-allocator
/// stress run's workers.  Each user owns its pool.  Heap-image
/// capture and §4 evidence collection use none: their heaps are a few
/// miniheaps of a few hundred slots, where a fork-join costs more than
/// the work it splits.
///
/// The calling thread participates in the work, so an Executor with
/// threadCount() == 1 still makes progress (and degenerates to a plain
/// loop), and results written to per-index slots need no locking.  Each
/// parallelFor owns its job state, so a worker that wakes late drains a
/// finished job harmlessly instead of touching the next one.
/// Header-only; workers live for the lifetime of the Executor.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_EXECUTOR_H
#define EXTERMINATOR_SUPPORT_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace exterminator {

/// Fixed-size thread pool with fork-join parallelFor.
class Executor {
public:
  /// \param Threads total workers including the calling thread; 0 means
  ///        one per hardware thread.
  explicit Executor(unsigned Threads = 0) {
    if (Threads == 0)
      Threads = std::thread::hardware_concurrency();
    if (Threads == 0)
      Threads = 1;
    NumThreads = Threads;
    // The calling thread is worker 0; spawn the rest.
    for (unsigned I = 1; I < Threads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  ~Executor() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ShuttingDown = true;
    }
    WakeWorkers.notify_all();
    for (std::thread &Worker : Workers)
      Worker.join();
  }

  unsigned threadCount() const { return NumThreads; }

  /// Runs Body(I) for every I in [0, N), spread across the pool, and
  /// returns only when all N calls have finished (the join barrier).
  /// Bodies for distinct indexes may run concurrently; Body must not
  /// call parallelFor on the same Executor.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
    if (N == 0)
      return;
    if (NumThreads == 1 || N == 1) {
      for (size_t I = 0; I < N; ++I)
        Body(I);
      return;
    }

    auto Job = std::make_shared<JobState>();
    Job->Body = &Body;
    Job->Size = N;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Current = Job;
    }
    WakeWorkers.notify_all();

    // The calling thread works too, then waits for stragglers.
    drain(*Job);
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      JobDone.wait(Lock, [&] {
        return Job->Completed.load(std::memory_order_acquire) == N;
      });
      if (Current == Job)
        Current.reset();
    }
  }

private:
  struct JobState {
    const std::function<void(size_t)> *Body = nullptr;
    size_t Size = 0;
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Completed{0};
  };

  /// Claims and runs indexes of \p Job until none remain.  Body stays
  /// alive while any index is unclaimed (the caller cannot return before
  /// Completed == Size), and draining an already-finished job is a no-op.
  void drain(JobState &Job) {
    for (;;) {
      const size_t I = Job.Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Job.Size)
        return;
      (*Job.Body)(I);
      if (Job.Completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          Job.Size) {
        // Last finisher wakes the caller; take the lock so the caller's
        // predicate check cannot race past the notify.
        std::lock_guard<std::mutex> Lock(Mutex);
        JobDone.notify_all();
      }
    }
  }

  void workerLoop() {
    for (;;) {
      std::shared_ptr<JobState> Job;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WakeWorkers.wait(Lock, [this] {
          return ShuttingDown ||
                 (Current && Current->Next.load(
                                 std::memory_order_relaxed) < Current->Size);
        });
        if (ShuttingDown)
          return;
        Job = Current;
      }
      drain(*Job);
      // Don't spin on a drained job still registered as Current: wait
      // for the next one (the predicate above sees Next >= Size).
    }
  }

  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable JobDone;
  bool ShuttingDown = false;
  std::shared_ptr<JobState> Current;
};

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_EXECUTOR_H
