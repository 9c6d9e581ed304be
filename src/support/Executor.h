//===- support/Executor.h - Spawn-and-join parallelFor ---------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One primitive, parallelFor: run N bodies at once, one per thread, and
/// join them.  Replicated mode (§3.4, Figure 5) uses it to run its N
/// replicas concurrently — each replica owns an independent heap, so the
/// only synchronization the paper's design needs is the join barrier,
/// which doubles as the lockstep heap-image dump barrier: no isolation
/// starts until every replica has produced its image.  The socket patch
/// server runs its accept loop and its connection workers through it for
/// the whole of a serve.  Heap-image capture and §4 evidence collection
/// use neither: their heaps are a few miniheaps of a few hundred slots,
/// where a fork-join costs more than the work it splits.
///
/// Both callers want exactly one thread per index, so there is no pool:
/// threads are spawned per call and joined before it returns.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_EXECUTOR_H
#define EXTERMINATOR_SUPPORT_EXECUTOR_H

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace exterminator {

/// Runs Body(I) for every I in [0, N) concurrently and returns only when
/// all N calls have finished.  Body(0) runs on the calling thread and
/// Body(1..N-1) each on a fresh std::thread; joining them is the
/// barrier, so results written to per-index slots need no locking.
/// N <= 1 is a plain call on the calling thread.
inline void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  std::vector<std::thread> Threads;
  Threads.reserve(N - 1);
  for (size_t I = 1; I < N; ++I)
    Threads.emplace_back(Body, I);
  Body(0);
  for (std::thread &Thread : Threads)
    Thread.join();
}

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_EXECUTOR_H
