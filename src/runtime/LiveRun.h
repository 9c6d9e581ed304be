//===- runtime/LiveRun.h - Keep-the-heap workload harness ------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A variant of runWorkloadOnce that keeps the heap alive after the
/// workload finishes, for callers that need to operate on the *live*
/// heap state rather than on captured images: the capture-throughput
/// bench (which times captureHeapImage against a real post-run heap)
/// and the capture golden-digest tests (which capture the same heap
/// under every canary kernel and pin the bytes to committed digests).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_RUNTIME_LIVERUN_H
#define EXTERMINATOR_RUNTIME_LIVERUN_H

#include "runtime/Exterminator.h"

#include <memory>

namespace exterminator {

/// A finished workload run whose heap is still alive and capturable.
struct LiveHeapRun {
  std::unique_ptr<CallContext> Context;
  std::unique_ptr<CorrectingHeap> Heap;
  WorkloadResult Result;

  DieFastHeap &diefast() { return Heap->diefast(); }
  const DieFastHeap &diefast() const { return Heap->diefast(); }

  /// Total slab bytes across all miniheaps (what a capture scans).
  uint64_t slabBytes() const {
    uint64_t Bytes = 0;
    Heap->diefast().heap().forEachMiniheap(
        [&](unsigned, unsigned, const Miniheap &Mini) {
          Bytes += Mini.numSlots() * Mini.objectSize();
        });
    return Bytes;
  }
};

/// Runs \p Work once over the correcting/DieFast/DieHard stack (no fault
/// injection, no breakpoint watcher) and returns the still-live heap.
inline LiveHeapRun runWorkloadKeepHeap(const Workload &Work,
                                       uint64_t InputSeed, uint64_t HeapSeed,
                                       const ExterminatorConfig &Config = {}) {
  LiveHeapRun Run;
  Run.Context = std::make_unique<CallContext>();

  DieFastConfig HeapConfig;
  HeapConfig.Heap = Config.Heap;
  HeapConfig.Heap.Seed = HeapSeed;
  HeapConfig.CanaryFillProbability = Config.CanaryFillProbability;
  Run.Heap = std::make_unique<CorrectingHeap>(HeapConfig, Run.Context.get());

  AllocatorHandle Handle(*Run.Heap, *Run.Context,
                         &Run.Heap->diefast().heap());
  Run.Result = Work.run(Handle, InputSeed);
  return Run;
}

} // namespace exterminator

#endif // EXTERMINATOR_RUNTIME_LIVERUN_H
