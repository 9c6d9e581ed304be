//===- correct/CorrectingHeap.h - Correcting allocator ---------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correcting memory allocator (§6.3, Figure 6).
///
/// It layers runtime patches over a DieFast heap: on allocation it drains
/// the deferral queue (objects whose extended lifetime has elapsed), looks
/// up the allocation site in the *pad table*, and forwards the request
/// enlarged by the pad; on deallocation it looks up the (allocation site,
/// deallocation site) pair in the *deferral table* and either frees
/// immediately or pushes the pointer onto a priority queue keyed by
/// allocation-clock due time.
///
/// Patches can be reloaded at any time without interrupting execution
/// (§3.4: replicated mode patches running replicas on-the-fly).  Each
/// object remembers the pads it was allocated with, so its free returns
/// exactly those bytes to the §7.3 live-pad count whatever patch set is
/// loaded by then.  Hardware reports in a patch set retire their pages
/// from the slot lottery (PR 9).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_CORRECT_CORRECTINGHEAP_H
#define EXTERMINATOR_CORRECT_CORRECTINGHEAP_H

#include "diefast/DieFastHeap.h"
#include "patch/RuntimePatch.h"

#include <queue>
#include <string>
#include <vector>

namespace exterminator {

/// Space/drag accounting for §7.3 (patch overhead).
struct CorrectionStats {
  /// Allocations that received a pad, and the pad bytes added.
  uint64_t PaddedAllocations = 0;
  uint64_t PadBytesAdded = 0;
  /// Pad bytes held by currently-live objects, and the high-water mark
  /// (§7.3 measures pad size × maximum live patched objects).
  uint64_t LivePadBytes = 0;
  uint64_t MaxLivePadBytes = 0;
  /// Deallocation requests deferred.
  uint64_t DeferredFrees = 0;
  /// Bytes currently held past their requested free.
  uint64_t CurrentDeferredBytes = 0;
  /// High-water mark of deferred bytes.
  uint64_t MaxDeferredBytes = 0;
  /// Σ object-size × allocations-deferred: the added *drag* (§6.2).
  uint64_t DragByteTicks = 0;
};

/// DieFast plus runtime patches: pads overflows away, defers premature
/// frees.
class CorrectingHeap : public Allocator {
public:
  CorrectingHeap(const DieFastConfig &Config = DieFastConfig(),
                 const CallContext *Context = nullptr);
  ~CorrectingHeap() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  const char *name() const override { return "exterminator-correcting"; }

  /// Counters live in the innermost DieHard heap; forwarding keeps the
  /// per-operation stats copy off the hot path.
  const AllocatorStats &stats() const override { return Inner.stats(); }

  /// Replaces the live patch set ("reload signal", §6.3).  Hardware
  /// reports in the set retire their pages from the slot lottery (PR 9).
  void setPatches(const PatchSet &NewPatches);

  /// Loads patches from a runtime patch file; returns false on failure.
  bool loadPatches(const std::string &Path);

  const PatchSet &patches() const { return Patches; }

  /// Frees everything still sitting in the deferral queue (teardown).
  void flushDeferrals();

  /// Objects currently held by the deferral queue.
  size_t deferredCount() const { return Deferrals.size(); }

  const CorrectionStats &correctionStats() const { return CStats; }

  /// The underlying DieFast heap (error signals, image capture).
  DieFastHeap &diefast() { return Inner; }
  const DieFastHeap &diefast() const { return Inner; }

private:
  struct Deferred {
    uint64_t DueTime;
    uint64_t EnqueueTime;
    ObjectRef Ref;
    SiteId FreeSite;
    uint32_t Bytes;
  };
  struct DeferredLater {
    bool operator()(const Deferred &A, const Deferred &B) const {
      return A.DueTime > B.DueTime; // min-heap on due time
    }
  };

  /// Frees every deferred object whose due time has arrived.
  void drainDeferrals();

  void reallyFree(const Deferred &Entry);

  const CallContext *Context;
  DieFastHeap Inner;
  PatchSet Patches;
  std::priority_queue<Deferred, std::vector<Deferred>, DeferredLater>
      Deferrals;
  uint64_t Clock = 0;
  CorrectionStats CStats;
};

} // namespace exterminator

#endif // EXTERMINATOR_CORRECT_CORRECTINGHEAP_H
