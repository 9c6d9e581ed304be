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
/// (§3.4: replicated mode patches running replicas on-the-fly).
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
  /// Criticality tiering (PR 9): defensive pads and deferrals applied to
  /// hardened size classes beyond what site patches demanded.
  uint64_t DefensivePadAllocations = 0;
  uint64_t DefensivePadBytesAdded = 0;
  uint64_t DefensiveDeferrals = 0;
};

/// Criticality tiering (PR 9): the HRM idea inverted.  Instead of
/// protecting critical data by replication, the allocator *degrades*
/// service where errors concentrate: size classes with an error history
/// (padded-site allocations, hardware-implicated slabs) get a defensive
/// pad on every allocation and a defensive deferral on every free, while
/// clean classes keep the lean fast path.  Off by default — tiering is a
/// policy the deployment opts into.
struct CriticalityConfig {
  bool Enabled = false;
  /// Error-history sightings at one size class before it is hardened.
  uint32_t HardenThreshold = 2;
  /// Defensive pad added to every allocation of a hardened class.
  uint32_t DefensivePadBytes = 16;
  /// Defensive free deferral (allocation ticks) for hardened classes.
  uint64_t DefensiveDeferTicks = 32;
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
  /// reports in the set retire their pages from the slot lottery and
  /// credit the error history of the implicated size classes (PR 9).
  void setPatches(const PatchSet &NewPatches);

  /// Enables/configures criticality tiering (PR 9).
  void setCriticality(const CriticalityConfig &NewCriticality);

  const CriticalityConfig &criticality() const { return Criticality; }

  /// Error-history sightings recorded against \p ClassIndex.
  uint32_t classErrorCount(unsigned ClassIndex) const {
    return ClassIndex < ClassErrors.size() ? ClassErrors[ClassIndex] : 0;
  }

  /// True when tiering is on and the class crossed the harden threshold.
  bool isClassHardened(unsigned ClassIndex) const {
    return Criticality.Enabled &&
           classErrorCount(ClassIndex) >= Criticality.HardenThreshold;
  }

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

  /// Retires pages named by the patch set's hardware reports and credits
  /// the implicated size classes' error history.
  void applyHardwareReports();

  /// Adds one error-history sighting to \p ClassIndex.
  void creditClassError(unsigned ClassIndex);

  const CallContext *Context;
  DieFastHeap Inner;
  PatchSet Patches;
  std::priority_queue<Deferred, std::vector<Deferred>, DeferredLater>
      Deferrals;
  uint64_t Clock = 0;
  CorrectionStats CStats;

  // Criticality tiering (PR 9).
  CriticalityConfig Criticality;
  /// Error-history sightings per size class; grown on demand.
  std::vector<uint32_t> ClassErrors;
  /// Pages already credited to class error history (setPatches is called
  /// repeatedly with supersets; each page must count once).
  std::vector<uint64_t> CreditedPages;
};

} // namespace exterminator

#endif // EXTERMINATOR_CORRECT_CORRECTINGHEAP_H
