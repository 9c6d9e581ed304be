//===- correct/CorrectingHeap.cpp - Correcting allocator --------------------===//

#include "correct/CorrectingHeap.h"

#include "patch/PatchIO.h"

#include <algorithm>

using namespace exterminator;

CorrectingHeap::CorrectingHeap(const DieFastConfig &Config,
                               const CallContext *Context)
    : Context(Context), Inner(Config, Context) {}

CorrectingHeap::~CorrectingHeap() = default;

void *CorrectingHeap::allocate(size_t Size) {
  // Figure 6: update the allocation clock, free deferred objects that
  // have reached their due time, then pad and forward.
  ++Clock;
  drainDeferrals();

  const SiteId AllocSite = Context ? Context->currentSite() : 0;
  const uint32_t Pad = Patches.padFor(AllocSite);
  // Backward-overflow extension: front padding shifts the returned
  // pointer so underruns land in the object's own slot.  Rounded to 8 so
  // the program's pointer stays maximally aligned.
  const uint32_t FrontPad = (Patches.frontPadFor(AllocSite) + 7u) & ~7u;
  // Criticality tiering: hardened classes get a defensive pad on every
  // allocation, patched site or not; clean classes pay nothing.
  uint32_t Defensive = 0;
  if (Criticality.Enabled && sizeclass::fits(Size) &&
      isClassHardened(sizeclass::classFor(Size)))
    Defensive = Criticality.DefensivePadBytes;
  size_t PaddedSize = Size + Pad + FrontPad + Defensive;
  uint32_t AppliedPad = Pad;
  uint32_t AppliedFront = FrontPad;
  uint32_t AppliedDefensive = Defensive;
  if (!sizeclass::fits(PaddedSize)) {
    PaddedSize = Size; // A pad must never turn a servable request invalid.
    AppliedPad = 0;
    AppliedFront = 0;
    AppliedDefensive = 0;
  }
  if (AppliedPad + AppliedFront > 0) {
    ++CStats.PaddedAllocations;
    CStats.PadBytesAdded += AppliedPad + AppliedFront;
    CStats.LivePadBytes += AppliedPad + AppliedFront;
    CStats.MaxLivePadBytes =
        std::max(CStats.MaxLivePadBytes, CStats.LivePadBytes);
    // A patched site's allocations are error-history sightings for their
    // size class — the signal tiering concentrates on.  Both classes are
    // implicated: the requested class (future requests this size get the
    // defensive pad) and the class the padded object lands in (its slots
    // are where the overflow struck, so its frees get the defensive
    // quarantine).
    if (AppliedPad > 0) {
      creditClassError(sizeclass::classFor(Size));
      if (sizeclass::classFor(PaddedSize) != sizeclass::classFor(Size))
        creditClassError(sizeclass::classFor(PaddedSize));
    }
  }
  if (AppliedDefensive > 0) {
    ++CStats.DefensivePadAllocations;
    CStats.DefensivePadBytesAdded += AppliedDefensive;
  }
  uint8_t *Ptr = static_cast<uint8_t *>(Inner.allocate(PaddedSize));
  if (!Ptr)
    return Ptr;
  if (AppliedFront > 0) {
    // Remember the shift so the eventual free recognizes the interior
    // pointer the program holds.
    std::optional<ObjectRef> Ref = Inner.heap().findObject(Ptr);
    assert(Ref && "fresh allocation must resolve");
    Inner.heap().miniheap(*Ref).slot(Ref->SlotIndex).FrontPad =
        AppliedFront;
  }
  return Ptr + AppliedFront;
}

void CorrectingHeap::deallocate(void *Ptr) {
  if (!Ptr)
    return;

  // Compute the site pair for this pointer: the allocation site is read
  // from the object's metadata, the deallocation site from the current
  // call context.  The pointer is resolved exactly once on this path.
  const SiteId FreeSite = Context ? Context->currentSite() : 0;
  std::optional<ObjectRef> Ref = Inner.heap().findObject(Ptr);
  // The pointer the program holds sits FrontPad bytes into the slot when
  // the site carries a front pad (backward-overflow correction).
  const bool Resolvable =
      Ref && Inner.heap().miniheap(*Ref).isAllocated(Ref->SlotIndex) &&
      !Inner.heap().objectMetadata(*Ref).Bad &&
      Ptr == Inner.heap().objectPointer(*Ref) +
                 Inner.heap().objectMetadata(*Ref).FrontPad;
  if (!Resolvable) {
    // Invalid or double free: let DieFast count and ignore it.
    Inner.deallocateWithSite(Ptr, FreeSite);
    return;
  }

  const SlotMetadata &Meta = Inner.heap().objectMetadata(*Ref);
  // Live-pad accounting: the dying object's site tells whether its
  // allocation carried a pad.
  const uint32_t DyingPad = Patches.padFor(Meta.AllocSite);
  if (DyingPad > 0 && CStats.LivePadBytes >= DyingPad)
    CStats.LivePadBytes -= DyingPad;

  uint64_t Defer = Patches.deferralFor(Meta.AllocSite, FreeSite);
  // Criticality tiering: hardened classes hold every freed object in the
  // deferral queue briefly (a short quarantine), so a latent dangling
  // use or a flaky cell under the slot surfaces as canary evidence
  // instead of silent reuse.
  if (Defer == 0 && Criticality.Enabled && isClassHardened(Ref->ClassIndex)) {
    Defer = Criticality.DefensiveDeferTicks;
    ++CStats.DefensiveDeferrals;
  }
  if (Defer == 0) {
    Inner.deallocateResolved(*Ref, FreeSite);
    return;
  }

  Deferred Entry;
  Entry.DueTime = Clock + Defer;
  Entry.EnqueueTime = Clock;
  Entry.Ref = *Ref;
  Entry.FreeSite = FreeSite;
  Entry.Bytes = Meta.RequestedSize;
  Deferrals.push(Entry);
  ++CStats.DeferredFrees;
  CStats.CurrentDeferredBytes += Entry.Bytes;
  CStats.MaxDeferredBytes =
      std::max(CStats.MaxDeferredBytes, CStats.CurrentDeferredBytes);
}

void CorrectingHeap::setPatches(const PatchSet &NewPatches) {
  Patches = NewPatches;
  applyHardwareReports();
}

void CorrectingHeap::setCriticality(const CriticalityConfig &NewCriticality) {
  Criticality = NewCriticality;
}

bool CorrectingHeap::loadPatches(const std::string &Path) {
  PatchSet Loaded;
  if (!loadPatchSet(Path, Loaded))
    return false;
  setPatches(Loaded);
  return true;
}

void CorrectingHeap::creditClassError(unsigned ClassIndex) {
  if (ClassIndex >= ClassErrors.size())
    ClassErrors.resize(ClassIndex + 1, 0);
  ++ClassErrors[ClassIndex];
}

void CorrectingHeap::applyHardwareReports() {
  if (Patches.hardwareReportCount() == 0)
    return;
  for (const HardwareFaultReport &Report : Patches.hardwareReports()) {
    const uintptr_t Page = static_cast<uintptr_t>(Report.PageAddress);
    // Retirement is idempotent; reports merged in repeatedly (patch
    // reloads ship supersets) retire nothing new.
    Inner.heap().retirePage(Page);

    // Credit the error history of every size class with a slab on the
    // page — once per page, enough sightings to harden the class
    // outright (a failing cell under a slab is not a statistical hint).
    auto It = std::lower_bound(CreditedPages.begin(), CreditedPages.end(),
                               Report.PageAddress);
    if (It != CreditedPages.end() && *It == Report.PageAddress)
      continue;
    CreditedPages.insert(It, Report.PageAddress);
    Inner.heap().forEachMiniheap(
        [&](unsigned C, unsigned H, const Miniheap &Heap) {
          (void)H;
          const uintptr_t Begin = reinterpret_cast<uintptr_t>(Heap.base());
          const uintptr_t End =
              Begin + Heap.numSlots() * Heap.objectSize();
          if (End <= Page || Begin >= Page + 4096)
            return;
          for (uint32_t I = 0; I < Criticality.HardenThreshold; ++I)
            creditClassError(C);
        });
  }
}

void CorrectingHeap::drainDeferrals() {
  while (!Deferrals.empty() && Deferrals.top().DueTime <= Clock) {
    const Deferred Entry = Deferrals.top();
    Deferrals.pop();
    reallyFree(Entry);
  }
}

void CorrectingHeap::flushDeferrals() {
  while (!Deferrals.empty()) {
    const Deferred Entry = Deferrals.top();
    Deferrals.pop();
    reallyFree(Entry);
  }
}

void CorrectingHeap::reallyFree(const Deferred &Entry) {
  // The free-site hash recorded for the object is the one sampled when
  // the program requested the free, not the context that happens to be
  // live when the deferral drains.  The slot reference stays valid while
  // deferred: the object is still allocated until this very call.
  Inner.deallocateResolved(Entry.Ref, Entry.FreeSite);
  CStats.CurrentDeferredBytes -= Entry.Bytes;
  CStats.DragByteTicks +=
      static_cast<uint64_t>(Entry.Bytes) * (Clock - Entry.EnqueueTime);
}
