//===- correct/CorrectingHeap.cpp - Correcting allocator --------------------===//

#include "correct/CorrectingHeap.h"

#include "patch/PatchIO.h"

#include <algorithm>
#include <cassert>

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
  uint32_t Pad = Patches.padFor(AllocSite);
  // Backward-overflow extension: front padding shifts the returned
  // pointer so underruns land in the object's own slot.  Rounded to 8 so
  // the program's pointer stays maximally aligned.
  uint32_t FrontPad = (Patches.frontPadFor(AllocSite) + 7u) & ~7u;
  size_t PaddedSize = Size + Pad + FrontPad;
  if (!sizeclass::fits(PaddedSize)) {
    PaddedSize = Size; // A pad must never turn a servable request invalid.
    Pad = 0;
    FrontPad = 0;
  }
  uint8_t *Ptr = static_cast<uint8_t *>(Inner.allocate(PaddedSize));
  if (!Ptr || Pad + FrontPad == 0)
    return Ptr;

  ++CStats.PaddedAllocations;
  CStats.PadBytesAdded += Pad + FrontPad;
  CStats.LivePadBytes += Pad + FrontPad;
  CStats.MaxLivePadBytes =
      std::max(CStats.MaxLivePadBytes, CStats.LivePadBytes);
  // Remember the pads in the slot: the front shift lets the eventual
  // free recognize the interior pointer the program holds, and both let
  // it return exactly these bytes to the live-pad count, whatever patch
  // set is loaded by then.
  std::optional<ObjectRef> Ref = Inner.heap().findObject(Ptr);
  assert(Ref && "fresh allocation must resolve");
  SlotMetadata &Meta = Inner.heap().miniheap(*Ref).slot(Ref->SlotIndex);
  Meta.FrontPad = FrontPad;
  Meta.BackPad = Pad;
  return Ptr + FrontPad;
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
  CStats.LivePadBytes -= Meta.FrontPad + Meta.BackPad;

  const uint64_t Defer = Patches.deferralFor(Meta.AllocSite, FreeSite);
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
  // Retirement is idempotent; reports merged in repeatedly (patch
  // reloads ship supersets) retire nothing new.
  for (const HardwareFaultReport &Report : Patches.hardwareReports())
    Inner.heap().retirePage(static_cast<uintptr_t>(Report.PageAddress));
}

bool CorrectingHeap::loadPatches(const std::string &Path) {
  PatchSet Loaded;
  if (!loadPatchSet(Path, Loaded))
    return false;
  setPatches(Loaded);
  return true;
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
