//===- diefast/DieFastHeap.cpp - Probabilistic debugging allocator ---------===//

#include "diefast/DieFastHeap.h"

#include "diefast/CanaryOps.h"

using namespace exterminator;

DieFastHeap::DieFastHeap(const DieFastConfig &Config,
                         const CallContext *Context)
    : Config(Config), Heap(Config.Heap, Context),
      // The canary stream must be independent of heap placement, or the
      // canary value would leak the layout; fork a derived seed.
      Rng(Config.Heap.Seed ^ 0xca11a7c0ffee1234ULL),
      HeapCanary(Canary::random(Rng)) {}

DieFastHeap::~DieFastHeap() = default;

void *DieFastHeap::allocate(size_t Size) {
  if (!sizeclass::fits(Size))
    return nullptr;

  Heap.tickAllocationClock(Size);

  const unsigned ClassIndex = sizeclass::classFor(Size);
  for (;;) {
    const ObjectRef Ref = Heap.reserveSlot(ClassIndex);
    Miniheap &Mini = Heap.miniheap(Ref);
    uint8_t *Ptr = Mini.slotPointer(Ref.SlotIndex);

    // Figure 4: check that the object either wasn't canary-filled or is
    // uncorrupted, fusing the §2.1 zero-fill into the verification sweep
    // (see canary_ops::prepareReusedSlot).  A corrupt slot is never
    // reused ("bad object isolation"): mark it allocated-for-good and
    // pick another slot.
    if (!canary_ops::prepareReusedSlot(HeapCanary, Mini.slot(Ref.SlotIndex),
                                       Ptr, Mini.objectSize(), Size)) {
      Heap.markBad(Ref);
      signalError(ErrorSignalKind::CanaryCorruptOnAlloc, Ref);
      continue;
    }

    Heap.commitAllocation(Ref, Size);
    return Ptr;
  }
}

void DieFastHeap::deallocate(void *Ptr) {
  deallocateImpl(Ptr, std::nullopt);
}

void DieFastHeap::deallocateWithSite(void *Ptr, SiteId FreeSite) {
  deallocateImpl(Ptr, FreeSite);
}

void DieFastHeap::deallocateResolved(const ObjectRef &Ref, SiteId FreeSite) {
  if (!Heap.deallocateResolved(Ref, FreeSite))
    return; // Double free: counted and ignored (Table 1).
  afterFree(Ref);
}

void DieFastHeap::deallocateImpl(void *Ptr,
                                 std::optional<SiteId> SiteOverride) {
  ObjectRef Ref;
  if (!Heap.deallocateWithRef(Ptr, Ref, SiteOverride))
    return; // Invalid or double free: counted and ignored (Table 1).
  afterFree(Ref);
}

void DieFastHeap::afterFree(const ObjectRef &Ref) {
  // Check the preceding and following objects (§3.3); neighbors live in
  // the freed slot's own miniheap, so it is resolved exactly once for the
  // neighbor checks and the canary fill.  Quarantine preserves the
  // corrupted contents for the error isolator.
  Miniheap &Mini = Heap.miniheap(Ref);
  canary_ops::sweepFreedNeighbors(
      Mini, HeapCanary, Ref, [&](const ObjectRef &Corrupt) {
        Heap.quarantine(Corrupt);
        signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
      });

  // Probabilistically fill the freed object with canaries.  Cumulative
  // mode needs p < 1 to turn each run into a Bernoulli trial over which
  // freed objects got canaried (§5.2).
  canary_ops::canaryFillFreedSlot(Mini, HeapCanary, Rng,
                                  Config.CanaryFillProbability,
                                  Ref.SlotIndex);
}

void DieFastHeap::signalError(ErrorSignalKind Kind, const ObjectRef &Where) {
  ++ErrorsSignalled;
  if (OnError)
    OnError(ErrorSignal{Kind, Where, Heap.allocationClock()});
}
