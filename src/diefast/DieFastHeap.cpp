//===- diefast/DieFastHeap.cpp - Probabilistic debugging allocator ---------===//

#include "diefast/DieFastHeap.h"

#include <cstring>

using namespace exterminator;

namespace {

/// The alloc-time check on a reserved slot (Figure 4 + §2.1): verifies
/// the previous tenant's canary when one was laid down and zero-fills
/// the first \p RequestSize bytes.  A canaried slot is traversed once,
/// the check and the zeroing fused; the slot's tail keeps whatever
/// canary it carried, which stays sound because the next free re-fills
/// the whole slot.  Returns true when the slot is clean and ready to
/// commit; false when the canary was corrupted — intact-but-zeroed
/// prefix bytes are restored first, so the caller quarantines a slot
/// carrying its exact corruption evidence.
bool prepareReusedSlot(const Canary &C, const SlotMetadata &Meta, uint8_t *Ptr,
                       size_t ObjectSize, size_t RequestSize) {
  if (!Meta.Canaried) {
    std::memset(Ptr, 0, RequestSize);
    return true;
  }
  const size_t Zeroed = C.verifyAndZeroPrefix(Ptr, ObjectSize, RequestSize);
  if (Zeroed != Canary::AllVerified) {
    // Only intact canary bytes were zeroed; restore them so the
    // quarantined slot carries its exact corruption evidence.
    C.fill(Ptr, Zeroed);
    return false;
  }
  return true;
}

/// The post-free neighbor sweep (§3.3, "implicit fence-posts"): visits
/// the freed slot's address-order neighbors that are free and canaried
/// and whose canary no longer verifies, invoking
/// \p OnCorrupt(ObjectRef) for each.  Random placement means the
/// identity of these neighbors differs from run to run, so repeated runs
/// check different pairs and detect overflows within E(H) frees.
template <typename OnCorruptT>
void sweepFreedNeighbors(Miniheap &Mini, const Canary &C, const ObjectRef &Ref,
                         OnCorruptT OnCorrupt) {
  const auto CheckOne = [&](size_t Slot) {
    if (Mini.isAllocated(Slot) || !Mini.slot(Slot).Canaried)
      return;
    if (!C.verify(Mini.slotPointer(Slot), Mini.objectSize()))
      OnCorrupt(ObjectRef{Ref.ClassIndex, Ref.HeapIndex, Slot});
  };
  if (Ref.SlotIndex > 0)
    CheckOne(Ref.SlotIndex - 1);
  if (Ref.SlotIndex + 1 < Mini.numSlots())
    CheckOne(Ref.SlotIndex + 1);
}

/// Probabilistically fills a just-freed slot with canaries and records
/// the outcome in its metadata (§3.3; p < 1 makes each run a Bernoulli
/// trial over which freed objects got canaried, §5.2).
void canaryFillFreedSlot(Miniheap &Mini, const Canary &C, RandomGenerator &Rng,
                         double Probability, size_t Slot) {
  SlotMetadata &Meta = Mini.slot(Slot);
  if (Rng.chance(Probability)) {
    C.fill(Mini.slotPointer(Slot), Mini.objectSize());
    Meta.Canaried = true;
  } else {
    Meta.Canaried = false;
  }
}

} // namespace

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
    // (see prepareReusedSlot).  A corrupt slot is never reused ("bad
    // object isolation"): mark it allocated-for-good and pick another
    // slot.
    if (!prepareReusedSlot(HeapCanary, Mini.slot(Ref.SlotIndex), Ptr,
                           Mini.objectSize(), Size)) {
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
  sweepFreedNeighbors(Mini, HeapCanary, Ref, [&](const ObjectRef &Corrupt) {
    Heap.quarantine(Corrupt);
    signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
  });

  // Probabilistically fill the freed object with canaries.  Cumulative
  // mode needs p < 1 to turn each run into a Bernoulli trial over which
  // freed objects got canaried (§5.2).
  canaryFillFreedSlot(Mini, HeapCanary, Rng, Config.CanaryFillProbability,
                      Ref.SlotIndex);
}

void DieFastHeap::signalError(ErrorSignalKind Kind, const ObjectRef &Where) {
  ++ErrorsSignalled;
  if (OnError)
    OnError(ErrorSignal{Kind, Where, Heap.allocationClock()});
}
