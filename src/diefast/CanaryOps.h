//===- diefast/CanaryOps.h - Shared per-slot canary operations -*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-slot halves of the DieFast protocol (§3.3, Figure 4, §2.1),
/// factored out of DieFastHeap so the concurrent allocator front-end
/// (PR 7) applies byte-for-byte the same semantics to slots that pass
/// through thread-cache magazines: verify-or-quarantine plus the §2.1
/// zero-fill on reuse, neighbor sweeps and probabilistic canary fill on
/// free.  Only the slot mechanics live here; quarantining, error
/// signalling, and retry policy stay with the calling heap.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_DIEFAST_CANARYOPS_H
#define EXTERMINATOR_DIEFAST_CANARYOPS_H

#include "alloc/DieHardHeap.h"
#include "alloc/Miniheap.h"
#include "diefast/Canary.h"
#include "support/RandomGenerator.h"

#include <cstring>

namespace exterminator {
namespace canary_ops {

/// The alloc-time check on a reserved slot (Figure 4 + §2.1): verifies
/// the previous tenant's canary when one was laid down and zero-fills
/// the first \p RequestSize bytes.  A canaried slot is traversed once,
/// the check and the zeroing fused; the slot's tail keeps whatever
/// canary it carried, which stays sound because the next free re-fills
/// the whole slot.  Returns true when the slot is clean and ready to
/// commit; false when the canary was corrupted — intact-but-zeroed
/// prefix bytes are restored first, so the caller quarantines a slot
/// carrying its exact corruption evidence.
inline bool prepareReusedSlot(const Canary &C, const SlotMetadata &Meta,
                              uint8_t *Ptr, size_t ObjectSize,
                              size_t RequestSize) {
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
inline void sweepFreedNeighbors(Miniheap &Mini, const Canary &C,
                                const ObjectRef &Ref, OnCorruptT OnCorrupt) {
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
inline void canaryFillFreedSlot(Miniheap &Mini, const Canary &C,
                                RandomGenerator &Rng, double Probability,
                                size_t Slot) {
  SlotMetadata &Meta = Mini.slot(Slot);
  if (Rng.chance(Probability)) {
    C.fill(Mini.slotPointer(Slot), Mini.objectSize());
    Meta.Canaried = true;
  } else {
    Meta.Canaried = false;
  }
}

} // namespace canary_ops
} // namespace exterminator

#endif // EXTERMINATOR_DIEFAST_CANARYOPS_H
