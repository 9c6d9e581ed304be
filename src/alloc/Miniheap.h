//===- alloc/Miniheap.h - One-size-class randomized slab -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniheap (paper §3.1, Figure 2): a contiguous slab of equally-sized
/// object slots with an in-use bitmap, plus the out-of-band per-object
/// metadata Exterminator adds (§3.2, Figure 1): object id, allocation and
/// deallocation sites, deallocation time, and the canary bit.
///
/// The slab is real memory, so buffer overflows performed by workloads are
/// actual out-of-bounds writes and heap diffing reads actual bytes.  A
/// guard region after the slab absorbs forward overflows from the last
/// slot (in the paper, miniheaps are scattered across a sparse address
/// space; the guard region plays the role of the empty space between
/// them).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ALLOC_MINIHEAP_H
#define EXTERMINATOR_ALLOC_MINIHEAP_H

#include "support/Bitmap.h"
#include "support/MpscQueue.h"
#include "support/SiteHash.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace exterminator {

/// Out-of-band metadata kept for every object slot (paper Figure 1).
///
/// The paper's Figure 1 lists object id and allocation time as separate
/// fields, but ids are drawn from the allocation clock, so ObjectId *is*
/// the allocation time — one 8-byte field covers both (allocTime()).
/// Dropping the duplicate shaves a cache line's worth of metadata off
/// every 1.6 slots on the placement-bound hot path.
struct SlotMetadata {
  /// The object is the ObjectId'th allocation from this heap; 0 = the
  /// slot has never been allocated.  Doubles as the allocation time.
  uint64_t ObjectId = 0;
  /// Allocation clock value when the object was last freed.
  uint64_t FreeTime = 0;
  /// Call-site hash of the allocation (Figure 3).
  SiteId AllocSite = 0;
  /// Call-site hash of the deallocation.
  SiteId FreeSite = 0;
  /// The size the program actually requested (<= slot size).
  uint32_t RequestedSize = 0;
  /// Bytes of front padding before the pointer the program holds
  /// (backward-overflow correction; 0 normally).
  uint32_t FrontPad = 0;
  /// Bytes of back padding past the program's request (overflow
  /// correction, §6.1; 0 normally).  With FrontPad, exactly what the
  /// correcting allocator's live-pad count gets back at free (§7.3).
  uint32_t BackPad = 0;
  /// Canary bitset entry: the slot was filled with canaries when freed.
  bool Canaried = false;
  /// Bad-object isolation (§3.3): the slot was found corrupted and is
  /// permanently withheld from reuse to preserve its contents.
  bool Bad = false;

  /// Allocation clock value when the object was allocated (== ObjectId).
  uint64_t allocTime() const { return ObjectId; }
};
static_assert(sizeof(SlotMetadata) <= 40,
              "SlotMetadata grew past five words; placement-op cache "
              "behavior regresses (see ROADMAP open items)");

/// A slab of NumSlots objects of one size class.
class Miniheap {
public:
  /// \param SizeClassIndex this miniheap's size class.
  /// \param NumSlots number of object slots.
  /// \param CreationTime allocation-clock value when the miniheap was
  ///        created; cumulative-mode isolation needs it (§5.1, τ(M_j)).
  /// \param GuardBytes guard region appended after the slab.
  Miniheap(unsigned SizeClassIndex, size_t NumSlots, uint64_t CreationTime,
           size_t GuardBytes);

  unsigned sizeClassIndex() const { return SizeClassIndex; }
  size_t objectSize() const { return ObjectSize; }
  size_t numSlots() const { return NumSlots; }
  uint64_t creationTime() const { return CreationTime; }

  uint8_t *base() { return Slab.get() + GuardOffset; }
  const uint8_t *base() const { return Slab.get() + GuardOffset; }

  uint8_t *slotPointer(size_t Slot) {
    assert(Slot < NumSlots && "slot index out of range");
    return base() + Slot * ObjectSize;
  }
  const uint8_t *slotPointer(size_t Slot) const {
    assert(Slot < NumSlots && "slot index out of range");
    return base() + Slot * ObjectSize;
  }

  /// True if \p Ptr points into the slab (guard region excluded).
  bool contains(const void *Ptr) const;

  /// The slot containing \p Ptr, if any.
  std::optional<size_t> slotContaining(const void *Ptr) const;

  bool isAllocated(size_t Slot) const { return InUse.test(Slot); }
  size_t allocatedCount() const { return InUse.count(); }
  const Bitmap &inUseBitmap() const { return InUse; }

  /// Marks \p Slot allocated.  Asserts it was free.
  void markAllocated(size_t Slot);

  /// Marks \p Slot free.  Asserts it was allocated.
  void markFree(size_t Slot);

  SlotMetadata &slot(size_t Slot) {
    assert(Slot < NumSlots && "slot index out of range");
    return Metadata[Slot];
  }
  const SlotMetadata &slot(size_t Slot) const {
    assert(Slot < NumSlots && "slot index out of range");
    return Metadata[Slot];
  }

  /// \name Remote-free support (concurrent front-end, PR 7)
  /// A free from a thread that does not hold the backend lock claims the
  /// slot's *pending-free* bit, pushes a node into this miniheap's queue,
  /// and returns; the bit makes the claim exclusive, so double frees from
  /// racing threads are detected without the lock, and the slot cannot be
  /// enqueued twice.  The owner drains the queue under the lock and
  /// clears the bit only when the slot is next committed — between drain
  /// and commit the slot is free (or quarantined) and a stale free
  /// attempt must keep bouncing off the set bit rather than scribble a
  /// queue node into memory it no longer owns.
  /// @{

  /// Atomically claims the pending-free bit for \p Slot.  Returns true
  /// when this caller set it (the free proceeds); false means another
  /// free already owns the slot (a concurrent double free).
  bool claimPendingFree(size_t Slot) {
    assert(Slot < NumSlots && "slot index out of range");
    const uint64_t Bit = uint64_t(1) << (Slot & 63);
    const uint64_t Old = PendingFreeWords[Slot >> 6].fetch_or(
        Bit, std::memory_order_acq_rel);
    return (Old & Bit) == 0;
  }

  /// Clears the pending-free bit at commit time (the slot is live again;
  /// the next free must be able to claim it).
  void clearPendingFree(size_t Slot) {
    assert(Slot < NumSlots && "slot index out of range");
    const uint64_t Bit = uint64_t(1) << (Slot & 63);
    PendingFreeWords[Slot >> 6].fetch_and(~Bit, std::memory_order_release);
  }

  /// This miniheap's remote-free queue (drained under the backend lock).
  MpscQueue &remoteFreeQueue() { return RemoteFrees; }

  /// @}

private:
  unsigned SizeClassIndex;
  size_t ObjectSize;
  unsigned ObjectShift;
  size_t GuardOffset = 0;
  size_t NumSlots;
  uint64_t CreationTime;
  std::unique_ptr<uint8_t[]> Slab;
  Bitmap InUse;
  std::unique_ptr<SlotMetadata[]> Metadata;
  /// One pending-free bit per slot (see claimPendingFree); value-
  /// initialized to zero.  Kept separate from InUse, which stays a plain
  /// bitmap owned by the lock holder.
  std::unique_ptr<std::atomic<uint64_t>[]> PendingFreeWords;
  /// Frees pushed by threads not holding the backend lock.
  MpscQueue RemoteFrees;
};

} // namespace exterminator

#endif // EXTERMINATOR_ALLOC_MINIHEAP_H
