//===- alloc/Miniheap.cpp - One-size-class randomized slab -----------------===//

#include "alloc/Miniheap.h"

#include "alloc/SizeClass.h"

#include <bit>

using namespace exterminator;

Miniheap::Miniheap(unsigned SizeClassIndex, size_t NumSlots,
                   uint64_t CreationTime, size_t GuardBytes)
    : SizeClassIndex(SizeClassIndex),
      ObjectSize(sizeclass::classSize(SizeClassIndex)),
      ObjectShift(std::countr_zero(ObjectSize)), NumSlots(NumSlots),
      CreationTime(CreationTime) {
  assert(NumSlots > 0 && "miniheap must have at least one slot");
  // Guard regions on both sides absorb forward overflows off the last
  // slot and backward overflows off the first (the sparse address space
  // between real miniheaps plays this role in the paper).
  GuardOffset = GuardBytes;
  const size_t SlabBytes = NumSlots * ObjectSize + 2 * GuardBytes;
  // Value-initialized: virgin slots read zero, which heap images rely on.
  Slab = std::make_unique<uint8_t[]>(SlabBytes);
  InUse.resize(NumSlots);
  Metadata = std::make_unique<SlotMetadata[]>(NumSlots);
}

bool Miniheap::contains(const void *Ptr) const {
  const uint8_t *Addr = static_cast<const uint8_t *>(Ptr);
  return Addr >= base() && Addr < base() + NumSlots * ObjectSize;
}

std::optional<size_t> Miniheap::slotContaining(const void *Ptr) const {
  if (!contains(Ptr))
    return std::nullopt;
  const uint8_t *Addr = static_cast<const uint8_t *>(Ptr);
  // Object sizes are powers of two: shift instead of divide.
  return static_cast<size_t>(Addr - base()) >> ObjectShift;
}

void Miniheap::markAllocated(size_t Slot) {
  [[maybe_unused]] bool Changed = InUse.set(Slot);
  assert(Changed && "slot was already allocated");
}

void Miniheap::markFree(size_t Slot) {
  [[maybe_unused]] bool Changed = InUse.reset(Slot);
  assert(Changed && "slot was already free");
}
