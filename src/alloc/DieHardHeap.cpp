//===- alloc/DieHardHeap.cpp - Adaptive randomized heap --------------------===//

#include "alloc/DieHardHeap.h"

#include <algorithm>
#include <cstring>

using namespace exterminator;

DieHardHeap::DieHardHeap(const DieHardConfig &Config,
                         const CallContext *Context)
    : Config(Config), Context(Context), Rng(Config.Seed) {
  assert(Config.Multiplier > 1.0 && "heap multiplier must exceed 1");
  assert(Config.InitialSlots > 0 && "initial miniheap must be nonempty");
  Classes.resize(sizeclass::numClasses());
  Slabs.reserve(MaxSlabs);
}

DieHardHeap::~DieHardHeap() = default;

void *DieHardHeap::allocate(size_t Size) {
  ObjectRef Ref;
  return allocateWithRef(Size, Ref);
}

void *DieHardHeap::allocateWithRef(size_t Size, ObjectRef &RefOut) {
  if (!sizeclass::fits(Size))
    return nullptr;

  tickAllocationClock(Size);
  const ObjectRef Ref = reserveSlot(sizeclass::classFor(Size));
  commitAllocation(Ref, Size);
  RefOut = Ref;
  return miniheap(Ref).slotPointer(Ref.SlotIndex);
}

void DieHardHeap::tickAllocationClock(size_t Size) {
  ++Clock;
  ++Stats.Allocations;
  Stats.BytesRequested += Size;
}

ObjectRef DieHardHeap::reserveSlot(unsigned ClassIndex, Miniheap **HeapOut) {
  ClassState &Class = Classes[ClassIndex];
  ensureCapacity(Class, ClassIndex);
  const ObjectRef Ref = placeRandomly(Class, ClassIndex);
  Miniheap &Heap = *Class.Heaps[Ref.HeapIndex];
  Heap.markAllocated(Ref.SlotIndex);
  ++Class.Live;
  ++LiveObjects;
  if (HeapOut)
    *HeapOut = &Heap;
  return Ref;
}

void DieHardHeap::releaseReserved(const ObjectRef &Ref) {
  Miniheap &Heap = miniheap(Ref);
  assert(Heap.isAllocated(Ref.SlotIndex) &&
         "releaseReserved requires a reserved slot");
  assert(!Heap.slot(Ref.SlotIndex).Bad && "bad slots are never released");
  Heap.markFree(Ref.SlotIndex);
  --Classes[Ref.ClassIndex].Live;
  --LiveObjects;
  // A magazine slot whose page was retired while it sat reserved in a
  // thread cache must not rejoin the free pool on flush.
  if (!RetiredPages.empty() && slotOnRetiredPage(Heap, Ref.SlotIndex)) {
    quarantine(Ref);
    ++RetiredSlots;
  }
}

void DieHardHeap::commitAllocation(const ObjectRef &Ref, size_t Size) {
  SlotMetadata &Meta = miniheap(Ref).slot(Ref.SlotIndex);
  assert(!Meta.Bad && "cannot commit an allocation into a bad slot");
  Meta.ObjectId = Clock; // doubles as the allocation time
  Meta.FreeTime = 0;
  Meta.AllocSite = Context ? Context->currentSite() : 0;
  Meta.FreeSite = 0;
  Meta.RequestedSize = static_cast<uint32_t>(Size);
  Meta.FrontPad = 0;
  Meta.BackPad = 0;
  Meta.Canaried = false;
}

void DieHardHeap::markBad(const ObjectRef &Ref) {
  Miniheap &Heap = miniheap(Ref);
  assert(Heap.isAllocated(Ref.SlotIndex) &&
         "markBad requires a reserved slot");
  Heap.slot(Ref.SlotIndex).Bad = true;
}

void DieHardHeap::deallocate(void *Ptr) {
  ObjectRef Ref;
  deallocateWithRef(Ptr, Ref);
}

bool DieHardHeap::deallocateWithRef(void *Ptr, ObjectRef &RefOut,
                                    std::optional<SiteId> SiteOverride) {
  if (!Ptr)
    return false;

  // Range check: pointers outside the heap, or not at an object start, are
  // invalid frees, which DieFast detects and ignores (§2).
  std::optional<ObjectRef> Found = findObject(Ptr);
  if (!Found) {
    ++Stats.InvalidFrees;
    return false;
  }
  Miniheap &Heap = miniheap(*Found);
  // The free stamps FreeTime/FreeSite into this slot's metadata after
  // the bitmap check; random placement makes that line a near-certain
  // miss on DRAM-bound churn, so start pulling it for write now.  The
  // prefetch lives here, not in findObject, so pure lookups
  // (isLivePointer, diffing) do not pay the read-for-ownership.
  __builtin_prefetch(&Heap.slot(Found->SlotIndex), /*rw=*/1, /*locality=*/3);
  if (Ptr != Heap.slotPointer(Found->SlotIndex)) {
    ++Stats.InvalidFrees;
    return false;
  }

  RefOut = *Found;
  return deallocateIn(Heap, *Found, SiteOverride);
}

bool DieHardHeap::deallocateResolved(const ObjectRef &Ref,
                                     std::optional<SiteId> SiteOverride) {
  return deallocateIn(miniheap(Ref), Ref, SiteOverride);
}

bool DieHardHeap::deallocateIn(Miniheap &Heap, const ObjectRef &Ref,
                               std::optional<SiteId> SiteOverride) {
  // A bit can only be reset once, so multiple frees are benign (§2).  Bad
  // slots keep their bit set forever, so a free of a quarantined object
  // lands here as well.
  if (!Heap.isAllocated(Ref.SlotIndex) || Heap.slot(Ref.SlotIndex).Bad) {
    ++Stats.DoubleFrees;
    return false;
  }

  Heap.markFree(Ref.SlotIndex);
  --Classes[Ref.ClassIndex].Live;
  --LiveObjects;
  ++Stats.Deallocations;

  SlotMetadata &Meta = Heap.slot(Ref.SlotIndex);
  Meta.FreeTime = Clock;
  Meta.FreeSite =
      SiteOverride ? *SiteOverride : (Context ? Context->currentSite() : 0);

  // A slot whose page was retired while the object lived is withdrawn
  // the moment it comes back: the free succeeds, then the slot goes
  // straight to quarantine instead of the free pool.  This is the only
  // re-entry path into the lottery, so it covers the concurrent
  // front-end's magazines as well.
  if (!RetiredPages.empty() && slotOnRetiredPage(Heap, Ref.SlotIndex)) {
    quarantine(Ref);
    ++RetiredSlots;
  }
  return true;
}

void DieHardHeap::quarantine(const ObjectRef &Ref) {
  Miniheap &Heap = miniheap(Ref);
  assert(!Heap.isAllocated(Ref.SlotIndex) &&
         "only free slots can be quarantined");
  Heap.markAllocated(Ref.SlotIndex);
  Heap.slot(Ref.SlotIndex).Bad = true;
  ++Classes[Ref.ClassIndex].Live;
  ++LiveObjects;
}

bool DieHardHeap::slotOnRetiredPage(const Miniheap &Heap, size_t Slot) const {
  const uint8_t *Begin = Heap.slotPointer(Slot);
  const uintptr_t FirstPage =
      reinterpret_cast<uintptr_t>(Begin) >> PageShift << PageShift;
  const uintptr_t LastPage =
      reinterpret_cast<uintptr_t>(Begin + Heap.objectSize() - 1) >> PageShift
      << PageShift;
  for (uintptr_t Page = FirstPage; Page <= LastPage;
       Page += uintptr_t(1) << PageShift)
    if (std::binary_search(RetiredPages.begin(), RetiredPages.end(), Page))
      return true;
  return false;
}

size_t DieHardHeap::retirePage(uintptr_t PageAddress) {
  const uintptr_t Page = PageAddress >> PageShift << PageShift;
  auto It = std::lower_bound(RetiredPages.begin(), RetiredPages.end(), Page);
  if (It != RetiredPages.end() && *It == Page)
    return 0; // already retired
  RetiredPages.insert(It, Page);

  // Quarantine every currently-free slot overlapping the page.  Live
  // slots keep serving their object; deallocateIn retires them on free.
  size_t Quarantined = 0;
  for (unsigned C = 0; C < Classes.size(); ++C)
    for (unsigned H = 0; H < Classes[C].Heaps.size(); ++H) {
      Miniheap &Heap = *Classes[C].Heaps[H];
      const uintptr_t SlabBegin = reinterpret_cast<uintptr_t>(Heap.base());
      const uintptr_t SlabEnd =
          SlabBegin + Heap.numSlots() * Heap.objectSize();
      if (SlabEnd <= Page || SlabBegin >= Page + (uintptr_t(1) << PageShift))
        continue;
      for (size_t Slot = 0; Slot < Heap.numSlots(); ++Slot) {
        if (Heap.isAllocated(Slot) || !slotOnRetiredPage(Heap, Slot))
          continue;
        quarantine(ObjectRef{C, H, Slot});
        ++RetiredSlots;
        ++Quarantined;
      }
    }
  return Quarantined;
}

bool DieHardHeap::isPageRetired(uintptr_t Address) const {
  const uintptr_t Page = Address >> PageShift << PageShift;
  return std::binary_search(RetiredPages.begin(), RetiredPages.end(), Page);
}

std::optional<ObjectRef> DieHardHeap::findObject(const void *Ptr) const {
  const uint8_t *Addr = static_cast<const uint8_t *>(Ptr);
  // Page directory: every page an object region overlaps is keyed here,
  // so a miss proves Addr is outside the heap (guard regions included).
  const uint32_t Id = PageDirectory.lookup(pageOf(Addr));
  if (Id == PageTable::NotFound)
    return std::nullopt;
  const Range &Slab = Slabs[Id];
  // The page can hang over the slab's edges into guard space; range-check
  // before trusting it.
  if (Addr < Slab.Base || Addr >= Slab.End)
    return std::nullopt;
  std::optional<size_t> Slot = Slab.Heap->slotContaining(Addr);
  assert(Slot && "in-range address must resolve to a slot");
  return ObjectRef{Slab.ClassIndex, Slab.HeapIndex, *Slot};
}

std::optional<DieHardHeap::ResolvedObject>
DieHardHeap::resolvePointer(const void *Ptr) const {
  // findObject's lookup, reading the owning miniheap from the slab record
  // (never from Classes, which growth may reallocate under a lock-free
  // reader).
  const uint8_t *Addr = static_cast<const uint8_t *>(Ptr);
  const uint32_t Id = PageDirectory.lookup(pageOf(Addr));
  if (Id == PageTable::NotFound)
    return std::nullopt;
  const Range &Slab = Slabs[Id];
  if (Addr < Slab.Base || Addr >= Slab.End)
    return std::nullopt;
  std::optional<size_t> Slot = Slab.Heap->slotContaining(Addr);
  assert(Slot && "in-range address must resolve to a slot");
  return ResolvedObject{ObjectRef{Slab.ClassIndex, Slab.HeapIndex, *Slot},
                        Slab.Heap, Slab.Heap->slotPointer(*Slot)};
}

bool DieHardHeap::isLivePointer(const void *Ptr) const {
  std::optional<ObjectRef> Ref = findObject(Ptr);
  if (!Ref)
    return false;
  const Miniheap &Heap = miniheap(*Ref);
  return Heap.isAllocated(Ref->SlotIndex) && !Heap.slot(Ref->SlotIndex).Bad;
}

std::optional<ObjectRef> DieHardHeap::previousSlot(const ObjectRef &Ref) const {
  if (Ref.SlotIndex == 0)
    return std::nullopt;
  return ObjectRef{Ref.ClassIndex, Ref.HeapIndex, Ref.SlotIndex - 1};
}

std::optional<ObjectRef> DieHardHeap::nextSlot(const ObjectRef &Ref) const {
  const Miniheap &Heap = miniheap(Ref);
  if (Ref.SlotIndex + 1 >= Heap.numSlots())
    return std::nullopt;
  return ObjectRef{Ref.ClassIndex, Ref.HeapIndex, Ref.SlotIndex + 1};
}

void DieHardHeap::ensureCapacity(ClassState &Class, unsigned ClassIndex) {
  // Keep (Live + 1) <= Capacity / M: adding a miniheap twice as large as
  // the previous largest each time the bound would be violated (§3.1).
  // MaxLive caches floor(Capacity / M): for integer Live the comparison
  // is exactly equivalent and the hot check costs no multiplier math.
  while (Class.Live + 1 > Class.MaxLive) {
    size_t NewSlots = Class.Heaps.empty()
                          ? Config.InitialSlots
                          : Class.Heaps.back()->numSlots() * 2;
    auto Heap =
        std::make_unique<Miniheap>(ClassIndex, NewSlots, Clock, GuardBytes);
    registerRange(Heap.get(), ClassIndex,
                  static_cast<unsigned>(Class.Heaps.size()));
    Class.Capacity += NewSlots;
    Class.MaxLive = static_cast<size_t>(static_cast<double>(Class.Capacity) /
                                        Config.Multiplier);
    Class.CumulativeSlots.push_back(Class.Capacity);
    Class.Heaps.push_back(std::move(Heap));
  }
}

std::pair<unsigned, size_t>
DieHardHeap::resolveClassSlot(const ClassState &Class, size_t Pick) const {
  // First miniheap whose inclusive prefix sum exceeds Pick owns the slot.
  // Doubling miniheaps keep this table at ~log2(live) entries, so a
  // branch-free predicate-sum scan (every comparison compiles to
  // setcc/add, none to a conditional jump) beats a binary search whose
  // branches are data-random by construction.
  const size_t *Cum = Class.CumulativeSlots.data();
  const size_t Count = Class.CumulativeSlots.size();
  unsigned HeapIndex = 0;
  for (size_t I = 0; I < Count; ++I)
    HeapIndex += static_cast<unsigned>(Pick >= Cum[I]);
  assert(HeapIndex < Count && "pick past class capacity");
  const size_t Before = HeapIndex == 0 ? 0 : Cum[HeapIndex - 1];
  return {HeapIndex, Pick - Before};
}

ObjectRef DieHardHeap::placeRandomly(ClassState &Class, unsigned ClassIndex) {
  assert(Class.Live < Class.Capacity && "class has no free slot");

  // Uniform random probing over the class's combined slot space; expected
  // O(1) probes at <= 1/M occupancy (§3.1).  Each probe is one draw, one
  // branch-free scan of the offset table, one bitmap word load.
  static constexpr unsigned MaxPlacementProbes = 64;
  for (unsigned Probe = 0; Probe < MaxPlacementProbes; ++Probe) {
    const size_t Pick = Rng.nextBelow(Class.Capacity);
    const auto [HeapIndex, Slot] = resolveClassSlot(Class, Pick);
    if (!Class.Heaps[HeapIndex]->isAllocated(Slot))
      return ObjectRef{ClassIndex, HeapIndex, Slot};
  }

  // Degenerate density (never reached at the <= 1/M invariant): draw a
  // uniform rank among the free slots and select it exactly — the same
  // distribution rejection sampling produces, with a bounded sweep.
  size_t Rank = Rng.nextBelow(Class.Capacity - Class.Live);
  for (unsigned H = 0; H < Class.Heaps.size(); ++H) {
    const Miniheap &Heap = *Class.Heaps[H];
    const size_t FreeHere = Heap.numSlots() - Heap.allocatedCount();
    if (Rank < FreeHere) {
      std::optional<size_t> Slot = Heap.inUseBitmap().selectClear(Rank);
      assert(Slot && "rank within free count must select");
      return ObjectRef{ClassIndex, H, *Slot};
    }
    Rank -= FreeHere;
  }
  assert(false && "free-slot rank walk must terminate");
  return ObjectRef{ClassIndex, 0, 0};
}

void DieHardHeap::registerRange(Miniheap *Heap, unsigned ClassIndex,
                                unsigned HeapIndex) {
  const Range NewRange{Heap->base(),
                       Heap->base() + Heap->numSlots() * Heap->objectSize(),
                       ClassIndex, HeapIndex, Heap};

  // Page directory: map every page the object region overlaps to this
  // slab.  Page-sized guards keep every other slab's object region off
  // these pages, so each insert is fresh.
  assert(Slabs.size() < MaxSlabs &&
         "slab cap reached; raise MaxSlabs (reserved so concurrent "
         "readers never race a reallocation)");
  const uint32_t SlabId = static_cast<uint32_t>(Slabs.size());
  // The Range must be fully written before any page id pointing at it
  // publishes: emplace's release store is the publication point for
  // lock-free resolvePointer readers.
  Slabs.push_back(NewRange);
  for (uintptr_t Page = pageOf(NewRange.Base),
                 LastPage = pageOf(NewRange.End - 1);
       Page <= LastPage; ++Page) {
    [[maybe_unused]] const auto [Value, Inserted] =
        PageDirectory.emplace(Page, SlabId);
    assert(Inserted && "two slabs' object regions share a page");
  }
}
