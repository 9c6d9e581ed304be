//===- alloc/DieHardHeap.h - Adaptive randomized heap ----------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive DieHard heap (paper §3.1, Figure 2; Berger & Zorn 2006),
/// the substrate Exterminator is built on.
///
/// Objects of each power-of-two size class are allocated uniformly at
/// random across that class's miniheaps, whose combined capacity is kept
/// at least M times the number of live objects (the *heap multiplier*).
/// When an allocation would push the class above 1/M occupancy, a new
/// miniheap twice as large as the previous largest is added.  Random
/// bitmap probing gives O(1) expected allocation; frees reset a bit, which
/// makes double frees benign, and range checks make invalid frees benign
/// (Table 1).
///
/// Hot-path layout (see ROADMAP.md "Hot-path architecture"):
///
///  * Placement draws one random index over the class's combined slot
///    space and resolves it to a miniheap through a per-class cumulative
///    slot-offset table (rebuilt only when the class grows), so a probe is
///    a draw, a branch-free scan over a handful of prefix sums, and one
///    bitmap word load.  A bounded number of rejection probes is followed by an
///    exact rank-select over the free slots, preserving the uniform
///    distribution even on adversarially dense maps.
///
///  * Pointer lookup (`findObject`) consults a page directory keyed on the
///    address's 4 KiB page: every page a slab's object region overlaps
///    maps to that slab, making free-path resolution one hash probe.
///    Slabs carry page-sized guard regions on both sides, so no page is
///    shared by two slabs and a directory hit names the only candidate.
///
/// The heap also maintains Exterminator's per-object metadata (§3.2):
/// object ids from a global allocation clock, allocation/deallocation site
/// hashes sampled from an optional CallContext, and deallocation times.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ALLOC_DIEHARDHEAP_H
#define EXTERMINATOR_ALLOC_DIEHARDHEAP_H

#include "alloc/Allocator.h"
#include "alloc/Miniheap.h"
#include "alloc/SizeClass.h"
#include "support/PageTable.h"
#include "support/RandomGenerator.h"
#include "support/SiteHash.h"

#include <memory>
#include <optional>
#include <vector>

namespace exterminator {

/// Tuning knobs for the DieHard heap.
struct DieHardConfig {
  /// Heap multiplier M: the heap is never more than 1/M full (paper fixes
  /// M = 2 for all experiments).
  double Multiplier = 2.0;
  /// Slots in the first miniheap of each size class.
  size_t InitialSlots = 64;
  /// Seed for the heap's placement randomness.
  uint64_t Seed = 0;
};

/// Identifies one object slot in the heap.
struct ObjectRef {
  unsigned ClassIndex = 0;
  unsigned HeapIndex = 0;
  size_t SlotIndex = 0;

  bool operator==(const ObjectRef &Other) const = default;
};

/// The adaptive DieHard randomized allocator.
class DieHardHeap : public Allocator {
public:
  /// \param Context optional call-context to sample allocation and
  ///        deallocation sites from; may be null (sites record as 0).
  explicit DieHardHeap(const DieHardConfig &Config = DieHardConfig(),
                       const CallContext *Context = nullptr);
  ~DieHardHeap() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  const char *name() const override { return "diehard"; }

  /// Allocates and also reports which slot was chosen (used by DieFast to
  /// run canary checks on the exact slot).  Advances the allocation clock.
  void *allocateWithRef(size_t Size, ObjectRef &RefOut);

  /// \name Two-phase allocation (DieFast building blocks, §3.3)
  /// DieFast must inspect a slot's canary and old metadata *before* the
  /// slot is recycled, so allocation is split: tick the clock, reserve a
  /// random slot (metadata untouched), then either commit it as a fresh
  /// object or mark it bad and reserve another.
  /// @{

  /// Advances the allocation clock and accounts one allocation request.
  void tickAllocationClock(size_t Size);

  /// Reserves a uniformly random free slot of \p ClassIndex: marks it
  /// allocated but leaves its metadata (the previous object's history)
  /// untouched.  Grows the class if needed.  \p HeapOut, when non-null,
  /// receives the owning miniheap (the concurrent front-end caches it so
  /// cached allocations never touch Classes).
  ObjectRef reserveSlot(unsigned ClassIndex, Miniheap **HeapOut = nullptr);

  /// Returns a reserved-but-uncommitted slot to the free pool without
  /// touching metadata or stats: the undo of reserveSlot, used by the
  /// concurrent front-end to flush unconsumed magazine slots.
  void releaseReserved(const ObjectRef &Ref);

  /// Advances the allocation clock to at least \p Time without counting
  /// an allocation.  The concurrent front-end stamps object ids from its
  /// own atomic clock and re-synchronizes the backend clock here whenever
  /// it takes the lock, so FreeTime stamps and miniheap creation times
  /// stay on the same timeline.
  void advanceClockTo(uint64_t Time) {
    if (Time > Clock)
      Clock = Time;
  }

  /// Fills in metadata for a reserved slot as a fresh object of \p Size
  /// bytes, stamped with the current clock and call context.
  void commitAllocation(const ObjectRef &Ref, size_t Size);

  /// Converts a reserved slot into a quarantined bad slot, preserving the
  /// previous object's metadata and contents (bad-object isolation).
  void markBad(const ObjectRef &Ref);

  /// @}

  /// Frees and reports which slot was released; returns false (and counts
  /// the event) for invalid or double frees.  \p SiteOverride, when set,
  /// records that site hash instead of sampling the call context — the
  /// correcting allocator uses it so deferred frees keep the site of the
  /// original free request (§6.3).
  bool deallocateWithRef(void *Ptr, ObjectRef &RefOut,
                         std::optional<SiteId> SiteOverride = std::nullopt);

  /// Frees an already-resolved slot (callers that mapped the pointer
  /// once keep the lookup off the hot path).  Returns false for a double
  /// free.
  bool deallocateResolved(const ObjectRef &Ref,
                          std::optional<SiteId> SiteOverride = std::nullopt);

  /// Permanently withholds a slot from reuse, preserving its contents
  /// (DieFast's bad-object isolation, §3.3).  The slot must be free.
  void quarantine(const ObjectRef &Ref);

  /// Retires the 4 KiB page containing \p PageAddress from the slot
  /// lottery (PR 9: a hardware-fault report implicated it).  Free slots
  /// overlapping the page are quarantined immediately; live slots are
  /// quarantined the moment they are freed.  Because quarantined slots
  /// are marked allocated+bad, random placement — the single draw path
  /// under both the sequential heap and the concurrent front-end's
  /// magazines — can never hand them out again.  Addresses that overlap
  /// no slab (reports imported from another process's address space) are
  /// recorded but retire nothing.  Returns the slots quarantined now.
  size_t retirePage(uintptr_t PageAddress);

  /// True if the page containing \p Address has been retired.
  bool isPageRetired(uintptr_t Address) const;

  /// Pages retired so far (the xterm_retired_pages gauge).
  size_t retiredPageCount() const { return RetiredPages.size(); }

  /// Slots quarantined by page retirement (immediate + on-free).
  size_t retiredSlotCount() const { return RetiredSlots; }

  /// Maps any address within an object slot to the slot.
  std::optional<ObjectRef> findObject(const void *Ptr) const;

  /// A pointer resolved to its slot with the owning miniheap and the
  /// slot's start address already in hand (one lookup serves the whole
  /// free path).
  struct ResolvedObject {
    ObjectRef Ref;
    Miniheap *Heap;
    uint8_t *SlotStart;
  };

  /// Like findObject, but also reports the owning miniheap and slot
  /// start.  Safe to call lock-free, concurrently with allocations on
  /// other threads, for pointers whose slab registration happened-before
  /// this call — i.e. any pointer the allocator previously returned and
  /// the program handed to this thread.
  std::optional<ResolvedObject> resolvePointer(const void *Ptr) const;

  /// True if \p Ptr points into a currently-allocated (non-bad) slot.
  bool isLivePointer(const void *Ptr) const;

  const Miniheap &miniheap(const ObjectRef &Ref) const {
    return *Classes[Ref.ClassIndex].Heaps[Ref.HeapIndex];
  }
  Miniheap &miniheap(const ObjectRef &Ref) {
    return *Classes[Ref.ClassIndex].Heaps[Ref.HeapIndex];
  }

  uint8_t *objectPointer(const ObjectRef &Ref) {
    return miniheap(Ref).slotPointer(Ref.SlotIndex);
  }
  const uint8_t *objectPointer(const ObjectRef &Ref) const {
    return miniheap(Ref).slotPointer(Ref.SlotIndex);
  }
  const SlotMetadata &objectMetadata(const ObjectRef &Ref) const {
    return miniheap(Ref).slot(Ref.SlotIndex);
  }

  /// Neighboring slots in address order within the same miniheap; the
  /// objects DieFast checks on free (§3.3, "implicit fence-posts").
  std::optional<ObjectRef> previousSlot(const ObjectRef &Ref) const;
  std::optional<ObjectRef> nextSlot(const ObjectRef &Ref) const;

  /// Number of allocations performed to date; doubles as the object-id
  /// counter and as "allocation time" (§3.2, §3.4).
  uint64_t allocationClock() const { return Clock; }

  /// Objects currently allocated (bad slots included, as they occupy
  /// capacity).
  size_t liveObjectCount() const { return LiveObjects; }

  /// Total object slots across all miniheaps of class \p ClassIndex.
  size_t classCapacity(unsigned ClassIndex) const {
    return Classes[ClassIndex].Capacity;
  }

  /// Heap multiplier M.
  double multiplier() const { return Config.Multiplier; }

  /// The configuration this heap was built with.
  const DieHardConfig &config() const { return Config; }

  /// Number of miniheaps in class \p ClassIndex.
  unsigned classHeapCount(unsigned ClassIndex) const {
    return static_cast<unsigned>(Classes[ClassIndex].Heaps.size());
  }

  /// Visits every miniheap (heap-image capture, isolation).
  template <typename CallbackT> void forEachMiniheap(CallbackT Callback) const {
    for (unsigned C = 0; C < Classes.size(); ++C)
      for (unsigned H = 0; H < Classes[C].Heaps.size(); ++H)
        Callback(C, H, *Classes[C].Heaps[H]);
  }

  /// Mutable visit (the concurrent front-end drains per-miniheap
  /// remote-free queues; callers hold the backend lock).
  template <typename CallbackT> void forEachMiniheap(CallbackT Callback) {
    for (unsigned C = 0; C < Classes.size(); ++C)
      for (unsigned H = 0; H < Classes[C].Heaps.size(); ++H)
        Callback(C, H, *Classes[C].Heaps[H]);
  }

private:
  struct ClassState {
    std::vector<std::unique_ptr<Miniheap>> Heaps;
    /// Inclusive prefix sums of Heaps[i]->numSlots(); CumulativeSlots[i]
    /// is the combined slot count of heaps 0..i.  Grows in lockstep with
    /// Heaps, so a class-global slot index resolves to a miniheap by
    /// binary search instead of a linear walk.
    std::vector<size_t> CumulativeSlots;
    size_t Capacity = 0;
    size_t Live = 0;
    /// floor(Capacity / M): the hot-path growth check compares integers
    /// instead of redoing the multiplier math on every allocation.
    size_t MaxLive = 0;
  };

  /// Adds miniheaps until the class can absorb one more object while
  /// staying at most 1/M full.
  void ensureCapacity(ClassState &Class, unsigned ClassIndex);

  /// Picks a uniformly random free slot across all miniheaps of a class.
  ObjectRef placeRandomly(ClassState &Class, unsigned ClassIndex);

  /// Resolves a class-global slot index to (miniheap, slot) through the
  /// cumulative offset table (branch-free predicate-sum scan; see the
  /// definition for why not a binary search).
  std::pair<unsigned, size_t> resolveClassSlot(const ClassState &Class,
                                               size_t Pick) const;

  /// Shared tail of the two deallocation entry points; \p Heap must be
  /// the miniheap \p Ref lives in (resolved exactly once by the caller).
  bool deallocateIn(Miniheap &Heap, const ObjectRef &Ref,
                    std::optional<SiteId> SiteOverride);

  void registerRange(Miniheap *Heap, unsigned ClassIndex, unsigned HeapIndex);

  /// True when any byte of \p Heap's slot \p Slot lies on a retired page.
  bool slotOnRetiredPage(const Miniheap &Heap, size_t Slot) const;

  DieHardConfig Config;
  const CallContext *Context;
  RandomGenerator Rng;
  std::vector<ClassState> Classes;
  uint64_t Clock = 0;
  size_t LiveObjects = 0;

  /// Sorted page-aligned addresses of retired pages (PR 9).  Empty for
  /// nearly every heap, so the free-path check is one branch.
  std::vector<uintptr_t> RetiredPages;
  /// Slots quarantined because their page was retired.
  size_t RetiredSlots = 0;

  /// Guard region on each side of every slab, absorbing overflows off
  /// the first and last slots (stands in for the sparse address space
  /// between miniheaps).  One page wide, so two slabs' object regions
  /// never share a page of the directory.
  static constexpr size_t GuardBytes = 4096;

  /// One slab's object region (guard regions excluded).
  struct Range {
    const uint8_t *Base;
    const uint8_t *End;
    unsigned ClassIndex;
    unsigned HeapIndex;
    /// Owning miniheap, denormalized so a directory hit resolves without
    /// chasing Classes[c].Heaps[h].
    Miniheap *Heap;
  };
  /// Hard cap on slabs per heap.  Doubling miniheaps mean even a class
  /// grown to 2^MaxSlabs-ish slots stays far below it; the cap buys a
  /// never-reallocated Slabs array, which lock-free readers index
  /// concurrently with registration (entries are fully written before
  /// their page-directory ids publish).
  static constexpr size_t MaxSlabs = 1024;
  /// Append-only copy of every slab in registration order; stable ids for
  /// the page directory.  reserve(MaxSlabs) in the constructor pins the
  /// storage so concurrent directory hits never race a reallocation.
  std::vector<Range> Slabs;

  static constexpr unsigned PageShift = 12;
  static_assert(GuardBytes >= (size_t(1) << PageShift),
                "sub-page guards would let two slabs share a page");
  static uintptr_t pageOf(const uint8_t *Addr) {
    return reinterpret_cast<uintptr_t>(Addr) >> PageShift;
  }
  /// 4 KiB page -> index into Slabs.  Covers every page any object
  /// region overlaps, so a missing key proves the address is outside the
  /// heap.
  PageTable PageDirectory;
};

} // namespace exterminator

#endif // EXTERMINATOR_ALLOC_DIEHARDHEAP_H
