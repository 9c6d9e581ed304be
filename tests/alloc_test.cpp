//===- tests/alloc_test.cpp - Allocator substrate tests ----------------------===//

#include "alloc/BaselineAllocator.h"
#include "alloc/DieHardHeap.h"
#include "alloc/Miniheap.h"
#include "alloc/SizeClass.h"
#include "support/RandomGenerator.h"

#include "GoldenDigest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Size classes
//===----------------------------------------------------------------------===//

TEST(SizeClass, ClassSizesArePowersOfTwo) {
  for (unsigned C = 0; C < sizeclass::numClasses(); ++C) {
    const size_t Size = sizeclass::classSize(C);
    EXPECT_EQ(Size & (Size - 1), 0u) << "class " << C;
  }
}

TEST(SizeClass, SmallestAndLargest) {
  EXPECT_EQ(sizeclass::classSize(0), sizeclass::MinObjectSize);
  EXPECT_EQ(sizeclass::classSize(sizeclass::numClasses() - 1),
            sizeclass::MaxObjectSize);
}

TEST(SizeClass, FitsBoundaries) {
  EXPECT_FALSE(sizeclass::fits(0));
  EXPECT_TRUE(sizeclass::fits(1));
  EXPECT_TRUE(sizeclass::fits(sizeclass::MaxObjectSize));
  EXPECT_FALSE(sizeclass::fits(sizeclass::MaxObjectSize + 1));
}

// Property sweep: every representable size maps to the smallest class
// that fits it.
class SizeClassSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeClassSweep, RequestFitsItsClassTightly) {
  const size_t Size = GetParam();
  const unsigned Class = sizeclass::classFor(Size);
  EXPECT_GE(sizeclass::classSize(Class), Size);
  if (Class > 0) {
    EXPECT_LT(sizeclass::classSize(Class - 1), Size);
  }
}

INSTANTIATE_TEST_SUITE_P(RepresentativeSizes, SizeClassSweep,
                         ::testing::Values(1, 7, 8, 9, 15, 16, 17, 31, 32,
                                           33, 63, 64, 65, 100, 127, 128,
                                           129, 255, 256, 257, 1000, 1024,
                                           4095, 4096, 65536, 1048576));

//===----------------------------------------------------------------------===//
// Miniheap
//===----------------------------------------------------------------------===//

TEST(Miniheap, LayoutIsContiguous) {
  Miniheap Mini(/*SizeClassIndex=*/2, /*NumSlots=*/16, /*CreationTime=*/0,
                /*GuardBytes=*/64);
  EXPECT_EQ(Mini.objectSize(), 32u);
  for (size_t I = 0; I + 1 < 16; ++I)
    EXPECT_EQ(Mini.slotPointer(I) + 32, Mini.slotPointer(I + 1));
}

TEST(Miniheap, ContainsAndSlotContaining) {
  Miniheap Mini(0, 8, 0, 64);
  EXPECT_TRUE(Mini.contains(Mini.slotPointer(0)));
  EXPECT_TRUE(Mini.contains(Mini.slotPointer(7) + 7));
  EXPECT_FALSE(Mini.contains(Mini.slotPointer(7) + 8)); // guard region
  EXPECT_EQ(Mini.slotContaining(Mini.slotPointer(3) + 5),
            std::optional<size_t>(3));
  int Local;
  EXPECT_FALSE(Mini.contains(&Local));
}

TEST(Miniheap, MarkAllocatedAndFree) {
  Miniheap Mini(1, 8, 0, 0);
  EXPECT_FALSE(Mini.isAllocated(2));
  Mini.markAllocated(2);
  EXPECT_TRUE(Mini.isAllocated(2));
  EXPECT_EQ(Mini.allocatedCount(), 1u);
  Mini.markFree(2);
  EXPECT_FALSE(Mini.isAllocated(2));
}

TEST(Miniheap, SlabStartsZeroed) {
  Miniheap Mini(1, 4, 0, 0);
  for (size_t I = 0; I < 4 * 16; ++I)
    EXPECT_EQ(Mini.base()[I], 0);
}

TEST(Miniheap, MetadataStartsCleared) {
  Miniheap Mini(1, 4, 0, 0);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Mini.slot(I).ObjectId, 0u);
    EXPECT_FALSE(Mini.slot(I).Canaried);
    EXPECT_FALSE(Mini.slot(I).Bad);
  }
}

//===----------------------------------------------------------------------===//
// DieHardHeap
//===----------------------------------------------------------------------===//

static DieHardConfig testConfig(uint64_t Seed = 1) {
  DieHardConfig Config;
  Config.Seed = Seed;
  Config.InitialSlots = 16;
  return Config;
}

TEST(DieHardHeap, AllocateReturnsWritableMemory) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(100);
  ASSERT_NE(Ptr, nullptr);
  std::memset(Ptr, 0xcd, 100);
  EXPECT_EQ(static_cast<uint8_t *>(Ptr)[99], 0xcd);
}

TEST(DieHardHeap, AllocationsDoNotOverlap) {
  DieHardHeap Heap(testConfig());
  std::vector<std::pair<uint8_t *, size_t>> Objects;
  for (int I = 0; I < 200; ++I) {
    const size_t Size = 16 + (I % 5) * 24;
    uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(Size));
    ASSERT_NE(Ptr, nullptr);
    Objects.push_back({Ptr, Size});
  }
  for (size_t A = 0; A < Objects.size(); ++A)
    for (size_t B = A + 1; B < Objects.size(); ++B) {
      const bool Disjoint =
          Objects[A].first + Objects[A].second <= Objects[B].first ||
          Objects[B].first + Objects[B].second <= Objects[A].first;
      EXPECT_TRUE(Disjoint) << A << " overlaps " << B;
    }
}

TEST(DieHardHeap, ZeroSizeAndOversizeRejected) {
  DieHardHeap Heap(testConfig());
  EXPECT_EQ(Heap.allocate(0), nullptr);
  EXPECT_EQ(Heap.allocate(sizeclass::MaxObjectSize + 1), nullptr);
}

TEST(DieHardHeap, ClockCountsAllocations) {
  DieHardHeap Heap(testConfig());
  EXPECT_EQ(Heap.allocationClock(), 0u);
  Heap.allocate(16);
  Heap.allocate(16);
  EXPECT_EQ(Heap.allocationClock(), 2u);
}

TEST(DieHardHeap, ObjectIdsAreSequential) {
  DieHardHeap Heap(testConfig());
  for (uint64_t I = 1; I <= 5; ++I) {
    void *Ptr = Heap.allocate(32);
    auto Ref = Heap.findObject(Ptr);
    ASSERT_TRUE(Ref.has_value());
    EXPECT_EQ(Heap.objectMetadata(*Ref).ObjectId, I);
  }
}

TEST(DieHardHeap, InvalidFreeIsIgnoredAndCounted) {
  DieHardHeap Heap(testConfig());
  int Local = 0;
  Heap.deallocate(&Local);
  EXPECT_EQ(Heap.stats().InvalidFrees, 1u);
  EXPECT_EQ(Heap.stats().Deallocations, 0u);
}

TEST(DieHardHeap, InteriorPointerFreeIsInvalid) {
  DieHardHeap Heap(testConfig());
  uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(64));
  Heap.deallocate(Ptr + 8);
  EXPECT_EQ(Heap.stats().InvalidFrees, 1u);
  EXPECT_TRUE(Heap.isLivePointer(Ptr));
}

TEST(DieHardHeap, DoubleFreeIsIgnoredAndCounted) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(64);
  Heap.deallocate(Ptr);
  Heap.deallocate(Ptr);
  EXPECT_EQ(Heap.stats().Deallocations, 1u);
  EXPECT_EQ(Heap.stats().DoubleFrees, 1u);
}

TEST(DieHardHeap, FreeRecordsTimeAndLiveness) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(64);
  Heap.allocate(64);
  auto Ref = Heap.findObject(Ptr);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_TRUE(Heap.isLivePointer(Ptr));
  Heap.deallocate(Ptr);
  EXPECT_FALSE(Heap.isLivePointer(Ptr));
  EXPECT_EQ(Heap.objectMetadata(*Ref).FreeTime, 2u);
}

TEST(DieHardHeap, FindObjectMapsInteriorAddresses) {
  DieHardHeap Heap(testConfig());
  uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(128));
  auto Ref = Heap.findObject(Ptr + 100);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_EQ(Heap.objectPointer(*Ref), Ptr);
}

TEST(DieHardHeap, FindObjectRejectsForeignAddresses) {
  DieHardHeap Heap(testConfig());
  Heap.allocate(64);
  int Local;
  EXPECT_FALSE(Heap.findObject(&Local).has_value());
  EXPECT_FALSE(Heap.findObject(nullptr).has_value());
}

TEST(DieHardHeap, FindObjectRejectsGuardRegionAddresses) {
  // Guard regions flank each slab; addresses in them share pages with
  // the object region but must not resolve (that is how DieFast probes
  // one-past-the-end pointers safely).
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(64);
  auto Ref = Heap.findObject(Ptr);
  ASSERT_TRUE(Ref.has_value());
  const Miniheap &Mini = Heap.miniheap(*Ref);
  const uint8_t *Base = Mini.base();
  const uint8_t *End = Base + Mini.numSlots() * Mini.objectSize();
  EXPECT_FALSE(Heap.findObject(Base - 1).has_value());
  EXPECT_FALSE(Heap.findObject(End).has_value()); // one past the end
  EXPECT_FALSE(Heap.findObject(End + 100).has_value());
  EXPECT_TRUE(Heap.findObject(Base).has_value());
  EXPECT_TRUE(Heap.findObject(End - 1).has_value());
}

TEST(DieHardHeap, LookupResolvesEverySlotAcrossSlabs) {
  // Grow several size classes over many miniheaps (including slots that
  // span pages), then probe every slot: its first, an interior and its
  // last byte resolve to that slot through both lookups, and the guard
  // bytes flanking every slab resolve to nothing.
  DieHardHeap Heap(testConfig(3));
  for (int I = 0; I < 3000; ++I)
    ASSERT_NE(Heap.allocate(I % 50 == 0 ? 8192 : 8u << (I % 5)), nullptr);
  size_t Slabs = 0;
  Heap.forEachMiniheap([&](unsigned C, unsigned H, const Miniheap &Mini) {
    ++Slabs;
    const size_t Size = Mini.objectSize();
    for (size_t S = 0; S < Mini.numSlots(); ++S) {
      const uint8_t *Slot = Mini.slotPointer(S);
      const ObjectRef Want{C, H, S};
      for (const uint8_t *Probe : {Slot, Slot + Size / 2 + 1, Slot + Size - 1}) {
        const std::optional<ObjectRef> Found = Heap.findObject(Probe);
        ASSERT_TRUE(Found.has_value()) << "class " << C << " heap " << H;
        EXPECT_EQ(*Found, Want);
        const auto Resolved = Heap.resolvePointer(Probe);
        ASSERT_TRUE(Resolved.has_value());
        EXPECT_EQ(Resolved->Ref, Want);
        EXPECT_EQ(Resolved->Heap, &Mini);
        EXPECT_EQ(Resolved->SlotStart, Slot);
      }
    }
    const uint8_t *Begin = Mini.base();
    const uint8_t *End = Begin + Mini.numSlots() * Size;
    for (const uint8_t *Guard : {Begin - 4096, Begin - 1, End, End + 4095}) {
      EXPECT_FALSE(Heap.findObject(Guard).has_value());
      EXPECT_FALSE(Heap.resolvePointer(Guard).has_value());
    }
  });
  EXPECT_GE(Slabs, 30u);
}

TEST(DieHardHeap, PlacementIsUniformAcrossSlots) {
  // Chi-squared sanity check over a single 64-slot miniheap: reserving
  // and releasing one slot at a time, every slot must be drawn with the
  // same frequency (the uniformity DieHard's guarantees rest on, §3.1).
  // The seed is fixed, so the statistic is deterministic.
  DieHardConfig Config = testConfig(1234);
  Config.InitialSlots = 64;
  DieHardHeap Heap(Config);
  constexpr int PerSlot = 300;
  constexpr int Draws = 64 * PerSlot;
  std::vector<int> Counts(64, 0);
  for (int I = 0; I < Draws; ++I) {
    const ObjectRef Ref = Heap.reserveSlot(0);
    ASSERT_LT(Ref.SlotIndex, 64u);
    ++Counts[Ref.SlotIndex];
    Heap.deallocateResolved(Ref);
  }
  double Chi2 = 0;
  for (int Count : Counts) {
    const double Delta = Count - PerSlot;
    Chi2 += Delta * Delta / PerSlot;
  }
  // 63 degrees of freedom: mean 63, sd ~11.2; 130 is ~6 sigma.
  EXPECT_LT(Chi2, 130.0);
}

TEST(DieHardHeap, PlacementIsUniformAcrossMiniheaps) {
  // Multi-slab uniformity: with live objects pinned and several
  // miniheaps in the class, the offset-table placement must still draw
  // every *free* slot equally often (and never a live one).
  DieHardConfig Config = testConfig(99);
  Config.InitialSlots = 64;
  DieHardHeap Heap(Config);
  std::vector<ObjectRef> Pinned;
  for (int I = 0; I < 100; ++I)
    Pinned.push_back(Heap.reserveSlot(0));
  ASSERT_GE(Heap.classHeapCount(0), 2u);
  const size_t Capacity = Heap.classCapacity(0);
  const size_t FreeSlots = Capacity - Pinned.size();

  // Tally draws by class-global slot index.
  std::vector<size_t> Offsets(Heap.classHeapCount(0), 0);
  for (unsigned H = 1; H < Heap.classHeapCount(0); ++H)
    Offsets[H] =
        Offsets[H - 1] +
        Heap.miniheap(ObjectRef{0, H - 1, 0}).numSlots();
  std::vector<int> Counts(Capacity, 0);
  constexpr int PerSlot = 100;
  const int Draws = static_cast<int>(FreeSlots) * PerSlot;
  for (int I = 0; I < Draws; ++I) {
    const ObjectRef Ref = Heap.reserveSlot(0);
    ++Counts[Offsets[Ref.HeapIndex] + Ref.SlotIndex];
    Heap.deallocateResolved(Ref);
  }
  double Chi2 = 0;
  int FreeSeen = 0;
  for (const ObjectRef &Ref : Pinned)
    EXPECT_EQ(Counts[Offsets[Ref.HeapIndex] + Ref.SlotIndex], 0)
        << "live slot was chosen";
  for (size_t I = 0; I < Capacity; ++I) {
    if (Counts[I] == 0)
      continue; // pinned (checked above) — free slots all get draws
    ++FreeSeen;
    const double Delta = Counts[I] - PerSlot;
    Chi2 += Delta * Delta / PerSlot;
  }
  EXPECT_EQ(FreeSeen, static_cast<int>(FreeSlots));
  // df = FreeSlots - 1; bound at ~6 sigma above the mean.
  const double Df = static_cast<double>(FreeSlots - 1);
  EXPECT_LT(Chi2, Df + 6.0 * std::sqrt(2.0 * Df));
}

TEST(DieHardHeap, PlacementSequenceMatchesGoldenDigest) {
  // The (class, miniheap, slot) sequence of 2,000 seeded allocations,
  // hashed: any change to the draw stream, the offset-table resolve, or
  // growth shows up here.
  DieHardHeap Heap(testConfig(7));
  testing_support::Fnv1a Digest;
  for (int I = 0; I < 2000; ++I) {
    ObjectRef Ref;
    const size_t Size = 8u << (I % 4);
    ASSERT_NE(Heap.allocateWithRef(Size, Ref), nullptr);
    Digest.u64(Ref.ClassIndex);
    Digest.u64(Ref.HeapIndex);
    Digest.u64(Ref.SlotIndex);
  }
  EXPECT_EQ(Digest.value(), 0xa83fdf224ce96686ull);
}

TEST(DieHardHeap, MultiplierKeepsHeapUnderOccupied) {
  // The heap invariant: live objects never exceed capacity / M (§3.1).
  DieHardConfig Config = testConfig();
  Config.Multiplier = 2.0;
  DieHardHeap Heap(Config);
  for (int I = 0; I < 500; ++I)
    Heap.allocate(32);
  const unsigned Class = sizeclass::classFor(32);
  EXPECT_GE(Heap.classCapacity(Class),
            static_cast<size_t>(Heap.liveObjectCount() * 2));
}

TEST(DieHardHeap, MiniheapsDoubleInSize) {
  DieHardHeap Heap(testConfig());
  for (int I = 0; I < 300; ++I)
    Heap.allocate(32);
  const unsigned Class = sizeclass::classFor(32);
  const unsigned HeapCount = Heap.classHeapCount(Class);
  ASSERT_GE(HeapCount, 2u);
  size_t PrevSlots = 0;
  Heap.forEachMiniheap([&](unsigned C, unsigned /*H*/, const Miniheap &Mini) {
    if (C != Class)
      return;
    if (PrevSlots) {
      EXPECT_EQ(Mini.numSlots(), PrevSlots * 2);
    }
    PrevSlots = Mini.numSlots();
  });
}

TEST(DieHardHeap, PlacementDiffersAcrossSeeds) {
  // Differently-seeded heaps must randomize object placement
  // independently — the foundation of every probabilistic claim.
  DieHardHeap A(testConfig(1)), B(testConfig(2));
  unsigned SameSlot = 0;
  constexpr int N = 64;
  for (int I = 0; I < N; ++I) {
    void *Pa = A.allocate(32);
    void *Pb = B.allocate(32);
    auto Ra = A.findObject(Pa);
    auto Rb = B.findObject(Pb);
    if (Ra->SlotIndex == Rb->SlotIndex && Ra->HeapIndex == Rb->HeapIndex)
      ++SameSlot;
  }
  EXPECT_LT(SameSlot, N / 2);
}

TEST(DieHardHeap, SameSeedIsReproducible) {
  DieHardHeap A(testConfig(77)), B(testConfig(77));
  for (int I = 0; I < 64; ++I) {
    auto Ra = A.findObject(A.allocate(48));
    auto Rb = B.findObject(B.allocate(48));
    EXPECT_EQ(Ra->SlotIndex, Rb->SlotIndex);
    EXPECT_EQ(Ra->HeapIndex, Rb->HeapIndex);
  }
}

TEST(DieHardHeap, PlacementIsRoughlyUniform) {
  // Chi-square-ish check: allocate/free repeatedly in a fixed-capacity
  // class and confirm every slot gets used.
  DieHardHeap Heap(testConfig(5));
  std::map<size_t, int> SlotUse;
  for (int I = 0; I < 2000; ++I) {
    void *Ptr = Heap.allocate(32);
    auto Ref = Heap.findObject(Ptr);
    ++SlotUse[Ref->SlotIndex + 1000 * Ref->HeapIndex];
    Heap.deallocate(Ptr);
  }
  EXPECT_GT(SlotUse.size(), 10u);
}

TEST(DieHardHeap, QuarantineBlocksReuse) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(32);
  auto Ref = Heap.findObject(Ptr);
  Heap.deallocate(Ptr);
  Heap.quarantine(*Ref);
  // The quarantined slot must never be returned again.
  for (int I = 0; I < 200; ++I)
    EXPECT_NE(Heap.allocate(32), Ptr);
  // Freeing it counts as a double free and changes nothing.
  Heap.deallocate(Ptr);
  EXPECT_EQ(Heap.stats().DoubleFrees, 1u);
}

TEST(DieHardHeap, SiteHashesRecordedFromContext) {
  CallContext Context;
  Context.pushFrame(0xaa);
  DieHardHeap Heap(testConfig(), &Context);
  void *Ptr;
  {
    CallContext::Scope Scope(Context, 0xbb);
    Ptr = Heap.allocate(32);
  }
  auto Ref = Heap.findObject(Ptr);
  const SiteId AllocSite = Heap.objectMetadata(*Ref).AllocSite;
  EXPECT_NE(AllocSite, 0u);
  {
    CallContext::Scope Scope(Context, 0xcc);
    Heap.deallocate(Ptr);
  }
  EXPECT_NE(Heap.objectMetadata(*Ref).FreeSite, 0u);
  EXPECT_NE(Heap.objectMetadata(*Ref).FreeSite, AllocSite);
}

TEST(DieHardHeap, NeighborSlotsAreAddressOrdered) {
  DieHardHeap Heap(testConfig());
  void *Ptr = nullptr;
  // Find an object with both neighbors.
  std::optional<ObjectRef> Mid;
  for (int I = 0; I < 50 && !Mid; ++I) {
    Ptr = Heap.allocate(32);
    auto Ref = Heap.findObject(Ptr);
    if (Ref->SlotIndex > 0 &&
        Ref->SlotIndex + 1 < Heap.miniheap(*Ref).numSlots())
      Mid = Ref;
  }
  ASSERT_TRUE(Mid.has_value());
  auto Prev = Heap.previousSlot(*Mid);
  auto Next = Heap.nextSlot(*Mid);
  ASSERT_TRUE(Prev && Next);
  EXPECT_EQ(Heap.objectPointer(*Prev) + Heap.miniheap(*Mid).objectSize(),
            Heap.objectPointer(*Mid));
  EXPECT_EQ(Heap.objectPointer(*Mid) + Heap.miniheap(*Mid).objectSize(),
            Heap.objectPointer(*Next));
}

// Parameterized: the heap behaves across multipliers.
class MultiplierSweep : public ::testing::TestWithParam<double> {};

TEST_P(MultiplierSweep, OccupancyBoundHolds) {
  DieHardConfig Config = testConfig(3);
  Config.Multiplier = GetParam();
  DieHardHeap Heap(Config);
  std::vector<void *> Live;
  RandomGenerator Rng(9);
  for (int I = 0; I < 400; ++I) {
    Live.push_back(Heap.allocate(64));
    if (Live.size() > 20 && Rng.chance(0.5)) {
      const size_t Pick = Rng.nextBelow(Live.size());
      Heap.deallocate(Live[Pick]);
      Live.erase(Live.begin() + Pick);
    }
  }
  const unsigned Class = sizeclass::classFor(64);
  EXPECT_GE(static_cast<double>(Heap.classCapacity(Class)),
            static_cast<double>(Heap.liveObjectCount()) * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Multipliers, MultiplierSweep,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0));

//===----------------------------------------------------------------------===//
// BaselineAllocator
//===----------------------------------------------------------------------===//

TEST(BaselineAllocator, AllocateAndReuse) {
  BaselineAllocator Alloc;
  void *A = Alloc.allocate(40);
  ASSERT_NE(A, nullptr);
  std::memset(A, 1, 40);
  Alloc.deallocate(A);
  // Freelist reuse: the same chunk comes back for an equal-size request.
  void *B = Alloc.allocate(40);
  EXPECT_EQ(B, A);
}

TEST(BaselineAllocator, DistinctLiveChunks) {
  BaselineAllocator Alloc;
  void *A = Alloc.allocate(32);
  void *B = Alloc.allocate(32);
  EXPECT_NE(A, B);
}

TEST(BaselineAllocator, DoubleFreeDetectedViaHeaderTag) {
  BaselineAllocator Alloc;
  void *A = Alloc.allocate(32);
  Alloc.deallocate(A);
  Alloc.deallocate(A);
  EXPECT_EQ(Alloc.stats().InvalidFrees, 1u);
}

TEST(BaselineAllocator, LargeAllocations) {
  BaselineAllocator Alloc;
  void *Big = Alloc.allocate(500000);
  ASSERT_NE(Big, nullptr);
  std::memset(Big, 0x7e, 500000);
  Alloc.deallocate(Big);
  EXPECT_EQ(Alloc.stats().Deallocations, 1u);
}

TEST(BaselineAllocator, ZeroByteRequestSucceeds) {
  BaselineAllocator Alloc;
  EXPECT_NE(Alloc.allocate(0), nullptr);
}

TEST(BaselineAllocator, ManyCycles) {
  BaselineAllocator Alloc;
  for (int I = 0; I < 10000; ++I) {
    void *Ptr = Alloc.allocate(16 + (I % 7) * 8);
    ASSERT_NE(Ptr, nullptr);
    Alloc.deallocate(Ptr);
  }
  EXPECT_EQ(Alloc.stats().Allocations, 10000u);
  EXPECT_EQ(Alloc.stats().Deallocations, 10000u);
}

//===----------------------------------------------------------------------===//
// Page retirement (PR 9)
//===----------------------------------------------------------------------===//

TEST(PageRetirement, RetiredPagesNeverReenterTheLottery) {
  DieHardHeap Heap(testConfig(77));
  // Populate, then retire the page under one victim object.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 32; ++I)
    Ptrs.push_back(Heap.allocate(64));
  const uintptr_t Page = reinterpret_cast<uintptr_t>(Ptrs[5]) & ~uintptr_t(0xfff);
  Heap.retirePage(Page);
  EXPECT_TRUE(Heap.isPageRetired(Page));
  EXPECT_GE(Heap.retiredPageCount(), 1u);

  // Free everything — slots on the retired page go to quarantine, the
  // rest return to the pool.
  for (void *Ptr : Ptrs)
    Heap.deallocate(Ptr);
  EXPECT_GT(Heap.retiredSlotCount(), 0u);

  // No future allocation may land on the retired page.
  for (int I = 0; I < 2000; ++I) {
    void *Ptr = Heap.allocate(64);
    ASSERT_NE(Ptr, nullptr);
    EXPECT_FALSE(Heap.isPageRetired(reinterpret_cast<uintptr_t>(Ptr)))
        << "allocation " << I << " landed on a retired page";
  }
}

TEST(PageRetirement, RetireIsIdempotent) {
  DieHardHeap Heap(testConfig(5));
  void *Ptr = Heap.allocate(64);
  const uintptr_t Page = reinterpret_cast<uintptr_t>(Ptr) & ~uintptr_t(0xfff);
  Heap.deallocate(Ptr);
  const size_t First = Heap.retirePage(Page);
  EXPECT_GT(First, 0u); // the freed slot was quarantined immediately
  EXPECT_EQ(Heap.retirePage(Page), 0u);
  EXPECT_EQ(Heap.retiredPageCount(), 1u);
}

TEST(PageRetirement, ForeignPageRetiresNothing) {
  DieHardHeap Heap(testConfig(6));
  EXPECT_EQ(Heap.retirePage(0x12340000), 0u);
  EXPECT_TRUE(Heap.isPageRetired(0x12340000));
  // The heap still allocates normally.
  EXPECT_NE(Heap.allocate(64), nullptr);
}
