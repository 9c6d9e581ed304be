//===- tests/correct_test.cpp - Correcting allocator tests ---------------------===//

#include "correct/CorrectingHeap.h"

#include "patch/PatchIO.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace exterminator;

namespace {

DieFastConfig testConfig(uint64_t Seed = 1) {
  DieFastConfig Config;
  Config.Heap.Seed = Seed;
  Config.Heap.InitialSlots = 16;
  return Config;
}

/// A heap + context where every allocation happens under frame A and
/// every free under frame F, so patches can be keyed on known sites.
struct Fixture {
  CallContext Context;
  CorrectingHeap Heap;
  SiteId AllocSite;
  SiteId FreeSite;

  Fixture() : Heap(testConfig(), &Context) {
    CallContext Probe;
    Probe.pushFrame(0xa);
    AllocSite = Probe.currentSite();
    Probe.popFrame();
    Probe.pushFrame(0xf);
    FreeSite = Probe.currentSite();
  }

  void *allocateAtSite(size_t Size) {
    CallContext::Scope Scope(Context, 0xa);
    return Heap.allocate(Size);
  }
  void freeAtSite(void *Ptr) {
    CallContext::Scope Scope(Context, 0xf);
    Heap.deallocate(Ptr);
  }
};

} // namespace

TEST(CorrectingHeap, UnpatchedBehavesNormally) {
  Fixture F;
  void *Ptr = F.allocateAtSite(40);
  ASSERT_NE(Ptr, nullptr);
  F.freeAtSite(Ptr);
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(Ptr));
  EXPECT_EQ(F.Heap.correctionStats().PaddedAllocations, 0u);
  EXPECT_EQ(F.Heap.correctionStats().DeferredFrees, 0u);
}

TEST(CorrectingHeap, PadEnlargesAllocation) {
  Fixture F;
  PatchSet Patches;
  Patches.addPad(F.AllocSite, 6);
  F.Heap.setPatches(Patches);

  // A 64-byte request padded by 6 must land in the 128-byte class, so
  // the 6 bytes past the requested end belong to the object's own slot.
  uint8_t *Ptr = static_cast<uint8_t *>(F.allocateAtSite(64));
  ASSERT_NE(Ptr, nullptr);
  auto Ref = F.Heap.diefast().heap().findObject(Ptr);
  EXPECT_EQ(F.Heap.diefast().heap().miniheap(*Ref).objectSize(), 128u);
  EXPECT_EQ(F.Heap.correctionStats().PaddedAllocations, 1u);
  EXPECT_EQ(F.Heap.correctionStats().PadBytesAdded, 6u);

  // The overflow that motivated the pad is now contained.
  for (int I = 0; I < 6; ++I)
    Ptr[64 + I] = 0x5a;
  F.freeAtSite(Ptr);
  EXPECT_EQ(F.Heap.diefast().errorsSignalled(), 0u);
}

TEST(CorrectingHeap, PadOnlyAppliesToItsSite) {
  Fixture F;
  PatchSet Patches;
  Patches.addPad(F.AllocSite, 100);
  F.Heap.setPatches(Patches);

  // Allocation from a different call path must not be padded.
  uint8_t *Ptr;
  {
    CallContext::Scope Scope(F.Context, 0xbb);
    Ptr = static_cast<uint8_t *>(F.Heap.allocate(64));
  }
  auto Ref = F.Heap.diefast().heap().findObject(Ptr);
  EXPECT_EQ(F.Heap.diefast().heap().miniheap(*Ref).objectSize(), 64u);
  EXPECT_EQ(F.Heap.correctionStats().PaddedAllocations, 0u);
}

TEST(CorrectingHeap, DeferralDelaysFree) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 5);
  F.Heap.setPatches(Patches);

  void *Ptr = F.allocateAtSite(32);
  F.freeAtSite(Ptr);
  // Deferred: still live from the heap's perspective.
  EXPECT_TRUE(F.Heap.diefast().heap().isLivePointer(Ptr));
  EXPECT_EQ(F.Heap.deferredCount(), 1u);

  // 4 more allocations: due time (clock+5) not yet reached.
  for (int I = 0; I < 4; ++I)
    F.allocateAtSite(32);
  EXPECT_TRUE(F.Heap.diefast().heap().isLivePointer(Ptr));

  // The 5th allocation drains it.
  F.allocateAtSite(32);
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(Ptr));
  EXPECT_EQ(F.Heap.deferredCount(), 0u);
}

TEST(CorrectingHeap, DeferralKeyedOnSitePair) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 50);
  F.Heap.setPatches(Patches);

  // Same allocation site, different free site: not deferred.
  void *Ptr = F.allocateAtSite(32);
  {
    CallContext::Scope Scope(F.Context, 0xee);
    F.Heap.deallocate(Ptr);
  }
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(Ptr));
  EXPECT_EQ(F.Heap.deferredCount(), 0u);
}

TEST(CorrectingHeap, DeferredFreeKeepsOriginalFreeSite) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 2);
  F.Heap.setPatches(Patches);

  void *Ptr = F.allocateAtSite(32);
  auto Ref = F.Heap.diefast().heap().findObject(Ptr);
  F.freeAtSite(Ptr);
  // Drain under a different live context.
  {
    CallContext::Scope Scope(F.Context, 0x123);
    F.Heap.allocate(32);
    F.Heap.allocate(32);
  }
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(Ptr));
  // The recorded free site is the one where the program freed it.
  EXPECT_EQ(F.Heap.diefast().heap().objectMetadata(*Ref).FreeSite,
            F.FreeSite);
}

TEST(CorrectingHeap, DeferralQueueDrainsInDueOrder) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 3);
  F.Heap.setPatches(Patches);

  void *First = F.allocateAtSite(32);
  void *Second = F.allocateAtSite(32);
  F.freeAtSite(First);  // due at clock+3
  F.allocateAtSite(32); // advance clock
  F.freeAtSite(Second); // due later

  F.allocateAtSite(32);
  F.allocateAtSite(32); // First's due time passes
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(First));
  EXPECT_TRUE(F.Heap.diefast().heap().isLivePointer(Second));
}

TEST(CorrectingHeap, FlushDeferralsFreesEverything) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 1000000);
  F.Heap.setPatches(Patches);

  void *A = F.allocateAtSite(32);
  void *B = F.allocateAtSite(32);
  F.freeAtSite(A);
  F.freeAtSite(B);
  EXPECT_EQ(F.Heap.deferredCount(), 2u);
  F.Heap.flushDeferrals();
  EXPECT_EQ(F.Heap.deferredCount(), 0u);
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(A));
  EXPECT_FALSE(F.Heap.diefast().heap().isLivePointer(B));
}

TEST(CorrectingHeap, DragAccountingMatchesDeferral) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 4);
  F.Heap.setPatches(Patches);

  void *Ptr = F.allocateAtSite(256);
  F.freeAtSite(Ptr);
  EXPECT_EQ(F.Heap.correctionStats().CurrentDeferredBytes, 256u);
  EXPECT_EQ(F.Heap.correctionStats().MaxDeferredBytes, 256u);
  for (int I = 0; I < 4; ++I)
    F.allocateAtSite(32);
  // Drained after 4 ticks: drag = 256 bytes × 4 allocations (§7.3).
  EXPECT_EQ(F.Heap.correctionStats().CurrentDeferredBytes, 0u);
  EXPECT_EQ(F.Heap.correctionStats().DragByteTicks, 256u * 4);
}

TEST(CorrectingHeap, PatchReloadTakesEffectMidRun) {
  Fixture F;
  void *Before = F.allocateAtSite(64);
  auto RefBefore = F.Heap.diefast().heap().findObject(Before);
  EXPECT_EQ(F.Heap.diefast().heap().miniheap(*RefBefore).objectSize(), 64u);

  // "Reload signal" (§6.3): subsequent allocations are patched.
  PatchSet Patches;
  Patches.addPad(F.AllocSite, 6);
  F.Heap.setPatches(Patches);

  void *After = F.allocateAtSite(64);
  auto RefAfter = F.Heap.diefast().heap().findObject(After);
  EXPECT_EQ(F.Heap.diefast().heap().miniheap(*RefAfter).objectSize(), 128u);
}

TEST(CorrectingHeap, LoadPatchesFromFile) {
  Fixture F;
  PatchSet Patches;
  Patches.addPad(F.AllocSite, 36);
  const std::string Path = ::testing::TempDir() + "/correct_test.xpt";
  ASSERT_TRUE(savePatchSet(Patches, Path));
  ASSERT_TRUE(F.Heap.loadPatches(Path));
  EXPECT_EQ(F.Heap.patches().padFor(F.AllocSite), 36u);
}

TEST(CorrectingHeap, LoadPatchesMissingFileFails) {
  Fixture F;
  EXPECT_FALSE(F.Heap.loadPatches("/nonexistent/patches.xpt"));
}

TEST(CorrectingHeap, InvalidAndDoubleFreesStillBenign) {
  Fixture F;
  void *Ptr = F.allocateAtSite(32);
  F.freeAtSite(Ptr);
  F.freeAtSite(Ptr); // double free through the correcting layer
  int Local;
  F.Heap.deallocate(&Local);
  EXPECT_EQ(F.Heap.stats().DoubleFrees, 1u);
  EXPECT_EQ(F.Heap.stats().InvalidFrees, 1u);
}

TEST(CorrectingHeap, HugePadIsDroppedRatherThanFailing) {
  Fixture F;
  PatchSet Patches;
  Patches.addPad(F.AllocSite, 1u << 30); // absurd pad
  F.Heap.setPatches(Patches);
  // The request must still succeed (unpadded) rather than return null.
  EXPECT_NE(F.allocateAtSite(64), nullptr);
}

TEST(CorrectingHeap, DeferredObjectNotReusedWhileDeferred) {
  Fixture F;
  PatchSet Patches;
  Patches.addDeferral(F.AllocSite, F.FreeSite, 200);
  F.Heap.setPatches(Patches);

  uint8_t *Ptr = static_cast<uint8_t *>(F.allocateAtSite(32));
  std::memset(Ptr, 0x42, 32);
  F.freeAtSite(Ptr);
  // While deferred, the contents must survive and the slot must not be
  // handed out — that is the whole point of the correction (§6.2).
  for (int I = 0; I < 100; ++I)
    EXPECT_NE(F.allocateAtSite(32), Ptr);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Ptr[I], 0x42);
}

TEST(CorrectingHeap, LivePadBytesReturnExactlyWhatAllocationAdded) {
  // §7.3 live-pad accounting: a free gives back the pads its object was
  // allocated with, not what the current patch set would give it.
  {
    // Front pads count like back pads: 100 alloc/free pairs at an 8-byte
    // front-padded site never hold more than one pad live.
    Fixture F;
    PatchSet Patches;
    Patches.addFrontPad(F.AllocSite, 8);
    F.Heap.setPatches(Patches);
    for (int I = 0; I < 100; ++I)
      F.freeAtSite(F.allocateAtSite(40));
    EXPECT_EQ(F.Heap.correctionStats().PadBytesAdded, 800u);
    EXPECT_EQ(F.Heap.correctionStats().LivePadBytes, 0u);
    EXPECT_EQ(F.Heap.correctionStats().MaxLivePadBytes, 8u);
  }
  {
    // A reload between allocation and free (§3.4's on-the-fly
    // patching) does not change what the object's free returns.
    Fixture F;
    PatchSet Small;
    Small.addPad(F.AllocSite, 16);
    F.Heap.setPatches(Small);
    void *UnderSmall = F.allocateAtSite(40);
    EXPECT_EQ(F.Heap.correctionStats().LivePadBytes, 16u);
    PatchSet Large;
    Large.addPad(F.AllocSite, 64);
    F.Heap.setPatches(Large);
    void *UnderLarge = F.allocateAtSite(40);
    EXPECT_EQ(F.Heap.correctionStats().LivePadBytes, 80u);
    F.freeAtSite(UnderSmall);
    EXPECT_EQ(F.Heap.correctionStats().LivePadBytes, 64u);
    F.freeAtSite(UnderLarge);
    EXPECT_EQ(F.Heap.correctionStats().LivePadBytes, 0u);
    EXPECT_EQ(F.Heap.correctionStats().MaxLivePadBytes, 80u);
  }
}

//===----------------------------------------------------------------------===//
// Hardware reports (PR 9)
//===----------------------------------------------------------------------===//

TEST(CorrectingHeap, HardwareReportRetiresItsPage) {
  Fixture F;
  void *Ptr = F.allocateAtSite(64);
  const uintptr_t Page =
      reinterpret_cast<uintptr_t>(Ptr) & ~uintptr_t(0xfff);
  F.freeAtSite(Ptr);

  PatchSet Patches;
  Patches.addHardwareReport(Page, HardwareFaultBitFlip, 2);
  F.Heap.setPatches(Patches);

  DieHardHeap &Backend = F.Heap.diefast().heap();
  EXPECT_TRUE(Backend.isPageRetired(Page));
  const size_t Retired = Backend.retiredSlotCount();
  EXPECT_GT(Retired, 0u);

  // Patch reloads ship supersets: re-applying the same page with more
  // evidence retires nothing new.
  Patches.addHardwareReport(Page, HardwareFaultBitFlip, 4);
  F.Heap.setPatches(Patches);
  EXPECT_EQ(Backend.retiredSlotCount(), Retired);

  for (int I = 0; I < 500; ++I) {
    void *Fresh = F.allocateAtSite(64);
    ASSERT_NE(Fresh, nullptr);
    EXPECT_FALSE(Backend.isPageRetired(reinterpret_cast<uintptr_t>(Fresh)));
  }
}
