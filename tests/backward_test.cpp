//===- tests/backward_test.cpp - Backward-overflow extension tests -------------===//
//
// Tests of the §2.1 extension: the paper assumes forward overflows and
// notes "it is possible to extend Exterminator to handle backwards
// overflows"; this reproduction implements that extension — detection of
// negative-offset corruption agreement and correction via front padding.
//
//===----------------------------------------------------------------------===//

#include "isolate/ErrorIsolator.h"
#include "patch/PatchIO.h"
#include "runtime/IterativeDriver.h"

#include "TestHelpers.h"
#include "workload/TraceWorkload.h"

#include <gtest/gtest.h>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {
constexpr uint32_t SiteA = 0x100, SiteB = 0x200, SiteF = 0x300;

SiteId tokenSite(uint32_t Token) {
  CallContext Context;
  Context.pushFrame(Token);
  return Context.currentSite();
}

/// A 64-byte buffer underrun by \p Bytes amid canaried churn.
std::vector<TraceOp> underflowTrace(uint32_t Bytes) {
  std::vector<TraceOp> Ops;
  for (uint32_t Round = 0; Round < 6; ++Round) {
    for (uint32_t I = 0; I < 30; ++I)
      Ops.push_back(TraceOp::alloc(1000 + Round * 30 + I, 64, SiteB));
    for (uint32_t I = 0; I < 30; ++I)
      Ops.push_back(TraceOp::free(1000 + Round * 30 + I, SiteF));
  }
  Ops.push_back(TraceOp::alloc(100, 64, SiteA));
  Ops.push_back(TraceOp::write(100, 0, 64, 0x11)); // in-bounds
  Ops.push_back(TraceOp::writeBack(100, Bytes, Bytes, 0x66)); // underrun!
  for (uint32_t I = 200; I < 212; ++I) {
    Ops.push_back(TraceOp::alloc(I, 64, SiteB));
    Ops.push_back(TraceOp::free(I, SiteF));
  }
  return Ops;
}
} // namespace

TEST(BackwardOverflow, IsolatorFindsNegativeOffsetCulprit) {
  const auto Images = imagesFromTrace(underflowTrace(8), 4);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Overflows.empty());
  const OverflowCandidate &Top = Result.Overflows.front();
  EXPECT_EQ(Top.CulpritAllocSite, tokenSite(SiteA));
  EXPECT_GE(Top.FrontPadBytes, 8u);
  EXPECT_EQ(Result.Patches.frontPadFor(tokenSite(SiteA)),
            Top.FrontPadBytes);
}

TEST(BackwardOverflow, FrontPadShiftsPointerAndFreeStillWorks) {
  CallContext Context;
  CorrectingHeap Heap(DieFastConfig(), &Context);
  PatchSet Patches;
  CallContext Probe;
  Probe.pushFrame(0xa);
  Patches.addFrontPad(Probe.currentSite(), 8);
  Heap.setPatches(Patches);

  uint8_t *Ptr;
  {
    CallContext::Scope Scope(Context, 0xa);
    Ptr = static_cast<uint8_t *>(Heap.allocate(56));
  }
  ASSERT_NE(Ptr, nullptr);
  // The app pointer is 8 bytes into the slot: an 8-byte underrun stays
  // inside the object's own allocation.
  auto Ref = Heap.diefast().heap().findObject(Ptr);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_EQ(Ptr, Heap.diefast().heap().objectPointer(*Ref) + 8);
  for (int I = 1; I <= 8; ++I)
    Ptr[-I] = 0x77;

  // The program frees the pointer it was given; no invalid free, no
  // corruption.
  {
    CallContext::Scope Scope(Context, 0xf);
    Heap.deallocate(Ptr);
  }
  EXPECT_EQ(Heap.stats().InvalidFrees, 0u);
  EXPECT_EQ(Heap.stats().Deallocations, 1u);
  EXPECT_EQ(Heap.diefast().errorsSignalled(), 0u);
}

TEST(BackwardOverflow, FrontPadRoundsToAlignment) {
  CallContext Context;
  CorrectingHeap Heap(DieFastConfig(), &Context);
  PatchSet Patches;
  CallContext Probe;
  Probe.pushFrame(0xa);
  Patches.addFrontPad(Probe.currentSite(), 5); // rounds up to 8
  Heap.setPatches(Patches);

  uint8_t *Ptr;
  {
    CallContext::Scope Scope(Context, 0xa);
    Ptr = static_cast<uint8_t *>(Heap.allocate(32));
  }
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Ptr) % 8, 0u);
}

TEST(BackwardOverflow, EndToEndIterativeCorrection) {
  TraceWorkload Work(underflowTrace(8));
  ExterminatorConfig Config;
  Config.MasterSeed = 0xbacc;
  IterativeDriver Driver(Work, Config);
  const IterativeOutcome Outcome = Driver.run(1);
  ASSERT_FALSE(Outcome.Episodes.empty());
  EXPECT_TRUE(Outcome.Corrected);
  EXPECT_GE(Outcome.Patches.frontPadFor(tokenSite(SiteA)), 8u);
}

TEST(BackwardOverflow, PatchSetFrontPadSemantics) {
  PatchSet Patches;
  Patches.addFrontPad(1, 8);
  Patches.addFrontPad(1, 4); // smaller: ignored
  EXPECT_EQ(Patches.frontPadFor(1), 8u);
  EXPECT_EQ(Patches.frontPadFor(2), 0u);
  EXPECT_FALSE(Patches.empty());
  EXPECT_EQ(Patches.frontPadCount(), 1u);

  PatchSet Other;
  Other.addFrontPad(1, 16);
  Patches.merge(Other);
  EXPECT_EQ(Patches.frontPadFor(1), 16u);
}

TEST(BackwardOverflow, FrontPadsSurviveSerialization) {
  PatchSet Patches;
  Patches.addPad(1, 6);
  Patches.addFrontPad(2, 8);
  Patches.addDeferral(3, 4, 99);
  PatchSet Back;
  ASSERT_TRUE(deserializePatchSet(serializePatchSet(Patches), Back));
  EXPECT_TRUE(Back == Patches);
}

TEST(BackwardOverflow, GuardRegionAbsorbsSlotZeroUnderrun) {
  // An underrun from the first slot of a miniheap must not touch memory
  // the allocator does not own (the front guard absorbs it).
  DieHardConfig Config;
  Config.Seed = 1;
  DieHardHeap Heap(Config);
  // Find an object in slot 0.
  for (int I = 0; I < 200; ++I) {
    uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(32));
    auto Ref = Heap.findObject(Ptr);
    if (Ref->SlotIndex == 0) {
      Ptr[-1] = 0x5a; // lands in the guard, not in foreign memory
      Ptr[-64] = 0x5a;
      SUCCEED();
      return;
    }
    Heap.deallocate(Ptr);
  }
  GTEST_SKIP() << "slot 0 never drawn";
}
