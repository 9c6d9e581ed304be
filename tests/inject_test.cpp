//===- tests/inject_test.cpp - Fault injector tests ----------------------------===//

#include "inject/FaultInjector.h"

#include "diefast/DieFastHeap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace exterminator;

namespace {

DieFastConfig testConfig(uint64_t Seed = 1) {
  DieFastConfig Config;
  Config.Heap.Seed = Seed;
  Config.Heap.InitialSlots = 16;
  return Config;
}

FaultPlan overflowPlan(uint64_t Trigger, uint32_t Bytes) {
  FaultPlan Plan;
  Plan.Kind = FaultKind::BufferOverflow;
  Plan.TriggerAllocation = Trigger;
  Plan.OverflowBytes = Bytes;
  Plan.PatternSeed = 99;
  return Plan;
}

} // namespace

TEST(FaultInjector, NoPlanIsTransparent) {
  DieFastHeap Heap(testConfig());
  FaultInjector Injector(Heap, FaultPlan());
  void *Ptr = Injector.allocate(64);
  ASSERT_NE(Ptr, nullptr);
  Injector.deallocate(Ptr);
  EXPECT_FALSE(Injector.faultFired());
  EXPECT_EQ(Heap.errorsSignalled(), 0u);
}

TEST(FaultInjector, OverflowWritesPastRequestedEnd) {
  DieFastHeap Heap(testConfig());
  FaultInjector Injector(Heap, overflowPlan(3, 6));
  Injector.allocate(64);
  Injector.allocate(64);
  uint8_t *Target = static_cast<uint8_t *>(Injector.allocate(64));
  EXPECT_TRUE(Injector.faultFired());
  // Bytes past the end are nonzero (the deterministic overflow string).
  bool AnyNonZero = false;
  for (int I = 0; I < 6; ++I)
    AnyNonZero |= Target[64 + I] != 0;
  EXPECT_TRUE(AnyNonZero);
}

TEST(FaultInjector, OverflowStringIsDeterministicAcrossHeapSeeds) {
  // The injected fault must be identical across differently-randomized
  // heaps — the §2.1 deterministic-error assumption.
  uint8_t StringA[8], StringB[8];
  for (int Round = 0; Round < 2; ++Round) {
    DieFastHeap Heap(testConfig(Round == 0 ? 1 : 999));
    FaultInjector Injector(Heap, overflowPlan(2, 8));
    Injector.allocate(64);
    uint8_t *Target = static_cast<uint8_t *>(Injector.allocate(64));
    std::memcpy(Round == 0 ? StringA : StringB, Target + 64, 8);
  }
  EXPECT_EQ(std::memcmp(StringA, StringB, 8), 0);
}

TEST(FaultInjector, DelayedOverflowFiresLater) {
  DieFastHeap Heap(testConfig());
  FaultPlan Plan = overflowPlan(1, 4);
  Plan.OverflowDelay = 3;
  FaultInjector Injector(Heap, Plan);
  uint8_t *Target = static_cast<uint8_t *>(Injector.allocate(64));
  EXPECT_FALSE(Injector.faultFired());
  Injector.allocate(64);
  Injector.allocate(64);
  EXPECT_FALSE(Injector.faultFired());
  Injector.allocate(64); // allocation 4 = trigger + delay
  EXPECT_TRUE(Injector.faultFired());
  EXPECT_NE(Target[64], 0);
}

TEST(FaultInjector, OverflowFiresOnFreeIfTargetDiesEarly) {
  DieFastHeap Heap(testConfig());
  FaultPlan Plan = overflowPlan(1, 4);
  Plan.OverflowDelay = 1000; // would never fire by allocation count
  FaultInjector Injector(Heap, Plan);
  uint8_t *Target = static_cast<uint8_t *>(Injector.allocate(64));
  Injector.deallocate(Target);
  EXPECT_TRUE(Injector.faultFired());
}

TEST(FaultInjector, PrematureFreeDanglesALiveObject) {
  DieFastHeap Heap(testConfig());
  FaultPlan Plan;
  Plan.Kind = FaultKind::PrematureFree;
  Plan.TriggerAllocation = 10;
  Plan.PatternSeed = 5;
  Plan.VictimWindow = 4;
  FaultInjector Injector(Heap, Plan);

  std::vector<void *> Ptrs;
  for (int I = 0; I < 10; ++I)
    Ptrs.push_back(Injector.allocate(32));
  ASSERT_TRUE(Injector.faultFired());
  const void *Victim = Injector.injectedVictim();
  ASSERT_NE(Victim, nullptr);
  // The victim is one of the program's pointers and is no longer live.
  EXPECT_NE(std::find(Ptrs.begin(), Ptrs.end(), Victim), Ptrs.end());
  EXPECT_FALSE(Heap.heap().isLivePointer(Victim));
}

TEST(FaultInjector, VictimChoiceIsDeterministicAcrossHeapSeeds) {
  // The victim is chosen by application-level allocation order, so the
  // same logical object dangles under every heap randomization.
  size_t IndexA = ~size_t(0), IndexB = ~size_t(0);
  for (int Round = 0; Round < 2; ++Round) {
    DieFastHeap Heap(testConfig(Round == 0 ? 3 : 777));
    FaultPlan Plan;
    Plan.Kind = FaultKind::PrematureFree;
    Plan.TriggerAllocation = 8;
    Plan.PatternSeed = 21;
    FaultInjector Injector(Heap, Plan);
    std::vector<void *> Ptrs;
    for (int I = 0; I < 8; ++I)
      Ptrs.push_back(Injector.allocate(32));
    const void *Victim = Injector.injectedVictim();
    const size_t Index =
        std::find(Ptrs.begin(), Ptrs.end(), Victim) - Ptrs.begin();
    (Round == 0 ? IndexA : IndexB) = Index;
  }
  EXPECT_EQ(IndexA, IndexB);
  EXPECT_LT(IndexA, 8u);
}

TEST(FaultInjector, ProgramsOwnFreeOfVictimBecomesDoubleFree) {
  DieFastHeap Heap(testConfig());
  FaultPlan Plan;
  Plan.Kind = FaultKind::PrematureFree;
  Plan.TriggerAllocation = 5;
  FaultInjector Injector(Heap, Plan);
  std::vector<void *> Ptrs;
  for (int I = 0; I < 5; ++I)
    Ptrs.push_back(Injector.allocate(32));
  ASSERT_TRUE(Injector.faultFired());
  // The program eventually frees everything, including the victim.
  for (void *Ptr : Ptrs)
    Injector.deallocate(Ptr);
  EXPECT_EQ(Heap.stats().DoubleFrees, 1u);
}

TEST(FaultInjector, DifferentSeedsPickDifferentVictims) {
  std::vector<size_t> Indexes;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    DieFastHeap Heap(testConfig());
    FaultPlan Plan;
    Plan.Kind = FaultKind::PrematureFree;
    Plan.TriggerAllocation = 16;
    Plan.PatternSeed = Seed;
    Plan.VictimWindow = 16;
    FaultInjector Injector(Heap, Plan);
    std::vector<void *> Ptrs;
    for (int I = 0; I < 16; ++I)
      Ptrs.push_back(Injector.allocate(32));
    Indexes.push_back(std::find(Ptrs.begin(), Ptrs.end(),
                                Injector.injectedVictim()) -
                      Ptrs.begin());
  }
  // Not all eight plans should hit the same victim.
  bool AllSame = true;
  for (size_t I : Indexes)
    AllSame &= I == Indexes[0];
  EXPECT_FALSE(AllSame);
}

//===----------------------------------------------------------------------===//
// Hardware fault models (PR 9)
//===----------------------------------------------------------------------===//

namespace {

FaultPlan hardwarePlan(FaultKind Kind, uint64_t Trigger, uint64_t Seed) {
  FaultPlan Plan;
  Plan.Kind = Kind;
  Plan.TriggerAllocation = Trigger;
  Plan.PatternSeed = Seed;
  return Plan;
}

/// Canonical hardware-fault driver: churn that leaves freed, canaried
/// slots (the preferred victims), the trigger crossing, then trailing
/// activity so StuckAt has rewrites to re-corrupt.
void driveHardwareOps(FaultInjector &Injector) {
  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(Injector.allocate(64));
  for (int I = 0; I < 16; I += 2)
    Injector.deallocate(Ptrs[I]);
  // Enough trailing recycling that the victim slot is drawn again and
  // both zero-filled and canary-refilled — the rewrites StuckAt re-forces.
  for (int I = 0; I < 60; ++I) {
    void *Ptr = Injector.allocate(64);
    Injector.deallocate(Ptr);
  }
}

std::vector<FaultInjector::InjectedFlip>
runHardware(FaultKind Kind, uint64_t HeapSeed, uint64_t PatternSeed,
            FaultInjectorStats *StatsOut = nullptr) {
  DieFastHeap Heap(testConfig(HeapSeed));
  FaultInjector Injector(Heap, hardwarePlan(Kind, 20, PatternSeed));
  Injector.attachHeap(&Heap.heap());
  driveHardwareOps(Injector);
  if (StatsOut)
    *StatsOut = Injector.injectorStats();
  return Injector.injectedFlips();
}

bool flipsEqual(const std::vector<FaultInjector::InjectedFlip> &A,
                const std::vector<FaultInjector::InjectedFlip> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].AllocIndex != B[I].AllocIndex ||
        A[I].ByteOffset != B[I].ByteOffset || A[I].Mask != B[I].Mask)
      return false;
  return true;
}

} // namespace

TEST(HardwareFault, ReplayIsBitIdenticalPerSeed) {
  // Same plan seed + same heap seed must reproduce the exact corruption:
  // (victim allocation index, byte offset, XOR mask) sequences match.
  for (FaultKind Kind :
       {FaultKind::BitFlip, FaultKind::StuckAt, FaultKind::RowCluster}) {
    const auto RunA = runHardware(Kind, 5, 42);
    const auto RunB = runHardware(Kind, 5, 42);
    EXPECT_FALSE(RunA.empty()) << "kind " << int(Kind);
    EXPECT_TRUE(flipsEqual(RunA, RunB)) << "kind " << int(Kind);
  }
}

TEST(HardwareFault, BitFlipDecorrelatesAcrossHeapSeeds) {
  // Placement keying: differently-randomized heaps put different objects
  // at the fault's physical location, so the struck allocation index
  // and/or offset varies across heap seeds — unlike a software bug.
  std::vector<std::pair<uint64_t, uint32_t>> Struck;
  for (uint64_t HeapSeed = 1; HeapSeed <= 8; ++HeapSeed) {
    const auto Flips = runHardware(FaultKind::BitFlip, HeapSeed, 42);
    ASSERT_FALSE(Flips.empty());
    Struck.emplace_back(Flips[0].AllocIndex, Flips[0].ByteOffset);
  }
  bool AllSame = true;
  for (const auto &S : Struck)
    AllSame &= S == Struck[0];
  EXPECT_FALSE(AllSame);
}

TEST(HardwareFault, BitFlipFlipsRequestedBitCount) {
  DieFastHeap Heap(testConfig(9));
  FaultPlan Plan = hardwarePlan(FaultKind::BitFlip, 20, 7);
  Plan.FlipBits = 3;
  FaultInjector Injector(Heap, Plan);
  Injector.attachHeap(&Heap.heap());
  driveHardwareOps(Injector);
  EXPECT_TRUE(Injector.faultFired());
  EXPECT_EQ(Injector.injectorStats().HardwareFaultEvents, 1u);
  EXPECT_EQ(Injector.injectorStats().BitsFlipped, 3u);
  // The software counter stays untouched: this is not a site bug.
  EXPECT_EQ(Injector.injectorStats().SoftwareFaultsFired, 0u);
}

TEST(HardwareFault, StuckAtRecorruptsAfterEveryRewrite) {
  DieFastHeap Heap(testConfig(11));
  FaultInjector Injector(Heap, hardwarePlan(FaultKind::StuckAt, 20, 5));
  Injector.attachHeap(&Heap.heap());
  driveHardwareOps(Injector);
  ASSERT_TRUE(Injector.faultFired());
  const auto &Flips = Injector.injectedFlips();
  ASSERT_FALSE(Flips.empty());
  const uint64_t Before = Injector.injectorStats().StuckAtRewrites;
  EXPECT_GE(Before, 1u);
  // Faithfully rewrite the stuck cell, as a canary refill or a new
  // occupant would; the next heap operation re-forces the stuck bit.
  uint8_t *Cell = static_cast<uint8_t *>(
                      const_cast<void *>(Injector.injectedVictim())) +
                  Flips[0].ByteOffset;
  *Cell = static_cast<uint8_t>(~*Cell);
  void *Ptr = Injector.allocate(8);
  Injector.deallocate(Ptr);
  EXPECT_GE(Injector.injectorStats().StuckAtRewrites, Before + 1);
  EXPECT_EQ(Injector.injectedFlips().size(),
            Injector.injectorStats().StuckAtRewrites);
}

TEST(HardwareFault, RowClusterCorruptsMultipleObjects) {
  FaultInjectorStats Stats;
  const auto Flips = runHardware(FaultKind::RowCluster, 13, 3, &Stats);
  // A 1 KiB row over 64-byte slots spans many tracked objects.
  EXPECT_GE(Stats.RowObjectsCorrupted, 2u);
  EXPECT_EQ(Flips.size(), Stats.RowObjectsCorrupted);
  EXPECT_EQ(Stats.BitsFlipped, Stats.RowObjectsCorrupted);
}

TEST(HardwareFault, FallbackWithoutBackendStillReplays) {
  // Without an attached heap the injector keys victims by allocation
  // order: still deterministic per seed, just not placement-decorrelated.
  DieFastHeap HeapA(testConfig(3));
  FaultInjector InjectorA(HeapA, hardwarePlan(FaultKind::BitFlip, 20, 9));
  driveHardwareOps(InjectorA);
  DieFastHeap HeapB(testConfig(3));
  FaultInjector InjectorB(HeapB, hardwarePlan(FaultKind::BitFlip, 20, 9));
  driveHardwareOps(InjectorB);
  EXPECT_FALSE(InjectorA.injectedFlips().empty());
  EXPECT_TRUE(
      flipsEqual(InjectorA.injectedFlips(), InjectorB.injectedFlips()));
}
