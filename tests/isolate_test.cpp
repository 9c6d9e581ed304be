//===- tests/isolate_test.cpp - Error isolation tests (§4) --------------------===//

#include "isolate/ErrorIsolator.h"

#include "GoldenDigest.h"
#include "TestHelpers.h"
#include "patch/PatchIO.h"
#include "workload/ScriptedBugs.h"
#include "workload/TraceWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

/// Site tokens used by the scripted scenarios.
constexpr uint32_t SiteA = 0x100; // culprit / dangled allocation site
constexpr uint32_t SiteB = 0x200; // bystander allocations
constexpr uint32_t SiteF = 0x300; // frees

SiteId tokenSite(uint32_t Token) {
  CallContext Context;
  Context.pushFrame(Token);
  return Context.currentSite();
}

/// Churn that cycles allocations through most slots of the 64-byte
/// class, so freed space carries canaries the way a long-running heap's
/// does (virgin never-allocated slots are unobservable, as in the
/// paper's canary-bitmap design).
void churnWarmup(std::vector<TraceOp> &Ops, uint32_t BaseSlot) {
  for (uint32_t Round = 0; Round < 6; ++Round) {
    for (uint32_t I = 0; I < 30; ++I)
      Ops.push_back(
          TraceOp::alloc(BaseSlot + Round * 30 + I, /*Size=*/64, SiteB));
    for (uint32_t I = 0; I < 30; ++I)
      Ops.push_back(TraceOp::free(BaseSlot + Round * 30 + I, SiteF));
  }
}

/// Scripted overflow: a 64-byte buffer (slot-exact) overflowed by
/// \p OverflowBytes amid bystander churn.
std::vector<TraceOp> overflowTrace(uint32_t OverflowBytes) {
  std::vector<TraceOp> Ops;
  churnWarmup(Ops, 1000);
  // Bystander population: live objects and canaried free slots.
  for (uint32_t I = 0; I < 24; ++I)
    Ops.push_back(TraceOp::alloc(/*Slot=*/I, /*Size=*/64, SiteB));
  for (uint32_t I = 0; I < 24; I += 2)
    Ops.push_back(TraceOp::free(I, SiteF));
  // The culprit, then the deterministic overrun past its end.
  Ops.push_back(TraceOp::alloc(100, 64, SiteA));
  Ops.push_back(TraceOp::write(100, 0, 64, 0x11)); // in-bounds fill
  Ops.push_back(
      TraceOp::write(100, 64, OverflowBytes, 0x77)); // the overflow
  // Trailing churn so detection has something to hook into.
  for (uint32_t I = 200; I < 212; ++I) {
    Ops.push_back(TraceOp::alloc(I, 64, SiteB));
    Ops.push_back(TraceOp::free(I, SiteF));
  }
  return Ops;
}

/// Scripted dangling overwrite: object freed, then written through the
/// stale pointer with deterministic program data.
std::vector<TraceOp> danglingTrace() {
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < 16; ++I)
    Ops.push_back(TraceOp::alloc(I, 32, SiteB));
  Ops.push_back(TraceOp::alloc(50, 64, SiteA));
  Ops.push_back(TraceOp::free(50, SiteF)); // premature free
  // Churn between free and the stale write.
  for (uint32_t I = 100; I < 106; ++I)
    Ops.push_back(TraceOp::alloc(I, 32, SiteB));
  // The dangling write: identical bytes in every run (§4.2).
  Ops.push_back(TraceOp::write(50, 8, 16, 0x3c));
  for (uint32_t I = 200; I < 204; ++I)
    Ops.push_back(TraceOp::alloc(I, 32, SiteB));
  return Ops;
}

} // namespace

//===----------------------------------------------------------------------===//
// Overflow isolation
//===----------------------------------------------------------------------===//

TEST(OverflowIsolation, FindsCulpritSiteWithThreeImages) {
  const auto Images = imagesFromTrace(overflowTrace(6), 3);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Overflows.empty());
  EXPECT_EQ(Result.Overflows.front().CulpritAllocSite, tokenSite(SiteA));
}

TEST(OverflowIsolation, PadMatchesOverflowExtent) {
  const auto Images = imagesFromTrace(overflowTrace(6), 3);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Overflows.empty());
  // The pad must contain the full 6-byte overrun, and not wildly more.
  EXPECT_GE(Result.Overflows.front().PadBytes, 6u);
  EXPECT_LE(Result.Overflows.front().PadBytes, 8u);
  EXPECT_EQ(Result.Patches.padFor(tokenSite(SiteA)),
            Result.Overflows.front().PadBytes);
}

TEST(OverflowIsolation, TopCandidateHasHighScore) {
  const auto Images = imagesFromTrace(overflowTrace(20), 3);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Overflows.empty());
  EXPECT_GT(Result.Overflows.front().Score, 0.99);
  EXPECT_GE(Result.Overflows.front().Confirmations, 2u);
}

TEST(OverflowIsolation, NoFindingsOnCleanImages) {
  std::vector<TraceOp> Clean;
  for (uint32_t I = 0; I < 32; ++I) {
    Clean.push_back(TraceOp::alloc(I, 64, SiteB));
    Clean.push_back(TraceOp::write(I, 0, 64, 0x22));
  }
  for (uint32_t I = 0; I < 32; I += 2)
    Clean.push_back(TraceOp::free(I, SiteF));
  const auto Images = imagesFromTrace(Clean, 3);
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_TRUE(Result.Overflows.empty());
  EXPECT_TRUE(Result.Danglings.empty());
  EXPECT_TRUE(Result.Patches.empty());
}

TEST(OverflowIsolation, RequiresAtLeastTwoImages) {
  const auto Images = imagesFromTrace(overflowTrace(6), 1);
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_TRUE(Result.Patches.empty());
}

TEST(OverflowIsolation, PointerValuesAreNotFlaggedAsCorruption) {
  // Live objects holding pointers differ across heaps by construction;
  // the isolator must mask them (§4.1).  The trace cannot store computed
  // pointers, so build images by hand from a pointer-heavy workload run.
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < 16; ++I)
    Ops.push_back(TraceOp::alloc(I, 64, SiteB));
  // No bug at all, but lots of churn.
  for (uint32_t I = 0; I < 16; I += 3)
    Ops.push_back(TraceOp::free(I, SiteF));
  const auto Images = imagesFromTrace(Ops, 4);
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_TRUE(Result.Patches.empty());
}

// Parameterized over the paper's injected overflow sizes (§7.2).
class OverflowSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OverflowSizeSweep, IsolatedAndPadded) {
  const uint32_t Size = GetParam();
  const auto Images = imagesFromTrace(overflowTrace(Size), 3);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Overflows.empty()) << "overflow of " << Size;
  EXPECT_EQ(Result.Overflows.front().CulpritAllocSite, tokenSite(SiteA));
  EXPECT_GE(Result.Overflows.front().PadBytes, Size);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, OverflowSizeSweep,
                         ::testing::Values(4, 20, 36));

//===----------------------------------------------------------------------===//
// Dangling isolation
//===----------------------------------------------------------------------===//

TEST(DanglingIsolation, FindsIdenticalOverwrite) {
  const auto Images = imagesFromTrace(danglingTrace(), 3);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Danglings.empty());
  const DanglingFinding &Finding = Result.Danglings.front();
  EXPECT_EQ(Finding.AllocSite, tokenSite(SiteA));
  EXPECT_EQ(Finding.FreeSite, tokenSite(SiteF));
}

TEST(DanglingIsolation, DeferralIsTwiceFreeToFailurePlusOne) {
  const auto Images = imagesFromTrace(danglingTrace(), 3);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Danglings.empty());
  const DanglingFinding &Finding = Result.Danglings.front();
  EXPECT_EQ(Finding.DeferralTicks,
            2 * (Finding.FailureTime - Finding.FreeTime) + 1);
  EXPECT_EQ(Result.Patches.deferralFor(Finding.AllocSite, Finding.FreeSite),
            Finding.DeferralTicks);
}

TEST(DanglingIsolation, OverwriteNotMisclassifiedAsOverflow) {
  const auto Images = imagesFromTrace(danglingTrace(), 3);
  const IsolationResult Result = isolateErrors(Images);
  // The dangled object's corruption must be excluded from overflow
  // evidence (Theorem 1 separates the two cases).
  EXPECT_EQ(Result.Patches.padFor(tokenSite(SiteA)), 0u);
  EXPECT_EQ(Result.Patches.padFor(tokenSite(SiteB)), 0u);
}

TEST(DanglingIsolation, TwoImagesSuffice) {
  const auto Images = imagesFromTrace(danglingTrace(), 2);
  const IsolationResult Result = isolateErrors(Images);
  ASSERT_FALSE(Result.Danglings.empty());
  EXPECT_EQ(Result.Danglings.front().AllocSite, tokenSite(SiteA));
}

TEST(DanglingIsolation, ReadOnlyDanglingYieldsNothing) {
  // A dangled object that is never written leaves no corruption: the
  // iterative-mode isolator must come up empty (§4.2; cumulative mode
  // exists for exactly this case).
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < 16; ++I)
    Ops.push_back(TraceOp::alloc(I, 32, SiteB));
  Ops.push_back(TraceOp::alloc(50, 64, SiteA));
  Ops.push_back(TraceOp::free(50, SiteF));
  Ops.push_back(TraceOp::read(50, 16)); // read-only use-after-free
  const auto Images = imagesFromTrace(Ops, 3);
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_TRUE(Result.Danglings.empty());
  EXPECT_TRUE(Result.Patches.empty());
}

//===----------------------------------------------------------------------===//
// Combined scenarios
//===----------------------------------------------------------------------===//

TEST(ErrorIsolation, OverflowAndDanglingInOneRun) {
  std::vector<TraceOp> Ops = danglingTrace();
  // Add an overflow on top (slots 300+ to avoid collisions).
  churnWarmup(Ops, 2000);
  Ops.push_back(TraceOp::alloc(300, 64, SiteA));
  Ops.push_back(TraceOp::write(300, 64, 12, 0x44));
  for (uint32_t I = 310; I < 318; ++I) {
    Ops.push_back(TraceOp::alloc(I, 64, SiteB));
    Ops.push_back(TraceOp::free(I, SiteF));
  }
  const auto Images = imagesFromTrace(Ops, 3);
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_FALSE(Result.Danglings.empty());
  ASSERT_FALSE(Result.Overflows.empty());
  EXPECT_GE(Result.Overflows.front().PadBytes, 12u);
}

TEST(ErrorIsolation, EvidenceCollectorClassifiesWords) {
  // Unit-level checks of the §4.1 masking rules.
  const auto Images = imagesFromTrace(overflowTrace(6), 3);
  const std::vector<HeapImageView> Views = makeViews(Images);
  const EvidenceCollector Collector(Views);

  EXPECT_EQ(Collector.classifyWord(1, 0, {5, 5, 5}), WordClassKind::Equal);
  // All pairwise distinct: legitimately different (pids etc.).
  EXPECT_EQ(Collector.classifyWord(1, 0, {1, 2, 3}),
            WordClassKind::LegitimatelyDifferent);
  // Minority disagreement: overflow evidence.
  EXPECT_EQ(Collector.classifyWord(1, 0, {5, 5, 9}),
            WordClassKind::OverflowEvidence);
}

TEST(ErrorIsolation, CoalesceRegionsMergesAdjacent) {
  std::vector<CorruptionRegion> Regions(2);
  Regions[0].ImageIndex = 0;
  Regions[0].BeginAddress = 100;
  Regions[0].EndAddress = 104;
  Regions[0].Bytes = {1, 2, 3, 4};
  Regions[1].ImageIndex = 0;
  Regions[1].BeginAddress = 104;
  Regions[1].EndAddress = 106;
  Regions[1].Bytes = {5, 6};
  coalesceRegions(Regions);
  ASSERT_EQ(Regions.size(), 1u);
  EXPECT_EQ(Regions[0].BeginAddress, 100u);
  EXPECT_EQ(Regions[0].EndAddress, 106u);
  EXPECT_EQ(Regions[0].Bytes, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(ErrorIsolation, CoalesceKeepsDistinctImagesSeparate) {
  std::vector<CorruptionRegion> Regions(2);
  Regions[0].ImageIndex = 0;
  Regions[0].BeginAddress = 100;
  Regions[0].EndAddress = 104;
  Regions[0].Bytes = {1, 2, 3, 4};
  Regions[1].ImageIndex = 1;
  Regions[1].BeginAddress = 102;
  Regions[1].EndAddress = 106;
  Regions[1].Bytes = {5, 6, 7, 8};
  coalesceRegions(Regions);
  EXPECT_EQ(Regions.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Software-vs-hardware origin classification (PR 9)
//===----------------------------------------------------------------------===//

namespace {

FaultPlan hardwareFault(FaultKind Kind, uint64_t Seed) {
  FaultPlan Plan;
  Plan.Kind = Kind;
  // After the churn warmup (180 allocations) there are plenty of freed,
  // canaried victim slots.
  Plan.TriggerAllocation = 150;
  Plan.PatternSeed = Seed;
  return Plan;
}

} // namespace

TEST(OriginClassifier, BitFlipYieldsHardwareReportAndZeroSitePatches) {
  // The load-bearing discrimination: decorrelated single-bit damage must
  // never become a site patch — it becomes a hardware-fault report with
  // the suspected physical pages.
  const auto Images =
      scriptedHardwareEvidenceImages(3, hardwareFault(FaultKind::BitFlip, 7));
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_EQ(Result.Patches.padCount(), 0u);
  EXPECT_EQ(Result.Patches.frontPadCount(), 0u);
  EXPECT_EQ(Result.Patches.deferralCount(), 0u);
  ASSERT_FALSE(Result.HardwareFaults.empty());
  for (const HardwareFinding &Finding : Result.HardwareFaults) {
    EXPECT_NE(Finding.PageAddress, 0u);
    EXPECT_EQ(Finding.PageAddress & 0xfffu, 0u);
    EXPECT_NE(Finding.KindMask, 0u);
    EXPECT_GE(Finding.EvidenceRegions, 1u);
  }
  EXPECT_EQ(Result.Patches.hardwareReportCount(),
            Result.HardwareFaults.size());
}

TEST(OriginClassifier, StuckAtYieldsHardwareReportAndZeroSitePatches) {
  const auto Images =
      scriptedHardwareEvidenceImages(3, hardwareFault(FaultKind::StuckAt, 5));
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_EQ(Result.Patches.padCount(), 0u);
  EXPECT_EQ(Result.Patches.frontPadCount(), 0u);
  EXPECT_EQ(Result.Patches.deferralCount(), 0u);
  EXPECT_FALSE(Result.HardwareFaults.empty());
}

TEST(OriginClassifier, RowClusterYieldsClusteredHardwareReport) {
  const auto Images = scriptedHardwareEvidenceImages(
      3, hardwareFault(FaultKind::RowCluster, 3));
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_EQ(Result.Patches.padCount(), 0u);
  EXPECT_EQ(Result.Patches.frontPadCount(), 0u);
  EXPECT_EQ(Result.Patches.deferralCount(), 0u);
  ASSERT_FALSE(Result.HardwareFaults.empty());
  // Many slots of one simulated row corrupt together: at least one page
  // carries the row-cluster signature and several evidence regions.
  uint32_t CombinedMask = 0;
  uint64_t MaxRegions = 0;
  for (const HardwareFinding &Finding : Result.HardwareFaults) {
    CombinedMask |= Finding.KindMask;
    MaxRegions = std::max(MaxRegions, Finding.EvidenceRegions);
  }
  EXPECT_TRUE(CombinedMask & HardwareFaultRowCluster);
  EXPECT_GE(MaxRegions, 2u);
}

TEST(OriginClassifier, SoftwareOverflowDiagnosisMatchesGoldenDigest) {
  // A pure-software evidence set must flow through the classifier
  // untouched.  The constant was recorded when the classifier could still
  // be switched off, and both settings derived exactly these bytes, so
  // the diagnosis stays the classifier-free (pre-PR-9) one.
  const auto Images = imagesFromTrace(overflowTrace(6), 3);
  const IsolationResult Result = isolateErrors(Images);
  EXPECT_GT(Result.Patches.padCount(), 0u);
  EXPECT_TRUE(Result.HardwareFaults.empty());
  const std::vector<uint8_t> Bytes = serializePatchSet(Result.Patches);
  EXPECT_EQ(fnv1a64(Bytes), 0x2bb6000717743a07ull);
  EXPECT_EQ(Bytes.size(), 36u);
}

TEST(OriginClassifier, MixedRunPatchesSoftwareAndReportsHardware) {
  // An overflow and a DRAM fault in the same heap: the overflow still
  // gets its pad (same site, same size as a clean software-only run) and
  // the flip damage goes to a hardware report, not a second site patch.
  ExterminatorConfig WithFault;
  WithFault.Fault = hardwareFault(FaultKind::BitFlip, 11);
  WithFault.Fault.TriggerAllocation = 190;
  const auto Mixed = imagesFromTrace(overflowTrace(6), 3, 1000, WithFault);
  const IsolationResult Result = isolateErrors(Mixed);

  const auto Clean = imagesFromTrace(overflowTrace(6), 3);
  const IsolationResult Reference = isolateErrors(Clean);

  ASSERT_FALSE(Result.Overflows.empty());
  ASSERT_FALSE(Reference.Overflows.empty());
  EXPECT_EQ(Result.Overflows[0].CulpritAllocSite,
            Reference.Overflows[0].CulpritAllocSite);
  EXPECT_GT(Result.Patches.padFor(tokenSite(SiteA)), 0u);
  EXPECT_FALSE(Result.HardwareFaults.empty());
  EXPECT_EQ(Result.Patches.deferralCount(), 0u);
}
