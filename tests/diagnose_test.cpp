//===- tests/diagnose_test.cpp - DiagnosisPipeline tests ----------------------===//
//
// The pipeline is the single ingestion point for diagnosis evidence:
// image sets (§4 isolation) and run summaries (§5 classification) both
// land in one active patch set.  These tests pin the ingestion flow,
// the fallback-image behavior, and the §6.2 deferral doubling.
//
//===----------------------------------------------------------------------===//

#include "diagnose/DiagnosisPipeline.h"

#include "TestHelpers.h"
#include "workload/ScriptedBugs.h"

#include <gtest/gtest.h>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

// The canonical scripted bugs' frame tokens (workload/ScriptedBugs.h).
constexpr uint32_t SiteA = ScriptedBugSites().Culprit;
constexpr uint32_t SiteB = ScriptedBugSites().Bystander;
constexpr uint32_t SiteF = ScriptedBugSites().Free;

SiteId tokenSite(uint32_t Token) {
  CallContext Context;
  Context.pushFrame(Token);
  return Context.currentSite();
}

std::vector<TraceOp> overflowTrace(uint32_t OverflowBytes) {
  return scriptedOverflowTrace(OverflowBytes);
}

std::vector<TraceOp> danglingTrace() { return scriptedDanglingTrace(); }

} // namespace

//===----------------------------------------------------------------------===//
// Image evidence
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, SubmitImagesMatchesDirectIsolation) {
  const auto Images = imagesFromTrace(overflowTrace(6), 3);
  const IsolationResult Direct = isolateErrors(Images);

  DiagnosisPipeline Pipeline;
  const IsolationResult Piped = Pipeline.submitImages({Images, {}});

  ASSERT_FALSE(Piped.Overflows.empty());
  EXPECT_EQ(Piped.Overflows.front().CulpritAllocSite,
            Direct.Overflows.front().CulpritAllocSite);
  EXPECT_EQ(Piped.Overflows.front().PadBytes,
            Direct.Overflows.front().PadBytes);
  EXPECT_TRUE(Piped.Patches == Direct.Patches);
  EXPECT_TRUE(Pipeline.patches() == Direct.Patches);
}

TEST(DiagnosisPipeline, PatchesAccumulateAcrossSubmissions) {
  DiagnosisPipeline Pipeline;
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  const size_t AfterOverflow = Pipeline.patches().padCount();
  Pipeline.submitImages({imagesFromTrace(danglingTrace(), 3), {}});
  // The second submission adds a deferral without losing the pad.
  EXPECT_EQ(Pipeline.patches().padCount(), AfterOverflow);
  EXPECT_EQ(Pipeline.patches().deferralCount(), 1u);
  EXPECT_GT(Pipeline.patches().padFor(tokenSite(SiteA)), 0u);
  EXPECT_GT(Pipeline.patches().deferralFor(tokenSite(SiteA),
                                           tokenSite(SiteF)),
            0u);
}

TEST(DiagnosisPipeline, SeededPatchesAreKeptAndMerged) {
  DiagnosisPipeline Pipeline;
  PatchSet Seed;
  Seed.addPad(tokenSite(SiteA), 200); // larger than the observed overflow
  Seed.addPad(0x4242, 3);
  Pipeline.seedPatches(Seed);
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  // Max-merge: the seeded 200-byte pad survives the smaller finding,
  // and unrelated seeds are untouched.
  EXPECT_EQ(Pipeline.patches().padFor(tokenSite(SiteA)), 200u);
  EXPECT_EQ(Pipeline.patches().padFor(0x4242), 3u);
}

TEST(DiagnosisPipeline, FallbackImagesUsedWhenPrimaryYieldsNothing) {
  // Primary images with no corruption at all; the dangling evidence only
  // exists in the fallback set.
  std::vector<TraceOp> Clean;
  for (uint32_t I = 0; I < 24; ++I)
    Clean.push_back(TraceOp::alloc(I, 64, SiteB));
  ImageEvidence Evidence;
  Evidence.Primary = imagesFromTrace(Clean, 3);
  Evidence.Fallback = imagesFromTrace(danglingTrace(), 3);

  DiagnosisPipeline Pipeline;
  const IsolationResult Result = Pipeline.submitImages(Evidence);
  ASSERT_FALSE(Result.Danglings.empty());
  EXPECT_EQ(Result.Danglings.front().AllocSite, tokenSite(SiteA));
}

TEST(DiagnosisPipeline, FewerThanTwoImagesYieldNothing) {
  DiagnosisPipeline Pipeline;
  const auto One = imagesFromTrace(overflowTrace(6), 1);
  EXPECT_TRUE(Pipeline.submitImages({One, {}}).Patches.empty());
  EXPECT_TRUE(Pipeline.patches().empty());
}

//===----------------------------------------------------------------------===//
// Summary evidence
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, SummariesAccumulateInCumulativeState) {
  DiagnosisPipeline Pipeline;
  const auto Images = imagesFromTrace(danglingTrace(), 3);
  for (const HeapImage &Image : Images)
    Pipeline.submitSummary(Pipeline.summarize(Image, /*Failed=*/true),
                           /*CleanStreak=*/0);
  EXPECT_EQ(Pipeline.cumulative().runCount(), 3u);
  EXPECT_EQ(Pipeline.cumulative().failedRunCount(), 3u);
}

TEST(DiagnosisPipeline, DeferralDoublingOnContinuedFailure) {
  DiagnosisPipeline Pipeline;
  // Preload an applied deferral, as if an earlier episode patched it.
  PatchSet Applied;
  const SiteId Alloc = tokenSite(SiteA), Free = tokenSite(SiteF);
  Applied.addDeferral(Alloc, Free, 100);
  Pipeline.seedPatches(Applied);

  // A finding for the same pair with a *smaller* deferral while failures
  // continue (CleanStreak == 0) must double the applied value, not
  // regress it (§6.2).
  RunSummary Failing;
  Failing.Failed = true;
  Failing.EndTime = 50;
  DanglingTrial Trial;
  Trial.AllocSite = Alloc;
  Trial.FreeSite = Free;
  Trial.Probability = 0.5; // chance-level X with Y always observed
  Trial.Observed = true;
  Trial.FreeToFailure = 10;
  Failing.DanglingTrials.push_back(Trial);

  // Drive the classifier over the threshold with correlated evidence:
  // failures always observe the canaried pair.
  for (int I = 0; I < 30; ++I)
    Pipeline.submitSummary(Failing, /*CleanStreak=*/0);

  ASSERT_GT(Pipeline.patches().deferralFor(Alloc, Free), 100u);
  EXPECT_GE(Pipeline.patches().deferralFor(Alloc, Free), 201u);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, ReportRendersActivePatches) {
  DiagnosisPipeline Pipeline;
  EXPECT_NE(Pipeline.report().find("No errors recorded"), std::string::npos);
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  const std::string Report = Pipeline.report();
  EXPECT_NE(Report.find("heap-buffer-overflow"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hardware-fault evidence (PR 9)
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, HardwareEvidenceReportsPagesNotPatches) {
  FaultPlan Fault;
  Fault.Kind = FaultKind::RowCluster;
  Fault.TriggerAllocation = 150;
  Fault.PatternSeed = 11;

  DiagnosisPipeline Pipeline;
  const std::vector<HeapImage> Images = scriptedHardwareEvidenceImages(3, Fault);
  const IsolationResult Result = Pipeline.submitImages({Images, {}});

  // Decorrelated physical damage must never be mistaken for a site bug.
  EXPECT_EQ(Result.Patches.padCount(), 0u);
  EXPECT_EQ(Result.Patches.frontPadCount(), 0u);
  EXPECT_EQ(Result.Patches.deferralCount(), 0u);
  ASSERT_FALSE(Result.HardwareFaults.empty());

  // The hardware table is part of the active set and versions it.
  EXPECT_GT(Pipeline.patches().hardwareReportCount(), 0u);
  EXPECT_EQ(Pipeline.patches().padCount(), 0u);
  EXPECT_GE(Pipeline.epoch(), 1u);

  // Re-submitting the same evidence max-merges to a no-op.
  const uint64_t Epoch = Pipeline.epoch();
  Pipeline.submitImages({Images, {}});
  EXPECT_EQ(Pipeline.epoch(), Epoch);

  // The observability plane sees the faults...
  std::vector<MetricSample> Samples;
  Pipeline.collectMetrics(Samples);
  MetricsSnapshot Snap;
  Snap.Samples = Samples;
  const MetricSample *Faults = Snap.find("xterm_hardware_faults_total", "");
  ASSERT_NE(Faults, nullptr);
  EXPECT_GT(Faults->Value, 0.0);
  const MetricSample *Pages =
      Snap.find("xterm_active_patches",
                MetricsRegistry::label("kind", "hardware_page"));
  ASSERT_NE(Pages, nullptr);
  EXPECT_GT(Pages->Value, 0.0);

  // ...and the human-readable report names the failure class.
  EXPECT_NE(Pipeline.report().find("hardware memory fault"),
            std::string::npos);
}
