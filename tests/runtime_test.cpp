//===- tests/runtime_test.cpp - Single-run harness tests ------------------------===//
//
// Tests of the runtime plumbing in runtime/Exterminator.cpp: the first
// signal's allocation time, heap-image capture points (malloc
// breakpoint, end of run), fault-injector stacking, statistics
// reporting, and the evidence path staying on the calling thread — the
// contract the three modes of operation are built on.
//
//===----------------------------------------------------------------------===//

#include "runtime/Exterminator.h"

#include "TestHelpers.h"
#include "diagnose/DiagnosisPipeline.h"
#include "workload/EspressoWorkload.h"
#include "workload/ScriptedBugs.h"
#include "workload/TraceWorkload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {
constexpr uint32_t SiteA = 0x91, SiteF = 0x92;

std::vector<TraceOp> simpleTrace(unsigned Allocations) {
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < Allocations; ++I)
    Ops.push_back(TraceOp::alloc(I, 32, SiteA));
  for (uint32_t I = 0; I < Allocations; I += 2)
    Ops.push_back(TraceOp::free(I, SiteF));
  return Ops;
}

/// The process's thread count, from the Threads: line of
/// /proc/self/status (0 when it cannot be read).
unsigned processThreads() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return static_cast<unsigned>(std::stoul(Line.substr(8)));
  return 0;
}
} // namespace

TEST(RunHarness, CleanRunReportsSuccess) {
  const auto Run = runTrace(simpleTrace(20), 1);
  EXPECT_EQ(Run.Result.Status, RunStatusKind::Success);
  EXPECT_FALSE(Run.ErrorSignalled);
  EXPECT_FALSE(Run.BreakpointImage.has_value());
  EXPECT_EQ(Run.EndTime, 20u);
  EXPECT_EQ(Run.FinalImage.AllocationTime, 20u);
  EXPECT_EQ(Run.Alloc.Allocations, 20u);
  EXPECT_EQ(Run.Alloc.Deallocations, 10u);
}

TEST(RunHarness, BreakpointImageCapturedAtRequestedClock) {
  TraceWorkload Work(simpleTrace(20));
  ExterminatorConfig Config;
  const SingleRunResult Run = runWorkloadOnce(Work, 1, 5, Config,
                                              PatchSet(), /*BreakpointAt=*/10);
  ASSERT_TRUE(Run.BreakpointImage.has_value());
  // Captured at the entry of the first allocation once the clock hit 10.
  EXPECT_EQ(Run.BreakpointImage->AllocationTime, 10u);
  // The run still completed normally afterwards.
  EXPECT_EQ(Run.EndTime, 20u);
}

TEST(RunHarness, BreakpointBeyondEndYieldsNoImage) {
  TraceWorkload Work(simpleTrace(20));
  ExterminatorConfig Config;
  const SingleRunResult Run = runWorkloadOnce(Work, 1, 5, Config,
                                              PatchSet(),
                                              /*BreakpointAt=*/1000);
  EXPECT_FALSE(Run.BreakpointImage.has_value());
  EXPECT_EQ(Run.EndTime, 20u);
}

TEST(RunHarness, SignalsSuppressedDuringReplay) {
  // A run with real corruption: signals must be ignored when a
  // breakpoint is set (§3.4 replay protocol), recorded when it is not.
  std::vector<TraceOp> Ops = simpleTrace(40);
  Ops.push_back(TraceOp::alloc(100, 64, SiteA));
  Ops.push_back(TraceOp::free(100, SiteF));
  Ops.push_back(TraceOp::write(100, 4, 8, 0x21)); // dangling write
  for (uint32_t I = 200; I < 240; ++I) {
    Ops.push_back(TraceOp::alloc(I, 64, SiteA));
    Ops.push_back(TraceOp::free(I, SiteF));
  }
  TraceWorkload Work(Ops);
  ExterminatorConfig Config;

  const SingleRunResult Discovery =
      runWorkloadOnce(Work, 1, 7, Config, PatchSet());
  ASSERT_TRUE(Discovery.ErrorSignalled);

  const SingleRunResult Replay = runWorkloadOnce(
      Work, 1, 7, Config, PatchSet(), Discovery.FirstSignalTime);
  EXPECT_FALSE(Replay.ErrorSignalled);
  ASSERT_TRUE(Replay.BreakpointImage.has_value());
  EXPECT_EQ(Replay.BreakpointImage->AllocationTime,
            Discovery.FirstSignalTime);
}

TEST(RunHarness, EvidencePathStartsNoThreads) {
  // Heap-image capture and §4 isolation run on the calling thread.  A
  // fresh child process (threadsafe death-test style re-executes the
  // binary) starts from the main thread alone, so any worker the
  // evidence path spawns shows in its thread count.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const unsigned Before = processThreads();
        const DiagnosisPipeline Pipeline;
        const IsolationResult Result =
            Pipeline.isolateImages({scriptedEvidenceImages(3, 9), {}});
        // Exit 2: threads started; exit 3: the evidence derived nothing.
        if (Before == 0 || processThreads() != Before)
          std::exit(2);
        std::exit(Result.Patches.empty() ? 3 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(RunHarness, SameSeedReplaysIdentically) {
  // The foundation of the lockstep-dump simulation: identical (input,
  // heap seed) pairs produce identical heaps.
  TraceWorkload Work(simpleTrace(30));
  ExterminatorConfig Config;
  const SingleRunResult A = runWorkloadOnce(Work, 1, 99, Config, PatchSet());
  const SingleRunResult B = runWorkloadOnce(Work, 1, 99, Config, PatchSet());
  ASSERT_EQ(A.FinalImage.miniheapCount(), B.FinalImage.miniheapCount());
  EXPECT_EQ(A.FinalImage.CanaryValue, B.FinalImage.CanaryValue);
  for (uint32_t M = 0; M < A.FinalImage.miniheapCount(); ++M) {
    ASSERT_EQ(A.FinalImage.miniheapInfo(M).NumSlots,
              B.FinalImage.miniheapInfo(M).NumSlots);
    for (uint32_t S = 0; S < A.FinalImage.miniheapInfo(M).NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      ASSERT_EQ(A.FinalImage.objectId(Loc), B.FinalImage.objectId(Loc));
      ASSERT_EQ(A.FinalImage.contents(Loc).decode(),
                B.FinalImage.contents(Loc).decode());
    }
  }
}

TEST(RunHarness, InjectedFaultReportsFired) {
  EspressoWorkload Work;
  ExterminatorConfig Config;
  Config.Fault.Kind = FaultKind::BufferOverflow;
  Config.Fault.TriggerAllocation = 100;
  Config.Fault.OverflowBytes = 8;
  const SingleRunResult Run = runWorkloadOnce(Work, 5, 3, Config, PatchSet());
  EXPECT_TRUE(Run.FaultFired);
}

TEST(RunHarness, NoFaultPlanNeverFires) {
  EspressoWorkload Work;
  ExterminatorConfig Config;
  const SingleRunResult Run = runWorkloadOnce(Work, 5, 3, Config, PatchSet());
  EXPECT_FALSE(Run.FaultFired);
}

TEST(RunHarness, PatchesSuppressInjectedOverflowDetection) {
  // With a pad covering the buggy site, the injected overrun stays
  // inside the enlarged allocation: no corruption, no signals.
  std::vector<TraceOp> Ops = simpleTrace(40);
  // Warm the 64-byte class so freed space carries canaries (virgin slots
  // are unobservable by design).
  for (uint32_t Round = 0; Round < 6; ++Round) {
    for (uint32_t I = 0; I < 30; ++I)
      Ops.push_back(TraceOp::alloc(1000 + Round * 30 + I, 64, SiteA));
    for (uint32_t I = 0; I < 30; ++I)
      Ops.push_back(TraceOp::free(1000 + Round * 30 + I, SiteF));
  }
  Ops.push_back(TraceOp::alloc(100, 64, SiteA));
  Ops.push_back(TraceOp::write(100, 64, 12, 0x33)); // overflow from SiteA
  for (uint32_t I = 200; I < 240; ++I) {
    Ops.push_back(TraceOp::alloc(I, 64, SiteA));
    Ops.push_back(TraceOp::free(I, SiteF));
  }
  TraceWorkload Work(Ops);
  ExterminatorConfig Config;

  unsigned UnpatchedSignals = 0, PatchedSignals = 0;
  CallContext Probe;
  Probe.pushFrame(SiteA);
  PatchSet Patches;
  Patches.addPad(Probe.currentSite(), 12);

  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    UnpatchedSignals +=
        runWorkloadOnce(Work, 1, Seed, Config, PatchSet()).ErrorSignalled;
    PatchedSignals +=
        runWorkloadOnce(Work, 1, Seed, Config, Patches).ErrorSignalled;
  }
  EXPECT_GT(UnpatchedSignals, 0u);
  EXPECT_EQ(PatchedSignals, 0u);
}

TEST(RunHarness, CorrectionStatsFlowThrough) {
  std::vector<TraceOp> Ops;
  Ops.push_back(TraceOp::alloc(0, 64, SiteA));
  Ops.push_back(TraceOp::free(0, SiteF));
  TraceWorkload Work(Ops);
  ExterminatorConfig Config;

  CallContext ProbeA, ProbeF;
  ProbeA.pushFrame(SiteA);
  ProbeF.pushFrame(SiteF);
  PatchSet Patches;
  Patches.addPad(ProbeA.currentSite(), 16);
  Patches.addDeferral(ProbeA.currentSite(), ProbeF.currentSite(), 50);

  const SingleRunResult Run = runWorkloadOnce(Work, 1, 2, Config, Patches);
  EXPECT_EQ(Run.Correction.PaddedAllocations, 1u);
  EXPECT_EQ(Run.Correction.PadBytesAdded, 16u);
  EXPECT_EQ(Run.Correction.DeferredFrees, 1u);
}
