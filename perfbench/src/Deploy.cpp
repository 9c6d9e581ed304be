//===- perfbench/src/Deploy.cpp - Patched deploy use ------------------------===//
//
// Figure 7 programs under the full correcting stack (CorrectingHeap →
// DieFast → DieHard) carrying a non-empty patch set, each run paired
// with a glibc run of the same input.
//
//===----------------------------------------------------------------------===//

#include "Uses.h"

#include "correct/CorrectingHeap.h"

#include <cmath>
#include <optional>

using namespace exterminator;
using namespace perfbench;

double DeployResult::overheadX() const {
  double LogSum = 0.0;
  unsigned Programs = 0;
  for (const std::vector<double> &Program : Ratios) {
    if (Program.empty())
      continue;
    LogSum += std::log(median(Program));
    ++Programs;
  }
  return Programs ? std::exp(LogSum / Programs) : 0.0;
}

namespace {

/// One Exterminator run: heap set-up (construction and patch load), the
/// program, and teardown.
uint64_t runCorrecting(const Workload &Work, const DeployPair &Pair,
                       const PatchSet &Patches, WorkloadResult &ResultOut,
                       DeployResult &Out) {
  const uint64_t Start = nowNs();
  CallContext Context;
  std::optional<CorrectingHeap> Heap;
  {
    ScopedSpan Span("correct.heap_init");
    DieFastConfig Config;
    Config.Heap.Seed = Pair.HeapSeed;
    Heap.emplace(Config, &Context);
    Heap->setPatches(Patches);
  }
  {
    AllocatorHandle Handle(*Heap, Context, &Heap->diefast().heap());
    TimedWorkload Timed(Work);
    ResultOut = Timed.run(Handle, Pair.InputSeed);
  }
  addAllocStats(Out.Alloc, Heap->stats());
  const CorrectionStats &Correction = Heap->correctionStats();
  Out.PatchHits += Correction.PaddedAllocations + Correction.DeferredFrees;
  {
    ScopedSpan Span("correct.heap_teardown");
    Heap.reset();
  }
  return nowNs() - Start;
}

} // namespace

void perfbench::runDeploy(const DeployPlan &Plan,
                          std::span<const DeployPair> Pairs,
                          DeployResult &Out) {
  std::vector<SyntheticWorkload> Programs;
  for (const SyntheticProfile &Profile : Plan.Programs)
    Programs.emplace_back(Profile);

  Out.Ratios.resize(Programs.size());
  for (size_t I = 0; I < Pairs.size(); ++I) {
    const DeployPair &Pair = Pairs[I];
    ScopedSpan Op("deploy.pair", operationId(1, Out.Attempted));
    releaseFreedMemory();
    const PeakRssWindow Memory;
    const Workload &Work = Programs[Pair.Program];
    WorkloadResult Baseline, Correcting;
    uint64_t BaselineNs = 0, CorrectingNs = 0;
    if (Pair.BaselineFirst)
      BaselineNs = runBaseline(Work, Pair.InputSeed, Baseline);
    CorrectingNs =
        runCorrecting(Work, Pair, Plan.Patches, Correcting, Out);
    if (!Pair.BaselineFirst)
      BaselineNs = runBaseline(Work, Pair.InputSeed, Baseline);

    Out.PeakRssMb.push_back(Memory.peakMb());
    ++Out.Attempted;
    if (Correcting.Status != RunStatusKind::Success ||
        Baseline.Status != RunStatusKind::Success ||
        Correcting.Output != Baseline.Output) {
      ++Out.Failed;
      continue;
    }
    Out.Ratios[Pair.Program].push_back(double(CorrectingNs) /
                                       double(BaselineNs));
  }
}
