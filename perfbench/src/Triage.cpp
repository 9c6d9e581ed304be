//===- perfbench/src/Triage.cpp - Iterative triage from public calls --------===//

#include "Triage.h"

#include "Trace.h"

#include "diagnose/DiagnosisPipeline.h"
#include "support/RandomGenerator.h"

#include <optional>
#include <string_view>

using namespace exterminator;
using namespace perfbench;

namespace {

struct ReplaySample {
  uint64_t HeapSeed = 0;
  bool Failed = false;
  uint64_t EndTime = 0;
  HeapImage AtBreakpoint;
  HeapImage AtEnd; // valid only when Failed
};

/// One traced runWorkloadOnce call.
SingleRunResult runOnce(Workload &Work, uint64_t InputSeed, uint64_t HeapSeed,
                        const ExterminatorConfig &Config,
                        const PatchSet &Patches, TriageOutcome &Out,
                        std::optional<uint64_t> BreakpointAt = std::nullopt) {
  ScopedSpan Span("runtime.run");
  SingleRunResult Run =
      runWorkloadOnce(Work, InputSeed, HeapSeed, Config, Patches, BreakpointAt);
  ++Out.Runs;
  addAllocStats(Out.Alloc, Run.Alloc);
  return Run;
}

/// IterativeDriver.cpp's replayAt.
bool replayAt(Workload &Work, uint64_t InputSeed, uint64_t HeapSeed,
              const ExterminatorConfig &Config, const PatchSet &Patches,
              uint64_t T, ReplaySample &Sample, TriageOutcome &Out) {
  SingleRunResult Run =
      runOnce(Work, InputSeed, HeapSeed, Config, Patches, Out, T);
  Sample.HeapSeed = HeapSeed;
  Sample.Failed = Run.failed();
  Sample.EndTime = Run.EndTime;
  if (Run.failed())
    Sample.AtEnd = Run.FinalImage;
  if (Run.BreakpointImage) {
    Sample.AtBreakpoint = std::move(*Run.BreakpointImage);
    return true;
  }
  if (Run.EndTime >= T) {
    Sample.AtBreakpoint = std::move(Run.FinalImage);
    return true;
  }
  return false;
}

uint64_t counterValue(const std::vector<MetricSample> &Samples,
                      std::string_view Name) {
  for (const MetricSample &Sample : Samples)
    if (Sample.Name == Name)
      return static_cast<uint64_t>(Sample.Value);
  return 0;
}

} // namespace

void perfbench::addAllocStats(AllocatorStats &Sum, const AllocatorStats &Run) {
  Sum.Allocations += Run.Allocations;
  Sum.Deallocations += Run.Deallocations;
  Sum.InvalidFrees += Run.InvalidFrees;
  Sum.DoubleFrees += Run.DoubleFrees;
  Sum.BytesRequested += Run.BytesRequested;
}

TriageOutcome perfbench::triage(Workload &Work, uint64_t InputSeed,
                                const ExterminatorConfig &Config) {
  TriageOutcome Out;
  const uint64_t Start = nowNs();
  DiagnosisPipeline Pipeline({Config.Isolation, Config.Cumulative});
  RandomGenerator SeedStream(Config.MasterSeed);
  bool Isolated = true;

  for (unsigned Episode = 0; Episode < Config.MaxEpisodes && Isolated;
       ++Episode) {
    // Discovery (and, after an episode, the patched verification run).
    SingleRunResult Discovery;
    uint64_t DiscoverySeed = 0;
    bool ErrorManifested = false;
    for (unsigned Attempt = 0; Attempt < Config.DiscoveryAttempts;
         ++Attempt) {
      DiscoverySeed = SeedStream.next();
      Discovery = runOnce(Work, InputSeed, DiscoverySeed, Config,
                          Pipeline.patches(), Out);
      if (Discovery.ErrorSignalled || Discovery.failed()) {
        ErrorManifested = true;
        break;
      }
    }
    if (!ErrorManifested) {
      Out.Corrected = Episode > 0;
      Out.ErrorFree = Episode == 0;
      break;
    }

    uint64_t T = Discovery.ErrorSignalled ? Discovery.FirstSignalTime
                                          : Discovery.EndTime;
    if (Discovery.failed() && Discovery.EndTime < T)
      T = Discovery.EndTime;

    std::vector<uint64_t> Seeds = {DiscoverySeed};
    std::vector<ReplaySample> Samples;
    unsigned RunBudget = Config.MaxImages * 3;
    Isolated = false;

    while (!Isolated && RunBudget > 0) {
      bool Lowered = false;
      while (Samples.size() < Seeds.size() && RunBudget > 0) {
        --RunBudget;
        ReplaySample Sample;
        if (replayAt(Work, InputSeed, Seeds[Samples.size()], Config,
                     Pipeline.patches(), T, Sample, Out)) {
          Samples.push_back(std::move(Sample));
          continue;
        }
        T = Sample.EndTime;
        Samples.clear();
        Lowered = true;
        break;
      }
      if (Lowered)
        continue;
      if (Samples.size() < Config.MinImages) {
        if (Seeds.size() >= Config.MaxImages)
          break;
        Seeds.push_back(SeedStream.next());
        continue;
      }

      ImageEvidence Evidence;
      for (const ReplaySample &Sample : Samples) {
        Evidence.Primary.push_back(Sample.AtBreakpoint);
        Out.ImageSlots += Sample.AtBreakpoint.totalSlots();
        if (Sample.Failed)
          Evidence.Fallback.push_back(Sample.AtEnd);
      }
      Out.ImagesSubmitted += Evidence.Primary.size();

      IsolationResult Result;
      {
        ScopedSpan Span("isolate.isolateImages");
        const uint64_t IsolateStart = nowNs();
        Result = Pipeline.isolateImages(Evidence);
        const uint64_t IsolateNs = nowNs() - IsolateStart;
        if (IsolateNs > Out.MaxIsolateNs)
          Out.MaxIsolateNs = IsolateNs;
      }
      {
        ScopedSpan Span("diagnose.absorbIsolation");
        Pipeline.absorbIsolation(Result);
      }
      ++Out.EvidenceSets;
      if (!Result.Patches.empty()) {
        ++Out.UsefulSets;
        if (Out.ImagesToIsolate == 0)
          Out.ImagesToIsolate = static_cast<unsigned>(Samples.size());
        Isolated = true;
        break;
      }
      if (Seeds.size() >= Config.MaxImages)
        break;
      Seeds.push_back(SeedStream.next());
    }
    Out.ImagesPerEpisode.push_back(static_cast<unsigned>(Samples.size()));
  }

  Out.FixNs = nowNs() - Start;
  std::vector<MetricSample> Samples;
  Pipeline.collectMetrics(Samples, /*MaxSites=*/0);
  Out.CacheHits = counterValue(Samples, "xterm_image_cache_hits_total");
  Out.CacheMisses = counterValue(Samples, "xterm_image_cache_misses_total");
  return Out;
}
