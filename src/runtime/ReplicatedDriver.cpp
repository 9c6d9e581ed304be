//===- runtime/ReplicatedDriver.cpp - Replicated mode ------------------------===//

#include "runtime/ReplicatedDriver.h"

#include "support/Executor.h"
#include "support/RandomGenerator.h"

#include <algorithm>

using namespace exterminator;

namespace {

/// One replica's lockstep-dump replay result.
struct ReplicaCapture {
  /// Image at the dump time (or at the end of a run that reached it).
  HeapImage Image;
  /// End-of-run image when the replay failed.
  HeapImage EndImage;
  bool Failed = false;
  /// The replay ended strictly before the dump time; its end time is the
  /// new candidate dump time.
  bool Lowered = false;
  uint64_t EndTime = 0;
};

} // namespace

ReplicatedOutcome ReplicatedDriver::run(uint64_t InputSeed,
                                        const PatchSet &InitialPatches) {
  ReplicatedOutcome Outcome;
  DiagnosisPipeline Pipeline({Config.Isolation, Config.Cumulative});
  Pipeline.seedPatches(InitialPatches);
  Outcome.Patches = Pipeline.patches();
  RandomGenerator SeedStream(Config.MasterSeed ^ 0x5eed5eedULL);

  // The replica map: one thread per replica, or a plain loop under
  // --sequential.  Either way results commit to per-replica slots, so
  // the two paths produce bit-identical outcomes for the same seeds.
  auto forEachReplica = [&](const std::function<void(size_t)> &Body) {
    if (Sequential)
      for (size_t R = 0; R < NumReplicas; ++R)
        Body(R);
    else
      parallelFor(NumReplicas, Body);
  };

  unsigned CleanStreak = 0;
  const unsigned MaxRounds = Config.MaxEpisodes + Config.DiscoveryAttempts;
  for (unsigned RoundIndex = 0; RoundIndex < MaxRounds; ++RoundIndex) {
    ReplicatedRound Round;

    // Broadcast the input to every replica (each gets an independently
    // randomized heap) and collect results.  Seeds are drawn up front so
    // the seed stream is independent of execution interleaving.
    std::vector<uint64_t> HeapSeeds(NumReplicas);
    for (auto &Seed : HeapSeeds)
      Seed = SeedStream.next();

    const PatchSet RoundPatches = Pipeline.patches();
    std::vector<SingleRunResult> Runs(NumReplicas);
    forEachReplica([&](size_t R) {
      Runs[R] = runWorkloadOnce(Work, InputSeed, HeapSeeds[R], Config,
                                RoundPatches);
    });
    std::vector<WorkloadResult> Results;
    Results.reserve(NumReplicas);
    for (const SingleRunResult &Run : Runs)
      Results.push_back(Run.Result);
    Round.Vote = voteOnOutputs(Results);

    bool AnySignal = false;
    uint64_t DumpTime = ~uint64_t(0);
    for (const SingleRunResult &Run : Runs) {
      if (Run.ErrorSignalled) {
        AnySignal = true;
        DumpTime = std::min(DumpTime, Run.FirstSignalTime);
      }
      if (Run.failed())
        DumpTime = std::min(DumpTime, Run.EndTime);
    }
    Round.ErrorDetected =
        AnySignal || !Round.Vote.Dissenters.empty() || !Round.Vote.HasWinner;

    if (!Round.ErrorDetected) {
      // With patches in hand, one agreeing round means corrected; before
      // any error has been seen, a clean round is only weak evidence —
      // the detector is probabilistic — so re-run with fresh seeds.
      ++CleanStreak;
      Outcome.Output = Round.Vote.Output;
      Outcome.Rounds.push_back(std::move(Round));
      if (!Pipeline.patches().empty()) {
        Outcome.Corrected = true;
        Outcome.Patches = Pipeline.patches();
        return Outcome;
      }
      if (CleanStreak >= Config.DiscoveryAttempts) {
        Outcome.ErrorFree = true;
        Outcome.Patches = Pipeline.patches();
        return Outcome;
      }
      continue;
    }
    CleanStreak = 0;

    // Lockstep dump: replay every replica to the earliest failure time
    // and capture its image there.  The replays run concurrently; the
    // join barrier is the dump barrier — no image is consumed until all
    // replicas have produced theirs.  A replay failing before the dump
    // time lowers it — images are only comparable at a common allocation
    // time — and forces a recapture of every replica.
    if (DumpTime == ~uint64_t(0)) {
      // Pure divergence without failure: dump at the shortest run's end.
      for (const SingleRunResult &Run : Runs)
        DumpTime = std::min(DumpTime, Run.EndTime);
    }

    ImageEvidence Evidence;
    for (unsigned Attempt = 0; Attempt < 4 && Evidence.Primary.empty();
         ++Attempt) {
      std::vector<ReplicaCapture> Captures(NumReplicas);
      forEachReplica([&](size_t R) {
        ReplicaCapture &Capture = Captures[R];
        SingleRunResult Replay = runWorkloadOnce(
            Work, InputSeed, HeapSeeds[R], Config, RoundPatches, DumpTime);
        Capture.Failed = Replay.failed();
        Capture.EndTime = Replay.EndTime;
        if (Replay.failed())
          Capture.EndImage = Replay.FinalImage;
        if (Replay.BreakpointImage)
          Capture.Image = std::move(*Replay.BreakpointImage);
        else if (Replay.EndTime >= DumpTime)
          Capture.Image = std::move(Replay.FinalImage);
        else
          Capture.Lowered = true;
      });

      uint64_t LoweredTo = ~uint64_t(0);
      for (const ReplicaCapture &Capture : Captures)
        if (Capture.Lowered)
          LoweredTo = std::min(LoweredTo, Capture.EndTime);
      if (LoweredTo != ~uint64_t(0)) {
        DumpTime = LoweredTo;
        continue;
      }
      for (ReplicaCapture &Capture : Captures) {
        Evidence.Primary.push_back(std::move(Capture.Image));
        if (Capture.Failed)
          Evidence.Fallback.push_back(std::move(Capture.EndImage));
      }
    }
    Round.DumpTime = DumpTime;

    // Submit the lockstep images; the pipeline owns isolation, the
    // fallback to end-of-run images, and the patch merge (§6.3's reload
    // source for the next round's replicas).
    Round.Result = Pipeline.submitImages(Evidence);

    const bool Isolated = !Round.Result.Patches.empty();
    Outcome.Rounds.push_back(std::move(Round));
    Outcome.Patches = Pipeline.patches();
    if (!Isolated)
      return Outcome; // Cannot make progress on this error.
    // Patches reloaded (§6.3); the next round runs corrected replicas.
  }
  Outcome.Patches = Pipeline.patches();
  return Outcome;
}
