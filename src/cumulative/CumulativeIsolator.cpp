//===- cumulative/CumulativeIsolator.cpp - Cumulative isolation ------------===//

#include "cumulative/CumulativeIsolator.h"

#include "support/Serializer.h"

#include <algorithm>
#include <utility>

using namespace exterminator;

CumulativeIsolator::CumulativeIsolator(const CumulativeConfig &Config)
    : Config(Config) {}

/// Most distinct sites/pairs the accumulated state will track.  Real
/// programs have at most tens of thousands of allocation sites; the cap
/// exists for the patch-server deployment, where each tracked entry
/// costs trial state (including the ~4 KB incremental Bayes
/// accumulator) and a stream of forged summaries could otherwise grow
/// the server without bound.  Trials for sites past the cap are
/// dropped; already-tracked sites keep accumulating.
static constexpr size_t MaxTrackedSites = size_t(1) << 16;

/// Most trials retained per site/pair.  At thousands of coin flips the
/// Bayes factor has decided the site either way — further trials only
/// grow the stored vector (classification reads the O(1) accumulator),
/// so the long-lived server drops them instead of growing per-site
/// state forever.  The accumulator stops folding at the same count, so
/// it always summarizes exactly the stored trials.
static constexpr size_t MaxTrialsPerSite = size_t(1) << 12;

void CumulativeIsolator::addRun(const RunSummary &Summary) {
  ++Runs;
  if (Summary.Failed)
    ++FailedRuns;
  if (Summary.CorruptionObserved)
    ++CorruptRuns;

  for (const OverflowTrial &Trial : Summary.OverflowTrials) {
    if (OverflowSites.size() >= MaxTrackedSites &&
        !OverflowSites.count(Trial.AllocSite))
      continue;
    OverflowSiteState &State = OverflowSites[Trial.AllocSite];
    if (State.Trials.size() < MaxTrialsPerSite) {
      State.Trials.push_back(BayesTrial{Trial.Probability, Trial.Observed});
      State.Accum.addTrial(State.Trials.back());
    }
    // Pad estimates stay live past the trial cap: the patch value must
    // track the largest overflow ever observed.
    if (Trial.Observed) {
      ++State.Observed;
      State.MaxPad = std::max(State.MaxPad, Trial.PadEstimate);
    }
  }
  for (const DanglingTrial &Trial : Summary.DanglingTrials) {
    const uint64_t Key = pairKey(Trial.AllocSite, Trial.FreeSite);
    if (DanglingPairs.size() >= MaxTrackedSites && !DanglingPairs.count(Key))
      continue;
    DanglingPairState &State = DanglingPairs[Key];
    if (State.Trials.size() < MaxTrialsPerSite) {
      State.Trials.push_back(BayesTrial{Trial.Probability, Trial.Observed});
      State.Accum.addTrial(State.Trials.back());
    }
    if (Trial.Observed) {
      ++State.Observed;
      State.MaxFreeToFailure =
          std::max(State.MaxFreeToFailure, Trial.FreeToFailure);
    }
  }
}

std::vector<CumulativeOverflowFinding>
CumulativeIsolator::classifyOverflows() const {
  std::vector<CumulativeOverflowFinding> Findings;
  if (OverflowSites.empty())
    return Findings;
  const BayesClassifier Classifier(Config.PriorC);
  const double Threshold = Classifier.logThreshold(OverflowSites.size());

  for (const auto &[Site, State] : OverflowSites) {
    // One compare per tracked site: the accumulator scored itself when
    // it last took a trial (O(nodes) per touched site, bit-identical to
    // recomputing over State.Trials); only the threshold moves as new
    // sites arrive.
    const double LogBF = State.Accum.logBayesFactor();
    if (LogBF <= Threshold)
      continue;
    CumulativeOverflowFinding Finding;
    Finding.AllocSite = Site;
    Finding.LogBayesFactor = LogBF;
    Finding.LogThreshold = Threshold;
    Finding.PadBytes = State.MaxPad;
    Finding.TrialCount = static_cast<uint32_t>(State.Trials.size());
    Finding.ObservedCount = State.Observed;
    Findings.push_back(Finding);
  }
  std::sort(Findings.begin(), Findings.end(),
            [](const CumulativeOverflowFinding &A,
               const CumulativeOverflowFinding &B) {
              return A.LogBayesFactor > B.LogBayesFactor;
            });
  return Findings;
}

std::vector<CumulativeDanglingFinding>
CumulativeIsolator::classifyDanglings() const {
  std::vector<CumulativeDanglingFinding> Findings;
  if (DanglingPairs.empty())
    return Findings;
  const BayesClassifier Classifier(Config.PriorC);
  const double Threshold = Classifier.logThreshold(DanglingPairs.size());

  for (const auto &[Key, State] : DanglingPairs) {
    const double LogBF = State.Accum.logBayesFactor();
    if (LogBF <= Threshold)
      continue;
    CumulativeDanglingFinding Finding;
    Finding.AllocSite = static_cast<SiteId>(Key >> 32);
    Finding.FreeSite = static_cast<SiteId>(Key & 0xffffffffu);
    Finding.LogBayesFactor = LogBF;
    Finding.LogThreshold = Threshold;
    Finding.DeferralTicks = 2 * State.MaxFreeToFailure;
    Finding.TrialCount = static_cast<uint32_t>(State.Trials.size());
    Finding.ObservedCount = State.Observed;
    Findings.push_back(Finding);
  }
  std::sort(Findings.begin(), Findings.end(),
            [](const CumulativeDanglingFinding &A,
               const CumulativeDanglingFinding &B) {
              return A.LogBayesFactor > B.LogBayesFactor;
            });
  return Findings;
}

std::vector<SitePosterior>
CumulativeIsolator::sitePosteriors(size_t MaxSites) const {
  std::vector<SitePosterior> Out;
  const BayesClassifier Classifier(Config.PriorC);
  if (!OverflowSites.empty()) {
    const double Threshold = Classifier.logThreshold(OverflowSites.size());
    for (const auto &[Site, State] : OverflowSites) {
      SitePosterior P;
      P.AllocSite = Site;
      P.LogBayesFactor = State.Accum.logBayesFactor();
      P.LogThreshold = Threshold;
      P.TrialCount = static_cast<uint32_t>(State.Trials.size());
      P.ObservedCount = State.Observed;
      Out.push_back(P);
    }
  }
  if (!DanglingPairs.empty()) {
    const double Threshold = Classifier.logThreshold(DanglingPairs.size());
    for (const auto &[Key, State] : DanglingPairs) {
      SitePosterior P;
      P.Dangling = true;
      P.AllocSite = static_cast<SiteId>(Key >> 32);
      P.FreeSite = static_cast<SiteId>(Key & 0xffffffffu);
      P.LogBayesFactor = State.Accum.logBayesFactor();
      P.LogThreshold = Threshold;
      P.TrialCount = static_cast<uint32_t>(State.Trials.size());
      P.ObservedCount = State.Observed;
      Out.push_back(P);
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const SitePosterior &A, const SitePosterior &B) {
              return A.margin() > B.margin();
            });
  if (MaxSites && Out.size() > MaxSites)
    Out.resize(MaxSites);
  return Out;
}

PatchSet CumulativeIsolator::patches() const {
  PatchSet Patches;
  for (const CumulativeOverflowFinding &Finding : classifyOverflows())
    Patches.addPad(Finding.AllocSite, Finding.PadBytes);
  for (const CumulativeDanglingFinding &Finding : classifyDanglings())
    Patches.addDeferral(Finding.AllocSite, Finding.FreeSite,
                        Finding.DeferralTicks);
  return Patches;
}

/// State format magic ("XCS2"): trials plus each site's running
/// log-likelihood sums, so a restored server gets its classifier state
/// back in O(nodes) per site without replay — the f64 bits round-trip
/// exactly, so the restored factors are bit-identical.  The trials-only
/// "XCS1" format is refused.
static constexpr uint32_t StateMagic = 0x58435332; // "XCS2"

std::vector<uint8_t> CumulativeIsolator::serialize() const {
  ByteWriter Writer;
  Writer.writeU32(StateMagic);
  Writer.writeU64(Runs);
  Writer.writeU64(FailedRuns);
  Writer.writeU64(CorruptRuns);
  Writer.writeU64(OverflowSites.size());
  for (const auto &[Site, State] : OverflowSites) {
    Writer.writeU32(Site);
    Writer.writeU32(State.MaxPad);
    Writer.writeU32(State.Observed);
    Writer.writeU64(State.Trials.size());
    for (const BayesTrial &Trial : State.Trials) {
      Writer.writeF64(Trial.Probability);
      Writer.writeU8(Trial.Observed ? 1 : 0);
    }
    State.Accum.serialize(Writer);
  }
  Writer.writeU64(DanglingPairs.size());
  for (const auto &[Key, State] : DanglingPairs) {
    Writer.writeU64(Key);
    Writer.writeU64(State.MaxFreeToFailure);
    Writer.writeU32(State.Observed);
    Writer.writeU64(State.Trials.size());
    for (const BayesTrial &Trial : State.Trials) {
      Writer.writeF64(Trial.Probability);
      Writer.writeU8(Trial.Observed ? 1 : 0);
    }
    State.Accum.serialize(Writer);
  }
  return Writer.take();
}

bool CumulativeIsolator::deserialize(const std::vector<uint8_t> &Buffer) {
  // Decode into locals and swap only on success — a torn state file must
  // never half-seed the accumulated history (all-or-nothing, like
  // deserializePatchSet).
  ByteReader Reader(Buffer);
  if (Reader.readU32() != StateMagic)
    return false;
  uint64_t NewRuns = Reader.readU64();
  uint64_t NewFailedRuns = Reader.readU64();
  uint64_t NewCorruptRuns = Reader.readU64();
  std::map<SiteId, OverflowSiteState> NewOverflowSites;
  std::map<uint64_t, DanglingPairState> NewDanglingPairs;

  const uint64_t NumSites = Reader.readU64();
  for (uint64_t I = 0; I < NumSites && !Reader.failed(); ++I) {
    const SiteId Site = Reader.readU32();
    OverflowSiteState &State = NewOverflowSites[Site];
    State.MaxPad = Reader.readU32();
    State.Observed = Reader.readU32();
    const uint64_t NumTrials = Reader.readU64();
    for (uint64_t T = 0; T < NumTrials && !Reader.failed(); ++T) {
      BayesTrial Trial;
      Trial.Probability = Reader.readF64();
      Trial.Observed = Reader.readU8() != 0;
      State.Trials.push_back(Trial);
    }
    if (!State.Accum.deserialize(Reader))
      return false;
  }
  const uint64_t NumPairs = Reader.readU64();
  for (uint64_t I = 0; I < NumPairs && !Reader.failed(); ++I) {
    const uint64_t Key = Reader.readU64();
    DanglingPairState &State = NewDanglingPairs[Key];
    State.MaxFreeToFailure = Reader.readU64();
    State.Observed = Reader.readU32();
    const uint64_t NumTrials = Reader.readU64();
    for (uint64_t T = 0; T < NumTrials && !Reader.failed(); ++T) {
      BayesTrial Trial;
      Trial.Probability = Reader.readF64();
      Trial.Observed = Reader.readU8() != 0;
      State.Trials.push_back(Trial);
    }
    if (!State.Accum.deserialize(Reader))
      return false;
  }
  if (!Reader.atEnd())
    return false;
  Runs = NewRuns;
  FailedRuns = NewFailedRuns;
  CorruptRuns = NewCorruptRuns;
  OverflowSites = std::move(NewOverflowSites);
  DanglingPairs = std::move(NewDanglingPairs);
  return true;
}
