//===- tests/cumulative_test.cpp - Cumulative mode tests (§5) -----------------===//

#include "cumulative/BayesClassifier.h"
#include "cumulative/CumulativeIsolator.h"
#include "cumulative/SiteEstimator.h"
#include "support/RandomGenerator.h"
#include "support/Serializer.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

using namespace exterminator;
using namespace exterminator::testing_support;

//===----------------------------------------------------------------------===//
// BayesClassifier (§5.1)
//===----------------------------------------------------------------------===//

TEST(BayesClassifier, H0LikelihoodMatchesClosedForm) {
  // Two trials with X = 1/2: observing (Y=1, Y=0) has probability 1/4.
  std::vector<BayesTrial> Trials = {{0.5, true}, {0.5, false}};
  EXPECT_NEAR(BayesClassifier::logLikelihoodH0(Trials), std::log(0.25),
              1e-9);
}

TEST(BayesClassifier, H1IntegralMatchesClosedForm) {
  // One trial, X = 0, Y = 1: P(Y|θ) = θ, so ∫θ dθ = 1/2.
  std::vector<BayesTrial> Trials = {{0.0, true}};
  EXPECT_NEAR(std::exp(BayesClassifier::logLikelihoodH1(Trials)), 0.5,
              1e-6);
  // n trials, X = 0, Y = 0: P(Y|θ) = 1−θ, so ∫(1−θ)ⁿ dθ = 1/(n+1).
  // Misses fold as log(1−θ) + log(1−X) per node.
  for (unsigned N : {1u, 2u, 3u, 8u, 32u}) {
    const std::vector<BayesTrial> Misses(N, BayesTrial{0.0, false});
    EXPECT_NEAR(std::exp(BayesClassifier::logLikelihoodH1(Misses)),
                1.0 / (N + 1), 1e-6)
        << N << " misses";
  }
}

TEST(BayesClassifier, H1IntegralMatchesClosedFormQuadratic) {
  // Two trials, X = 0, Y = 1 twice: ∫θ² dθ = 1/3.
  std::vector<BayesTrial> Trials = {{0.0, true}, {0.0, true}};
  EXPECT_NEAR(std::exp(BayesClassifier::logLikelihoodH1(Trials)),
              1.0 / 3.0, 1e-6);
}

TEST(BayesClassifier, H1IntegralWithMixedOutcomes) {
  // X = 0 trials: P(Y=1|θ) = θ, P(Y=0|θ) = 1−θ.
  // ∫ θ(1−θ) dθ = 1/6.
  std::vector<BayesTrial> Trials = {{0.0, true}, {0.0, false}};
  EXPECT_NEAR(std::exp(BayesClassifier::logLikelihoodH1(Trials)),
              1.0 / 6.0, 1e-6);
}

TEST(BayesClassifier, BayesFactorGrowsWithConsistentHits) {
  // A site whose Y = 1 at X = 1/2 every run: the Bayes factor must grow
  // without bound — this is how "15 failures" eventually cross any
  // threshold (§7.2).
  std::vector<BayesTrial> Trials;
  double Previous = -1e300;
  for (int I = 0; I < 20; ++I) {
    Trials.push_back(BayesTrial{0.5, true});
    const double LogBF = BayesClassifier::logBayesFactor(Trials);
    EXPECT_GT(LogBF, Previous);
    Previous = LogBF;
  }
  EXPECT_GT(Previous, 5.0);
}

TEST(BayesClassifier, ChanceLevelHitsDoNotAccumulateEvidence) {
  // Y = 1 at exactly the chance rate: no sustained growth.  Interleave
  // hits and misses at X = 1/2.
  std::vector<BayesTrial> Trials;
  for (int I = 0; I < 30; ++I)
    Trials.push_back(BayesTrial{0.5, I % 2 == 0});
  EXPECT_LT(BayesClassifier::logBayesFactor(Trials), 1.0);
}

TEST(BayesClassifier, ThresholdScalesWithSiteCount) {
  const BayesClassifier Classifier(4.0);
  // P(H1) = 1/(4N): more candidate sites → higher threshold.
  EXPECT_LT(Classifier.logThreshold(10), Classifier.logThreshold(1000));
  EXPECT_NEAR(Classifier.logThreshold(1),
              std::log((1.0 - 0.25) / 0.25), 1e-9);
}

TEST(BayesClassifier, IsErrorSourceEndToEnd) {
  const BayesClassifier Classifier(4.0);
  std::vector<BayesTrial> Guilty, Innocent;
  for (int I = 0; I < 15; ++I) {
    Guilty.push_back(BayesTrial{0.3, true});
    Innocent.push_back(BayesTrial{0.3, I % 3 == 0}); // ~chance rate
  }
  EXPECT_TRUE(Classifier.isErrorSource(Guilty, 100));
  EXPECT_FALSE(Classifier.isErrorSource(Innocent, 100));
}

TEST(BayesClassifier, EmptyTrialsNeverFlag) {
  const BayesClassifier Classifier(4.0);
  EXPECT_FALSE(Classifier.isErrorSource({}, 10));
}

TEST(BayesClassifier, ExtremeProbabilitiesAreClamped) {
  // X = 0 with Y = 1 would be -inf under H0 without clamping; the
  // classifier must stay finite and strongly favor H1.
  std::vector<BayesTrial> Trials = {{0.0, true}, {0.0, true}};
  const double LogBF = BayesClassifier::logBayesFactor(Trials);
  EXPECT_TRUE(std::isfinite(LogBF));
  EXPECT_GT(LogBF, 10.0);
}

namespace {

/// The §5 log Bayes factor of a trial stream evaluated in long double
/// over the classifier's 512-interval Simpson grid, from the clamped
/// likelihood the classifier defines: X held to [ε, 1 − ε],
/// P(Y=1 | θ, X) = (1−θ)X + θ held to the same range, and
/// P(Y=0 | θ, X) = (1−θ)(1−X) floored at ε.
class LongDoubleBayesFactor {
public:
  LongDoubleBayesFactor()
      : NodeLogSums(Intervals + 1, 0.0L), LogWeights(Intervals + 1) {
    for (int I = 0; I <= Intervals; ++I)
      LogWeights[I] = std::log(static_cast<long double>(
          (I == 0 || I == Intervals) ? 1 : (I % 2 == 1) ? 4 : 2));
  }

  void addTrial(const BayesTrial &Trial) {
    const double Clamped = Trial.Probability < Epsilon ? Epsilon
                           : Trial.Probability > 1.0 - Epsilon
                               ? 1.0 - Epsilon
                               : Trial.Probability;
    const long double X = Clamped;
    LogH0 += std::log(Trial.Observed ? X : 1.0L - X);
    for (int I = 0; I <= Intervals; ++I) {
      const long double Theta = static_cast<long double>(I) / Intervals;
      const long double P =
          Trial.Observed
              ? std::clamp((1.0L - Theta) * X + Theta,
                           static_cast<long double>(Epsilon),
                           static_cast<long double>(1.0 - Epsilon))
              : std::max((1.0L - Theta) * (1.0L - X),
                         static_cast<long double>(Epsilon));
      NodeLogSums[I] += std::log(P);
    }
  }

  long double logBayesFactor() const {
    long double Max = -std::numeric_limits<long double>::infinity();
    for (int I = 0; I <= Intervals; ++I)
      Max = std::max(Max, NodeLogSums[I] + LogWeights[I]);
    long double Sum = 0.0L;
    for (int I = 0; I <= Intervals; ++I)
      Sum += std::exp(NodeLogSums[I] + LogWeights[I] - Max);
    const long double LogH1 =
        Max + std::log(Sum) + std::log(1.0L / (3.0L * Intervals));
    return LogH1 - LogH0;
  }

private:
  static constexpr int Intervals = 512;
  static constexpr double Epsilon = 1e-12;
  long double LogH0 = 0.0L;
  std::vector<long double> NodeLogSums;
  std::vector<long double> LogWeights;
};

} // namespace

TEST(BayesAccumulator, MatchesLongDoubleReferenceAtExtremeProbabilities) {
  // X at the clamp's edges and beyond them (0, 1e-13, 1 − 1e-13, 1) in a
  // quarter of the trials and uniform in the rest, both outcomes, past
  // the isolator's 4,096-trial cap.  A fold that forms 1 − P(Y=1) for a
  // miss keeps only a few digits when X is near 1 and fails this bound;
  // the bound leaves room for the rounding of the f64 running sums, which
  // reach about −2e4 here.
  const double Extremes[] = {0.0, 1e-13, 1.0 - 1e-13, 1.0};
  for (uint64_t Seed : {7u, 8u, 9u}) {
    RandomGenerator Rng(Seed);
    BayesAccumulator Accum;
    LongDoubleBayesFactor Reference;
    double WorstError = 0.0;
    size_t WorstTrial = 0;
    for (size_t I = 0; I < 4200; ++I) {
      BayesTrial Trial;
      Trial.Probability =
          Rng.chance(0.25) ? Extremes[Rng.nextBelow(4)] : Rng.nextDouble();
      Trial.Observed = Rng.chance(0.5);
      Accum.addTrial(Trial);
      Reference.addTrial(Trial);
      const double Error = std::fabs(
          static_cast<double>(Accum.logBayesFactor() -
                              Reference.logBayesFactor()));
      if (Error > WorstError) {
        WorstError = Error;
        WorstTrial = I;
      }
    }
    EXPECT_LE(WorstError, 1e-9)
        << "seed " << Seed << ", worst after trial " << WorstTrial;
  }
}

//===----------------------------------------------------------------------===//
// SiteEstimator (§5.1, §5.2)
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t SiteA = 0x100;
constexpr uint32_t SiteB = 0x200;
constexpr uint32_t SiteF = 0x300;

SiteId tokenSite(uint32_t Token) {
  CallContext Context;
  Context.pushFrame(Token);
  return Context.currentSite();
}

/// A run with a 6-byte overflow from SiteA (64-byte buffer).
std::vector<TraceOp> overflowTrace() {
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < 24; ++I)
    Ops.push_back(TraceOp::alloc(I, 64, SiteB));
  for (uint32_t I = 0; I < 24; I += 2)
    Ops.push_back(TraceOp::free(I, SiteF));
  Ops.push_back(TraceOp::alloc(100, 64, SiteA));
  Ops.push_back(TraceOp::write(100, 64, 6, 0x77));
  return Ops;
}
} // namespace

TEST(SiteEstimator, CleanRunHasNoCorruption) {
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < 16; ++I)
    Ops.push_back(TraceOp::alloc(I, 64, SiteB));
  const auto Run = runTrace(Ops, 42);
  const RunSummary Summary = summarizeRun(Run.FinalImage, false);
  EXPECT_FALSE(Summary.CorruptionObserved);
  EXPECT_TRUE(Summary.OverflowTrials.empty());
  EXPECT_FALSE(Summary.Failed);
}

TEST(SiteEstimator, OverflowRunProducesTrials) {
  // The overflow lands on a canaried free slot in most randomizations;
  // find a seed where it does and check the trial structure.
  for (uint64_t Seed = 1; Seed < 20; ++Seed) {
    const auto Run = runTrace(overflowTrace(), Seed);
    const RunSummary Summary = summarizeRun(Run.FinalImage, false);
    if (!Summary.CorruptionObserved)
      continue;
    ASSERT_FALSE(Summary.OverflowTrials.empty());
    for (const OverflowTrial &Trial : Summary.OverflowTrials) {
      EXPECT_GE(Trial.Probability, 0.0);
      EXPECT_LE(Trial.Probability, 1.0);
    }
    return;
  }
  FAIL() << "no seed produced observable corruption";
}

TEST(SiteEstimator, TrueCulpritSiteObservedWhenCorrupt) {
  // Whenever corruption is observed, the true culprit (directly below
  // its own overflow) must have Y = 1.
  unsigned Corrupt = 0, CulpritObserved = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    const auto Run = runTrace(overflowTrace(), Seed);
    const RunSummary Summary = summarizeRun(Run.FinalImage, false);
    if (!Summary.CorruptionObserved)
      continue;
    ++Corrupt;
    for (const OverflowTrial &Trial : Summary.OverflowTrials)
      if (Trial.AllocSite == tokenSite(SiteA) && Trial.Observed)
        ++CulpritObserved;
  }
  ASSERT_GT(Corrupt, 0u);
  EXPECT_EQ(CulpritObserved, Corrupt);
}

TEST(SiteEstimator, DanglingTrialsOnlyOnFailedRuns) {
  std::vector<TraceOp> Ops;
  Ops.push_back(TraceOp::alloc(0, 64, SiteA));
  Ops.push_back(TraceOp::free(0, SiteF));
  const auto Run = runTrace(Ops, 3);
  EXPECT_TRUE(summarizeRun(Run.FinalImage, false).DanglingTrials.empty());
  EXPECT_FALSE(summarizeRun(Run.FinalImage, true).DanglingTrials.empty());
}

TEST(SiteEstimator, DanglingTrialProbabilityReflectsP) {
  // With p = 1 and one freed object, X = 1 − (1−p)^1 = 1.
  std::vector<TraceOp> Ops;
  Ops.push_back(TraceOp::alloc(0, 64, SiteA));
  Ops.push_back(TraceOp::free(0, SiteF));
  const auto Run = runTrace(Ops, 3);
  const RunSummary Summary = summarizeRun(Run.FinalImage, true);
  ASSERT_EQ(Summary.DanglingTrials.size(), 1u);
  EXPECT_NEAR(Summary.DanglingTrials[0].Probability, 1.0, 1e-12);
  EXPECT_TRUE(Summary.DanglingTrials[0].Observed);
}

TEST(SiteEstimator, HalfCanaryProbabilityInTrials) {
  ExterminatorConfig Config;
  Config.CanaryFillProbability = 0.5;
  std::vector<TraceOp> Ops;
  Ops.push_back(TraceOp::alloc(0, 64, SiteA));
  Ops.push_back(TraceOp::free(0, SiteF));
  Ops.push_back(TraceOp::alloc(1, 64, SiteA));
  Ops.push_back(TraceOp::free(1, SiteF));
  const auto Run = runTrace(Ops, 3, Config);
  const RunSummary Summary = summarizeRun(Run.FinalImage, true);
  ASSERT_EQ(Summary.DanglingTrials.size(), 1u);
  // Two freed objects at p = 1/2: X = 1 − (1/2)² = 3/4.
  EXPECT_NEAR(Summary.DanglingTrials[0].Probability, 0.75, 1e-12);
}

TEST(RunSummary, SerializationRoundTrip) {
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.EndTime = 12345;
  Summary.OverflowTrials.push_back(OverflowTrial{0xaaaa, 0.25, true, 6});
  Summary.OverflowTrials.push_back(OverflowTrial{0xbbbb, 0.5, false, 0});
  Summary.DanglingTrials.push_back(
      DanglingTrial{0xcccc, 0xdddd, 0.75, true, 42});
  // The ends of [0, 1] are probabilities too.
  Summary.OverflowTrials.push_back(OverflowTrial{0xeeee, 0.0, false, 0});
  Summary.DanglingTrials.push_back(DanglingTrial{0xeeee, 0xffff, 1.0, true, 9});

  RunSummary Back;
  ASSERT_TRUE(deserializeRunSummary(serializeRunSummary(Summary), Back));
  EXPECT_EQ(Back.Failed, Summary.Failed);
  EXPECT_EQ(Back.CorruptionObserved, Summary.CorruptionObserved);
  EXPECT_EQ(Back.EndTime, Summary.EndTime);
  EXPECT_EQ(Back.OverflowTrials, Summary.OverflowTrials);
  EXPECT_EQ(Back.DanglingTrials, Summary.DanglingTrials);
}

TEST(RunSummary, DeserializeRejectsGarbage) {
  RunSummary Back;
  EXPECT_FALSE(deserializeRunSummary({9, 9, 9, 9}, Back));
  // A trial probability outside [0, 1], NaN included.
  const double Inf = std::numeric_limits<double>::infinity();
  for (double Bad : {std::nan(""), -Inf, -0.25, 1.25, Inf}) {
    RunSummary Overflow;
    Overflow.OverflowTrials.push_back(OverflowTrial{0x1234, Bad, true, 64});
    EXPECT_FALSE(deserializeRunSummary(serializeRunSummary(Overflow), Back))
        << Bad;
    RunSummary Dangling;
    Dangling.DanglingTrials.push_back(
        DanglingTrial{0x1234, 0x5678, Bad, true, 64});
    EXPECT_FALSE(deserializeRunSummary(serializeRunSummary(Dangling), Back))
        << Bad;
  }
}

//===----------------------------------------------------------------------===//
// CumulativeIsolator (§5)
//===----------------------------------------------------------------------===//

TEST(CumulativeIsolator, FlagsConsistentlyGuiltySite) {
  CumulativeIsolator Isolator;
  // 20 corrupted runs where site 0xaaaa always satisfies the criteria at
  // 30% chance probability, while 50 innocent sites hit at chance.
  RandomGenerator Rng(7);
  for (int Run = 0; Run < 20; ++Run) {
    RunSummary Summary;
    Summary.CorruptionObserved = true;
    Summary.OverflowTrials.push_back(OverflowTrial{0xaaaa, 0.3, true, 6});
    for (SiteId S = 1; S <= 50; ++S)
      Summary.OverflowTrials.push_back(
          OverflowTrial{S, 0.3, Rng.chance(0.3), 2});
    Isolator.addRun(Summary);
  }
  const auto Findings = Isolator.classifyOverflows();
  ASSERT_FALSE(Findings.empty());
  EXPECT_EQ(Findings.front().AllocSite, 0xaaaau);
  EXPECT_EQ(Findings.front().PadBytes, 6u);
  // No innocent site outranks the guilty one.
  for (const auto &Finding : Findings) {
    if (Finding.AllocSite != 0xaaaa) {
      EXPECT_LT(Finding.LogBayesFactor, Findings.front().LogBayesFactor);
    }
  }
}

TEST(CumulativeIsolator, NoFindingsFromChanceAlone) {
  CumulativeIsolator Isolator;
  RandomGenerator Rng(11);
  for (int Run = 0; Run < 30; ++Run) {
    RunSummary Summary;
    Summary.CorruptionObserved = true;
    for (SiteId S = 1; S <= 50; ++S)
      Summary.OverflowTrials.push_back(
          OverflowTrial{S, 0.3, Rng.chance(0.3), 1});
    Isolator.addRun(Summary);
  }
  EXPECT_TRUE(Isolator.classifyOverflows().empty());
}

TEST(CumulativeIsolator, DanglingPairCrossesThresholdWithFailures) {
  CumulativeIsolator Isolator;
  RandomGenerator Rng(13);
  unsigned Failures = 0;
  // Failed runs: the dangled pair was always canaried (that is why the
  // run failed); innocent pairs are canaried at the chance rate p = 1/2.
  while (Isolator.classifyDanglings().empty() && Failures < 50) {
    RunSummary Summary;
    Summary.Failed = true;
    Summary.DanglingTrials.push_back(
        DanglingTrial{0xaaaa, 0xbbbb, 0.5, true, 40});
    for (SiteId S = 1; S <= 30; ++S)
      Summary.DanglingTrials.push_back(
          DanglingTrial{S, S + 1, 0.5, Rng.chance(0.5), 10});
    Isolator.addRun(Summary);
    ++Failures;
  }
  const auto Findings = Isolator.classifyDanglings();
  ASSERT_FALSE(Findings.empty());
  EXPECT_EQ(Findings.front().AllocSite, 0xaaaau);
  EXPECT_EQ(Findings.front().FreeSite, 0xbbbbu);
  // 2 × max free-to-failure distance (§5.2).
  EXPECT_EQ(Findings.front().DeferralTicks, 80u);
  // The paper observes ~15 failures before crossing; ours should be in
  // the same regime (tens, not thousands or units).
  EXPECT_GE(Failures, 5u);
  EXPECT_LE(Failures, 40u);
}

TEST(CumulativeIsolator, NaNFactorIsNeverClassified) {
  // A NaN X survives the classifier's clamp and makes the factor NaN,
  // which is not above any threshold.
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.OverflowTrials.push_back(
      OverflowTrial{0x1234, std::nan(""), true, 65536});
  Summary.DanglingTrials.push_back(
      DanglingTrial{0x1234, 0x5678, std::nan(""), true, 100});
  CumulativeIsolator Isolator;
  Isolator.addRun(Summary);
  EXPECT_TRUE(Isolator.classifyOverflows().empty());
  EXPECT_TRUE(Isolator.classifyDanglings().empty());
}

TEST(CumulativeIsolator, PatchesReflectFindings) {
  CumulativeIsolator Isolator;
  for (int Run = 0; Run < 25; ++Run) {
    RunSummary Summary;
    Summary.CorruptionObserved = true;
    Summary.Failed = true;
    Summary.OverflowTrials.push_back(OverflowTrial{0x1111, 0.2, true, 36});
    Summary.DanglingTrials.push_back(
        DanglingTrial{0x2222, 0x3333, 0.5, true, 100});
    for (SiteId S = 1; S <= 40; ++S) {
      Summary.OverflowTrials.push_back(OverflowTrial{S, 0.2, false, 0});
      Summary.DanglingTrials.push_back(
          DanglingTrial{S, S, 0.5, Run % 2 == 0, 5});
    }
    Isolator.addRun(Summary);
  }
  const PatchSet Patches = Isolator.patches();
  EXPECT_EQ(Patches.padFor(0x1111), 36u);
  EXPECT_EQ(Patches.deferralFor(0x2222, 0x3333), 200u);
}

TEST(CumulativeIsolator, StateSerializationRoundTrip) {
  CumulativeIsolator Isolator;
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.OverflowTrials.push_back(OverflowTrial{0xaaaa, 0.3, true, 6});
  Summary.DanglingTrials.push_back(
      DanglingTrial{0xbbbb, 0xcccc, 0.5, true, 42});
  for (int I = 0; I < 10; ++I)
    Isolator.addRun(Summary);

  CumulativeIsolator Back;
  ASSERT_TRUE(Back.deserialize(Isolator.serialize()));
  EXPECT_EQ(Back.runCount(), 10u);
  EXPECT_EQ(Back.failedRunCount(), 10u);
  // Classification over the restored state matches.
  const auto A = Isolator.classifyOverflows();
  const auto B = Back.classifyOverflows();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].AllocSite, B[I].AllocSite);
    EXPECT_DOUBLE_EQ(A[I].LogBayesFactor, B[I].LogBayesFactor);
  }
}

TEST(CumulativeIsolator, DeserializeRejectsGarbage) {
  CumulativeIsolator Isolator;
  EXPECT_FALSE(Isolator.deserialize({1, 2, 3}));
}

TEST(CumulativeIsolator, MalformedInputLeavesStateUntouched) {
  // All-or-nothing: a state buffer torn mid-stream must not half-seed
  // the accumulated history (a server restored from it would classify
  // from a fabricated trial record).
  CumulativeIsolator Isolator;
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.OverflowTrials.push_back(OverflowTrial{0xaaaa, 0.3, true, 6});
  Summary.DanglingTrials.push_back(
      DanglingTrial{0xbbbb, 0xcccc, 0.5, true, 42});
  for (int I = 0; I < 6; ++I)
    Isolator.addRun(Summary);
  const std::vector<uint8_t> Good = Isolator.serialize();

  CumulativeIsolator Victim;
  Victim.addRun(Summary);
  const std::vector<uint8_t> Before = Victim.serialize();
  // Cut at a stride (full per-byte coverage is slow at ~4 KB of
  // accumulator sums per site); always include the first/last bytes.
  for (size_t Cut = 0; Cut < Good.size(); Cut += 61) {
    const std::vector<uint8_t> Truncated(Good.begin(), Good.begin() + Cut);
    EXPECT_FALSE(Victim.deserialize(Truncated))
        << "accepted truncation at " << Cut;
    EXPECT_EQ(Victim.serialize(), Before) << "mutated state at cut " << Cut;
  }
  EXPECT_FALSE(Victim.deserialize(
      std::vector<uint8_t>(Good.begin(), Good.end() - 1)));
  EXPECT_EQ(Victim.serialize(), Before);
  // The intact buffer still restores wholesale.
  ASSERT_TRUE(Victim.deserialize(Good));
  EXPECT_EQ(Victim.serialize(), Good);
  EXPECT_EQ(Victim.runCount(), 6u);
}

TEST(CumulativeIsolator, RefusesTrialsOnlyV1State) {
  // The trials-only "XCS1" format (no accumulator sums) is no longer
  // read: a well-formed one is refused whole, and the accumulated state
  // stays untouched.
  ByteWriter V1;
  V1.writeU32(0x58435331); // "XCS1"
  V1.writeU64(2);          // runs
  V1.writeU64(2);          // failed runs
  V1.writeU64(1);          // corrupt runs
  V1.writeU64(1);          // one overflow site
  V1.writeU32(0xabc);
  V1.writeU32(12); // MaxPad
  V1.writeU32(1);  // Observed
  V1.writeU64(2);  // trials
  for (bool Observed : {true, false}) {
    V1.writeF64(0.25);
    V1.writeU8(Observed ? 1 : 0);
  }
  V1.writeU64(0); // no dangling pairs

  CumulativeIsolator Victim;
  RunSummary Summary;
  Summary.Failed = true;
  Summary.OverflowTrials = {{0x123, 0.5, true, 8}};
  Victim.addRun(Summary);
  const std::vector<uint8_t> Before = Victim.serialize();
  EXPECT_FALSE(Victim.deserialize(V1.buffer()));
  EXPECT_EQ(Victim.serialize(), Before);
}

TEST(BayesAccumulator, BitIdenticalToBatchRecompute) {
  // The incremental accumulator (what the patch server classifies with
  // after every ingested summary) must produce exactly the batch
  // statics' factor — same additions in the same order, no tolerance.
  std::vector<BayesTrial> Trials;
  BayesAccumulator Accum;
  for (unsigned I = 0; I < 200; ++I) {
    BayesTrial Trial;
    Trial.Probability = (I % 97 + 1) / 100.0;
    Trial.Observed = (I * 2654435761u) % 3 != 0;
    Trials.push_back(Trial);
    Accum.addTrial(Trial);

    EXPECT_EQ(Accum.trialCount(), Trials.size());
    EXPECT_EQ(Accum.logLikelihoodH0(),
              BayesClassifier::logLikelihoodH0(Trials));
    EXPECT_EQ(Accum.logLikelihoodH1(),
              BayesClassifier::logLikelihoodH1(Trials));
    EXPECT_EQ(Accum.logBayesFactor(),
              BayesClassifier::logBayesFactor(Trials))
        << "diverged after trial " << I;
  }
}

TEST(CumulativeIsolator, DeserializedStateClassifiesIdentically) {
  // Round-tripping accumulated state must rebuild the incremental
  // classifier too: findings before and after are identical.
  CumulativeIsolator Original;
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  for (unsigned I = 0; I < 12; ++I) {
    Summary.OverflowTrials = {{0xabc, 0.2, true, 16},
                              {0xdef, 0.5, I % 2 == 0, 8}};
    Summary.DanglingTrials = {{0x123, 0x456, 0.4, true, 100 + I}};
    Original.addRun(Summary);
  }

  CumulativeIsolator Restored;
  ASSERT_TRUE(Restored.deserialize(Original.serialize()));

  const auto OriginalOverflows = Original.classifyOverflows();
  const auto RestoredOverflows = Restored.classifyOverflows();
  ASSERT_EQ(OriginalOverflows.size(), RestoredOverflows.size());
  for (size_t I = 0; I < OriginalOverflows.size(); ++I) {
    EXPECT_EQ(OriginalOverflows[I].AllocSite,
              RestoredOverflows[I].AllocSite);
    EXPECT_EQ(OriginalOverflows[I].LogBayesFactor,
              RestoredOverflows[I].LogBayesFactor);
  }
  const auto OriginalDanglings = Original.classifyDanglings();
  const auto RestoredDanglings = Restored.classifyDanglings();
  ASSERT_EQ(OriginalDanglings.size(), RestoredDanglings.size());
  for (size_t I = 0; I < OriginalDanglings.size(); ++I) {
    EXPECT_EQ(OriginalDanglings[I].LogBayesFactor,
              RestoredDanglings[I].LogBayesFactor);
    EXPECT_EQ(OriginalDanglings[I].DeferralTicks,
              RestoredDanglings[I].DeferralTicks);
  }
}

namespace {

/// Per-entry trial cap the isolator retains (its MaxTrialsPerSite).
constexpr size_t RetainedTrials = 4096;

/// The test's own copy of one tracked entry: its first RetainedTrials
/// trials, plus the evidence that stays live past the cap.
struct ReferenceEntry {
  std::vector<BayesTrial> Trials;
  uint32_t Observed = 0;
  uint64_t MaxEvidence = 0; ///< pad bytes, or free-to-failure ticks
  double Factor = 0.0;      ///< batch recompute, refreshed per check

  void add(double Probability, bool Hit, uint64_t Evidence) {
    if (Trials.size() < RetainedTrials)
      Trials.push_back(BayesTrial{Probability, Hit});
    if (Hit) {
      ++Observed;
      MaxEvidence = std::max(MaxEvidence, Evidence);
    }
  }
};

/// Every overflow site (keyed by site) and dangling pair (keyed by
/// pairKey) a summary stream touched.
struct ReferenceModel {
  std::map<uint64_t, ReferenceEntry> Overflow;
  std::map<uint64_t, ReferenceEntry> Dangling;

  static uint64_t pairKey(SiteId Alloc, SiteId Free) {
    return (uint64_t(Alloc) << 32) | Free;
  }

  void addRun(const RunSummary &Summary) {
    for (const OverflowTrial &T : Summary.OverflowTrials)
      Overflow[T.AllocSite].add(T.Probability, T.Observed, T.PadEstimate);
    for (const DanglingTrial &T : Summary.DanglingTrials)
      Dangling[pairKey(T.AllocSite, T.FreeSite)].add(T.Probability,
                                                     T.Observed,
                                                     T.FreeToFailure);
  }
};

/// classifyOverflows, classifyDanglings and sitePosteriors(0) of
/// \p Isolator must equal, double for double, a from-scratch batch
/// recompute of every entry in \p Ref.
void expectMatchesBatchRecompute(const CumulativeIsolator &Isolator,
                                 ReferenceModel &Ref) {
  for (auto &[Site, Entry] : Ref.Overflow)
    Entry.Factor = BayesClassifier::logBayesFactor(Entry.Trials);
  for (auto &[Key, Entry] : Ref.Dangling)
    Entry.Factor = BayesClassifier::logBayesFactor(Entry.Trials);
  const BayesClassifier Classifier;
  const double OverflowBar = Classifier.logThreshold(Ref.Overflow.size());
  const double DanglingBar = Classifier.logThreshold(Ref.Dangling.size());
  auto above = [](const auto &Entries, double Bar) {
    size_t Count = 0;
    for (const auto &[Key, Entry] : Entries)
      Count += Entry.Factor > Bar;
    return Count;
  };

  const auto Overflows = Isolator.classifyOverflows();
  ASSERT_EQ(Overflows.size(), above(Ref.Overflow, OverflowBar));
  std::set<SiteId> Flagged;
  for (size_t I = 0; I < Overflows.size(); ++I) {
    const CumulativeOverflowFinding &F = Overflows[I];
    ASSERT_TRUE(Ref.Overflow.count(F.AllocSite)) << F.AllocSite;
    const ReferenceEntry &Entry = Ref.Overflow.at(F.AllocSite);
    EXPECT_TRUE(Flagged.insert(F.AllocSite).second);
    EXPECT_EQ(F.LogBayesFactor, Entry.Factor) << F.AllocSite;
    EXPECT_EQ(F.LogThreshold, OverflowBar);
    EXPECT_EQ(F.PadBytes, Entry.MaxEvidence);
    EXPECT_EQ(F.TrialCount, Entry.Trials.size());
    EXPECT_EQ(F.ObservedCount, Entry.Observed);
    if (I) {
      EXPECT_GE(Overflows[I - 1].LogBayesFactor, F.LogBayesFactor);
    }
  }

  const auto Danglings = Isolator.classifyDanglings();
  ASSERT_EQ(Danglings.size(), above(Ref.Dangling, DanglingBar));
  std::set<uint64_t> FlaggedPairs;
  for (size_t I = 0; I < Danglings.size(); ++I) {
    const CumulativeDanglingFinding &F = Danglings[I];
    const uint64_t Key = ReferenceModel::pairKey(F.AllocSite, F.FreeSite);
    ASSERT_TRUE(Ref.Dangling.count(Key)) << Key;
    const ReferenceEntry &Entry = Ref.Dangling.at(Key);
    EXPECT_TRUE(FlaggedPairs.insert(Key).second);
    EXPECT_EQ(F.LogBayesFactor, Entry.Factor) << Key;
    EXPECT_EQ(F.LogThreshold, DanglingBar);
    EXPECT_EQ(F.DeferralTicks, 2 * Entry.MaxEvidence);
    EXPECT_EQ(F.TrialCount, Entry.Trials.size());
    EXPECT_EQ(F.ObservedCount, Entry.Observed);
    if (I) {
      EXPECT_GE(Danglings[I - 1].LogBayesFactor, F.LogBayesFactor);
    }
  }

  const auto Posteriors = Isolator.sitePosteriors(0);
  ASSERT_EQ(Posteriors.size(), Ref.Overflow.size() + Ref.Dangling.size());
  std::set<std::pair<bool, uint64_t>> Seen;
  for (size_t I = 0; I < Posteriors.size(); ++I) {
    const SitePosterior &P = Posteriors[I];
    const uint64_t Key =
        P.Dangling ? ReferenceModel::pairKey(P.AllocSite, P.FreeSite)
                   : P.AllocSite;
    const auto &Entries = P.Dangling ? Ref.Dangling : Ref.Overflow;
    ASSERT_TRUE(Entries.count(Key)) << Key;
    const ReferenceEntry &Entry = Entries.at(Key);
    EXPECT_TRUE(Seen.insert({P.Dangling, Key}).second);
    EXPECT_EQ(P.LogBayesFactor, Entry.Factor) << Key;
    EXPECT_EQ(P.LogThreshold, P.Dangling ? DanglingBar : OverflowBar);
    EXPECT_EQ(P.TrialCount, Entry.Trials.size());
    EXPECT_EQ(P.ObservedCount, Entry.Observed);
    if (I) {
      EXPECT_GE(Posteriors[I - 1].margin(), P.margin());
    }
  }
}

} // namespace

TEST(CumulativeIsolator, StoredFactorsMatchBatchRecompute) {
  // Classification reads each entry's stored factor, which its
  // accumulator re-scores only when it takes a trial.  Pin it against
  // recomputing every entry from scratch after every summary: new sites
  // keep arriving (so the threshold moves under untouched entries),
  // summaries carry several trials for one site, and one site runs past
  // the per-site trial cap.  Every tenth summary the state also
  // round-trips through serialize/deserialize and the stream continues
  // on the restored copy.
  constexpr unsigned NumRuns = 60;
  constexpr SiteId HotSite = 0xf00d;
  constexpr SiteId GuiltyAlloc = 0xbad0, GuiltyFree = 0xbad1;
  RandomGenerator Rng(2024);
  CumulativeIsolator Isolator;
  ReferenceModel Ref;
  SiteId NextSite = 1;
  uint64_t HotTrialsSent = 0;
  auto chance = [&Rng] { return 0.05 + 0.9 * Rng.nextDouble(); };
  auto below = [&Rng](uint64_t Bound) {
    return static_cast<uint32_t>(Rng.nextBelow(Bound));
  };

  for (unsigned Run = 0; Run < NumRuns; ++Run) {
    SCOPED_TRACE(::testing::Message() << "run " << Run);
    RunSummary Summary;
    Summary.Failed = Run % 4 != 3;
    Summary.CorruptionObserved = true;
    // Two new overflow sites and two new dangling pairs per summary.
    for (int I = 0; I < 2; ++I, ++NextSite) {
      const double P = chance();
      Summary.OverflowTrials.push_back(
          OverflowTrial{NextSite, P, Rng.chance(P), 8 + below(64)});
      const double Q = chance();
      Summary.DanglingTrials.push_back(DanglingTrial{
          NextSite, NextSite + 1000, Q, Rng.chance(Q), below(500)});
    }
    // Revisits of tracked entries; an entry may recur within a summary.
    for (int I = 0; I < 4; ++I) {
      const SiteId Site = 1 + below(NextSite - 1);
      const double P = chance();
      Summary.OverflowTrials.push_back(
          OverflowTrial{Site, P, Rng.chance(P), below(96)});
      const double Q = chance();
      Summary.DanglingTrials.push_back(DanglingTrial{
          Site, Site + 1000, Q, Rng.chance(Q), below(500)});
    }
    // A guilty site hit well above chance, several trials per summary;
    // the second-to-last summary pushes it past the trial cap and the
    // last one lands only past-the-cap trials.
    const unsigned HotTrials = Run == NumRuns - 2 ? 4000 : 3;
    for (unsigned I = 0; I < HotTrials; ++I, ++HotTrialsSent)
      Summary.OverflowTrials.push_back(OverflowTrial{
          HotSite, 0.3, Rng.chance(0.8), below(200)});
    if (Summary.Failed)
      Summary.DanglingTrials.push_back(DanglingTrial{
          GuiltyAlloc, GuiltyFree, 0.5, true, 40 + below(40)});

    Isolator.addRun(Summary);
    Ref.addRun(Summary);
    expectMatchesBatchRecompute(Isolator, Ref);

    if (Run % 10 == 9) {
      CumulativeIsolator Restored;
      ASSERT_TRUE(Restored.deserialize(Isolator.serialize()));
      expectMatchesBatchRecompute(Restored, Ref);
      EXPECT_EQ(Restored.serialize(), Isolator.serialize());
      Isolator = std::move(Restored);
    }
  }

  // The stream covered what the pin is about.
  EXPECT_GE(Ref.Overflow.size(), 100u);
  EXPECT_GE(Ref.Dangling.size(), 100u);
  EXPECT_GT(HotTrialsSent, RetainedTrials);
  EXPECT_EQ(Ref.Overflow.at(HotSite).Trials.size(), RetainedTrials);
  ASSERT_FALSE(Isolator.classifyOverflows().empty());
  EXPECT_EQ(Isolator.classifyOverflows().front().AllocSite, HotSite);
  ASSERT_FALSE(Isolator.classifyDanglings().empty());
  EXPECT_EQ(Isolator.classifyDanglings().front().AllocSite, GuiltyAlloc);
  EXPECT_EQ(Isolator.runCount(), NumRuns);
}
