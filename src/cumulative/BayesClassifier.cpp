//===- cumulative/BayesClassifier.cpp - Hypothesis testing ------------------===//

#include "cumulative/BayesClassifier.h"

#include "support/Serializer.h"
#include "support/Statistics.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

using namespace exterminator;

// Simpson quadrature intervals for the θ integral; the integrand is a
// polynomial of degree = #trials, so a few hundred nodes are ample.
static constexpr int NumIntervals = 512;

static double clampProbability(double P) {
  // Guard against trials computed as exactly 0 or 1, which would make a
  // single contrary observation produce -inf and poison the product.
  const double Epsilon = 1e-12;
  if (P < Epsilon)
    return Epsilon;
  if (P > 1.0 - Epsilon)
    return 1.0 - Epsilon;
  return P;
}

double
BayesClassifier::logLikelihoodH0(const std::vector<BayesTrial> &Trials) {
  double LogSum = 0.0;
  for (const BayesTrial &Trial : Trials) {
    const double X = clampProbability(Trial.Probability);
    LogSum += std::log(Trial.Observed ? X : 1.0 - X);
  }
  return LogSum;
}

/// log Π_i P(Y_i | θ, X_i) at a fixed θ.
static double logLikelihoodAtTheta(const std::vector<BayesTrial> &Trials,
                                   double Theta) {
  double LogSum = 0.0;
  for (const BayesTrial &Trial : Trials) {
    const double X = clampProbability(Trial.Probability);
    const double PYes = clampProbability((1.0 - Theta) * X + Theta);
    LogSum += std::log(Trial.Observed ? PYes : 1.0 - PYes);
  }
  return LogSum;
}

double
BayesClassifier::logLikelihoodH1(const std::vector<BayesTrial> &Trials) {
  // Composite Simpson over θ ∈ [0, 1], accumulated with log-sum-exp so
  // long trial sequences cannot underflow.
  const double H = 1.0 / NumIntervals;
  double LogAccum = -std::numeric_limits<double>::infinity();
  for (int I = 0; I <= NumIntervals; ++I) {
    const double Theta = I * H;
    double Weight = (I == 0 || I == NumIntervals) ? 1.0
                    : (I % 2 == 1)                ? 4.0
                                                  : 2.0;
    const double LogTerm =
        logLikelihoodAtTheta(Trials, Theta) + std::log(Weight);
    LogAccum = logAdd(LogAccum, LogTerm);
  }
  return LogAccum + std::log(H / 3.0);
}

double
BayesClassifier::logBayesFactor(const std::vector<BayesTrial> &Trials) {
  return logLikelihoodH1(Trials) - logLikelihoodH0(Trials);
}

double BayesClassifier::logThreshold(size_t NumSites) const {
  assert(NumSites > 0 && "need at least one candidate site");
  // P(H1) = 1/(cN), P(H0) = 1 − P(H1).
  const double PH1 = 1.0 / (PriorC * static_cast<double>(NumSites));
  return std::log((1.0 - PH1) / PH1);
}

bool BayesClassifier::isErrorSource(const std::vector<BayesTrial> &Trials,
                                    size_t NumSites) const {
  if (Trials.empty())
    return false;
  return logBayesFactor(Trials) > logThreshold(NumSites);
}

//===----------------------------------------------------------------------===//
// BayesAccumulator
//===----------------------------------------------------------------------===//

BayesAccumulator::BayesAccumulator() : NodeLogSums(NumIntervals + 1, 0.0) {
  rescore();
}

void BayesAccumulator::addTrial(const BayesTrial &Trial) {
  ++NumTrials;
  const double X = clampProbability(Trial.Probability);
  // Exactly logLikelihoodH0's per-trial term, folded in arrival order so
  // the running sum matches the batch recompute bit for bit.
  LogH0 += std::log(Trial.Observed ? X : 1.0 - X);
  // And logLikelihoodAtTheta's per-trial term at every quadrature node.
  const double H = 1.0 / NumIntervals;
  for (int I = 0; I <= NumIntervals; ++I) {
    const double Theta = I * H;
    const double PYes = clampProbability((1.0 - Theta) * X + Theta);
    NodeLogSums[I] += std::log(Trial.Observed ? PYes : 1.0 - PYes);
  }
  rescore();
}

void BayesAccumulator::serialize(ByteWriter &Writer) const {
  Writer.writeVarU64(NumTrials);
  Writer.writeVarU64(NodeLogSums.size());
  Writer.writeF64(LogH0);
  for (double Sum : NodeLogSums)
    Writer.writeF64(Sum);
}

bool BayesAccumulator::deserialize(ByteReader &Reader) {
  const uint64_t Trials = Reader.readVarU64();
  const uint64_t Nodes = Reader.readVarU64();
  // A node-count mismatch means the state was written by a build with a
  // different quadrature resolution; its sums are not comparable.
  if (Reader.failed() || Nodes != uint64_t(NumIntervals) + 1)
    return false;
  const double H0 = Reader.readF64();
  std::vector<double> Sums(NumIntervals + 1, 0.0);
  for (double &Sum : Sums)
    Sum = Reader.readF64();
  if (Reader.failed())
    return false;
  NumTrials = Trials;
  LogH0 = H0;
  NodeLogSums = std::move(Sums);
  rescore();
  return true;
}

double BayesAccumulator::logLikelihoodH1() const {
  // The batch logLikelihoodH1 loop with the per-node trial sums already
  // in hand.
  const double H = 1.0 / NumIntervals;
  double LogAccum = -std::numeric_limits<double>::infinity();
  for (int I = 0; I <= NumIntervals; ++I) {
    double Weight = (I == 0 || I == NumIntervals) ? 1.0
                    : (I % 2 == 1)                ? 4.0
                                                  : 2.0;
    LogAccum = logAdd(LogAccum, NodeLogSums[I] + std::log(Weight));
  }
  return LogAccum + std::log(H / 3.0);
}
