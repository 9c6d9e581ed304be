//===- cumulative/BayesClassifier.cpp - Hypothesis testing ------------------===//

#include "cumulative/BayesClassifier.h"

#include "support/Serializer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

using namespace exterminator;

// Simpson quadrature intervals for the θ integral; the integrand is a
// polynomial of degree = #trials, so a few hundred nodes are ample.
static constexpr int NumIntervals = 512;
static constexpr int NumNodes = NumIntervals + 1;

// Trials computed as exactly 0 or 1 would make a single contrary
// observation produce -inf and poison the product, so every probability
// the likelihoods take is held to [ε, 1 − ε].
static constexpr double Epsilon = 1e-12;

static double clampProbability(double P) {
  if (P < Epsilon)
    return Epsilon;
  if (P > 1.0 - Epsilon)
    return 1.0 - Epsilon;
  return P;
}

namespace {

/// What the fold and the quadrature need of the θ grid, computed once.
struct QuadratureNodes {
  double Theta[NumNodes];
  /// log(1 − θ); the θ = 1 node holds log ε, the clamp's floor, which
  /// every miss folded at that node takes anyway.
  double LogOneMinusTheta[NumNodes];
  /// log of the Simpson weights 1, 4, 2, 4, …, 2, 4, 1.
  double LogWeight[NumNodes];
  double LogEpsilon;
  /// log(H/3) with H the node spacing.
  double LogHOver3;

  QuadratureNodes() {
    const double H = 1.0 / NumIntervals;
    LogEpsilon = std::log(Epsilon);
    LogHOver3 = std::log(H / 3.0);
    for (int I = 0; I < NumNodes; ++I) {
      Theta[I] = I * H;
      LogOneMinusTheta[I] =
          I == NumIntervals ? LogEpsilon : std::log(1.0 - Theta[I]);
      const double Weight = (I == 0 || I == NumIntervals) ? 1.0
                            : (I % 2 == 1)                ? 4.0
                                                          : 2.0;
      LogWeight[I] = std::log(Weight);
    }
  }
};

const QuadratureNodes &quadratureNodes() {
  static const QuadratureNodes Nodes;
  return Nodes;
}

/// log P(Y | H0) of one trial whose X is already clamped.
double logNullTerm(double X, bool Observed) {
  return std::log(Observed ? X : 1.0 - X);
}

/// Folds one trial into the running H0 log likelihood and the per-node
/// H1 log likelihoods.  The batch statics and BayesAccumulator both fold
/// through here, so they add the same terms in the same order.
void foldTrial(const BayesTrial &Trial, double &LogH0, double *NodeLogSums) {
  const QuadratureNodes &Nodes = quadratureNodes();
  const double X = clampProbability(Trial.Probability);
  const double LogNull = logNullTerm(X, Trial.Observed);
  LogH0 += LogNull;
  if (Trial.Observed) {
    // P(Y=1 | θ, X) = (1−θ)X + θ: one log per node, but observed trials
    // are the rare ones.
    for (int I = 0; I < NumNodes; ++I) {
      const double Theta = Nodes.Theta[I];
      NodeLogSums[I] += std::log(clampProbability((1.0 - Theta) * X + Theta));
    }
    return;
  }
  // 1 − P(Y=1 | θ, X) = (1−θ)(1−X), so a miss reuses the H0 term's
  // log(1−X) and costs one add per node; it never forms 1 − P(Y=1),
  // which cancels when X is near 1.  (1−θ)(1−X) ≤ 1 − ε already, so only
  // the clamp's floor applies.
  for (int I = 0; I < NumNodes; ++I)
    NodeLogSums[I] +=
        std::max(Nodes.LogOneMinusTheta[I] + LogNull, Nodes.LogEpsilon);
}

/// log ∫₀¹ Π_i P(Y_i | θ, X_i) dθ by composite Simpson over the per-node
/// log likelihoods: one max pass, one exp per node shifted by the max
/// (so long trial sequences cannot underflow), one log.
double logSimpson(const double *NodeLogSums) {
  const QuadratureNodes &Nodes = quadratureNodes();
  double Max = -std::numeric_limits<double>::infinity();
  for (int I = 0; I < NumNodes; ++I)
    Max = std::max(Max, NodeLogSums[I] + Nodes.LogWeight[I]);
  double Sum = 0.0;
  for (int I = 0; I < NumNodes; ++I)
    Sum += std::exp(NodeLogSums[I] + Nodes.LogWeight[I] - Max);
  return Max + std::log(Sum) + Nodes.LogHOver3;
}

} // namespace

double
BayesClassifier::logLikelihoodH0(const std::vector<BayesTrial> &Trials) {
  double LogSum = 0.0;
  for (const BayesTrial &Trial : Trials)
    LogSum += logNullTerm(clampProbability(Trial.Probability), Trial.Observed);
  return LogSum;
}

double
BayesClassifier::logLikelihoodH1(const std::vector<BayesTrial> &Trials) {
  double LogH0 = 0.0;
  std::vector<double> NodeLogSums(NumNodes, 0.0);
  for (const BayesTrial &Trial : Trials)
    foldTrial(Trial, LogH0, NodeLogSums.data());
  return logSimpson(NodeLogSums.data());
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

BayesAccumulator::BayesAccumulator() : NodeLogSums(NumNodes, 0.0) {
  rescore();
}

void BayesAccumulator::addTrial(const BayesTrial &Trial) {
  ++NumTrials;
  foldTrial(Trial, LogH0, NodeLogSums.data());
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
  if (Reader.failed() || Nodes != uint64_t(NumNodes))
    return false;
  const double H0 = Reader.readF64();
  std::vector<double> Sums(NumNodes, 0.0);
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
  return logSimpson(NodeLogSums.data());
}
