//===- cumulative/BayesClassifier.h - Hypothesis testing -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cumulative-mode Bayesian error classifier (§5.1).
///
/// Each run contributes a trial (X_i, Y_i) for a site: X_i is the chance
/// the site satisfies the corruption criteria by luck, Y_i whether it did.
/// The classifier compares H0 : θ_A = 0 (no error; Y happens at rate X)
/// against H1 : θ_A > 0 (the site causes failures at some rate θ on top
/// of chance), flagging the site when
///
///     P(X̄,Ȳ | H1) / P(X̄,Ȳ | H0)  >  P(H0) / P(H1),
///
/// with a uniform prior on θ_A and prior P(H1) = 1/(cN) over the N sites
/// (c = 4): some probability the corruption is an overflow at all, split
/// evenly across candidate sites.
///
/// Likelihoods are evaluated in log space; the θ integral uses composite
/// Simpson quadrature on the log-sum-exp of the per-node log likelihoods.
///
/// Two evaluation forms exist: the batch statics (recompute over a trial
/// vector, O(#quadrature nodes × #trials)) and BayesAccumulator, which
/// folds each trial in as it arrives and re-scores its factor then, in
/// O(#nodes).  The accumulator performs the identical additions in the
/// identical order, so both forms produce bit-identical factors.  Since
/// only the sites a summary touched re-score, the patch server classifies
/// after every ingested summary in O(nodes) per touched site plus one
/// compare per tracked site.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_CUMULATIVE_BAYESCLASSIFIER_H
#define EXTERMINATOR_CUMULATIVE_BAYESCLASSIFIER_H

#include <cstddef>
#include <vector>

namespace exterminator {

class ByteWriter;
class ByteReader;

/// One (X, Y) observation for a site.
struct BayesTrial {
  /// Probability of Y = 1 under the null hypothesis.
  double Probability = 0.0;
  /// The observed outcome.
  bool Observed = false;
};

/// The §5.1 likelihood-ratio classifier.
class BayesClassifier {
public:
  /// \param PriorC the constant c in P(H1) = 1/(cN); the paper uses 4.
  explicit BayesClassifier(double PriorC = 4.0) : PriorC(PriorC) {}

  /// log P(X̄,Ȳ | H0) = Σ log[(1−X_i)(1−Y_i) + X_i·Y_i].
  static double logLikelihoodH0(const std::vector<BayesTrial> &Trials);

  /// log P(X̄,Ȳ | H1) = log ∫₀¹ Π_i P(Y_i | θ, X_i) dθ with
  /// P(Y=1 | θ, X) = (1−θ)X + θ.
  static double logLikelihoodH1(const std::vector<BayesTrial> &Trials);

  /// log Bayes factor log[P(X̄,Ȳ|H1) / P(X̄,Ȳ|H0)].
  static double logBayesFactor(const std::vector<BayesTrial> &Trials);

  /// The decision threshold log[P(H0)/P(H1)] for \p NumSites candidate
  /// sites.
  double logThreshold(size_t NumSites) const;

  /// True when the site should be flagged as an error source.
  bool isErrorSource(const std::vector<BayesTrial> &Trials,
                     size_t NumSites) const;

private:
  double PriorC;
};

/// Incremental evaluation state for one site's trials: the running H0
/// log likelihood plus the running per-θ-node log likelihoods of the
/// Simpson quadrature.  addTrial is O(nodes) and re-scores the factor,
/// which logBayesFactor then returns in O(1) however many trials have
/// accumulated.  Bit-identical to the batch statics over the same trial
/// sequence (same additions, same order).
class BayesAccumulator {
public:
  BayesAccumulator();

  void addTrial(const BayesTrial &Trial);

  size_t trialCount() const { return NumTrials; }

  double logLikelihoodH0() const { return LogH0; }
  double logLikelihoodH1() const;
  double logBayesFactor() const { return LogBayesFactor; }

  /// Serializes the running sums (trial count, H0 sum, per-node sums) so
  /// accumulated classifier state survives a server restart.  Restoring
  /// the f64 bits directly is bit-identical to replaying the folded
  /// trials — and O(nodes) instead of O(trials × nodes).
  void serialize(ByteWriter &Writer) const;

  /// Restores serialized sums; returns false (leaving the accumulator
  /// untouched) when the stream is malformed or the quadrature node
  /// count does not match this build's.
  bool deserialize(ByteReader &Reader);

private:
  /// Refreshes LogBayesFactor from the running sums; every mutation of
  /// them ends with it.
  void rescore() { LogBayesFactor = logLikelihoodH1() - LogH0; }

  size_t NumTrials = 0;
  double LogH0 = 0.0;
  /// Running Σ_i log P(Y_i | θ_node, X_i) per quadrature node.
  std::vector<double> NodeLogSums;
  double LogBayesFactor = 0.0;
};

} // namespace exterminator

#endif // EXTERMINATOR_CUMULATIVE_BAYESCLASSIFIER_H
