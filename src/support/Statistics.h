//===- support/Statistics.h - Summary statistics ---------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small numeric helpers shared by the evaluation harness: arithmetic and
/// geometric means (Figure 7 reports geometric-mean overheads), a Welford
/// accumulator, and log-space addition used by the cumulative-mode Bayes
/// classifier (§5.1).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_STATISTICS_H
#define EXTERMINATOR_SUPPORT_STATISTICS_H

#include <cstddef>
#include <vector>

namespace exterminator {

/// Arithmetic mean of \p Values (0 for empty input).
double mean(const std::vector<double> &Values);

/// Geometric mean of \p Values; all entries must be positive.
double geometricMean(const std::vector<double> &Values);

/// log(exp(LogA) + exp(LogB)) computed without overflow.
double logAdd(double LogA, double LogB);

/// Streaming mean/variance (Welford's algorithm).
class RunningStat {
public:
  void add(double Value);
  size_t count() const { return Count; }
  double mean() const { return Count ? Mean : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double min() const { return Min; }
  double max() const { return Max; }

private:
  size_t Count = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_STATISTICS_H
