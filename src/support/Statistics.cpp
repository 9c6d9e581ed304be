//===- support/Statistics.cpp - Summary statistics -------------------------===//

#include "support/Statistics.h"

#include <cassert>
#include <cmath>

using namespace exterminator;

double exterminator::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double Value : Values)
    Sum += Value;
  return Sum / static_cast<double>(Values.size());
}

double exterminator::geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double Value : Values) {
    assert(Value > 0.0 && "geometric mean requires positive values");
    LogSum += std::log(Value);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

void RunningStat::add(double Value) {
  if (Count == 0) {
    Min = Max = Value;
  } else {
    if (Value < Min)
      Min = Value;
    if (Value > Max)
      Max = Value;
  }
  ++Count;
  double Delta = Value - Mean;
  Mean += Delta / static_cast<double>(Count);
  M2 += Delta * (Value - Mean);
}

double RunningStat::variance() const {
  if (Count < 2)
    return 0.0;
  return M2 / static_cast<double>(Count - 1);
}
