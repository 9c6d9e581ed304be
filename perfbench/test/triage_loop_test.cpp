//===- perfbench/test/triage_loop_test.cpp - Composed triage vs driver -----===//
//
// The benchmark's triage use composes iterative mode from public calls so
// it can time each one.  It must reach IterativeDriver::run's results on
// the §7.2 lists (30 injected overflows, 10 premature frees): the two may
// disagree on no more bugs — fixed or not, images per episode — than
// IterativeDriver::run disagrees with itself across two runs.
//
//===----------------------------------------------------------------------===//

#include "Plan.h"
#include "Triage.h"

#include "runtime/IterativeDriver.h"
#include "workload/EspressoWorkload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

using namespace exterminator;
using namespace perfbench;

namespace {

struct Verdict {
  bool Corrected = false;
  std::vector<unsigned> Images;

  bool operator==(const Verdict &Other) const = default;
};

Verdict verdictOf(const IterativeOutcome &Outcome) {
  Verdict V;
  V.Corrected = Outcome.Corrected;
  for (const IterativeEpisode &Episode : Outcome.Episodes)
    V.Images.push_back(Episode.ImagesUsed);
  return V;
}

Verdict verdictOf(const TriageOutcome &Outcome) {
  return {Outcome.Corrected, Outcome.ImagesPerEpisode};
}

} // namespace

TEST(TriageLoop, AgreesWithIterativeDriverOnSection72Lists) {
  const std::vector<TriageBug> Bugs = section72Bugs();
  ASSERT_EQ(Bugs.size(), 40u);
  EspressoWorkload Work;
  unsigned SelfDisagreements = 0, ComposedDisagreements = 0, Fixed = 0;
  for (const TriageBug &Bug : Bugs) {
    const ExterminatorConfig Config = Bug.config();
    IterativeDriver First(Work, Config), Second(Work, Config);
    const Verdict A = verdictOf(First.run(Bug.InputSeed));
    const Verdict B = verdictOf(Second.run(Bug.InputSeed));
    const Verdict C = verdictOf(triage(Work, Bug.InputSeed, Config));
    SelfDisagreements += !(A == B);
    ComposedDisagreements += !(A == C);
    Fixed += C.Corrected;
  }
  std::printf("driver vs driver: %u disagreements; composed vs driver: %u; "
              "composed fixed %u of %zu\n",
              SelfDisagreements, ComposedDisagreements, Fixed, Bugs.size());
  EXPECT_LE(ComposedDisagreements, SelfDisagreements);
}

TEST(Plan, IsAFunctionOfTheSeed) {
  const PlanSizes Sizes{2, TriageCycleBugs, CommunityCycleSessions};
  const Plan A = makePlan(7, Sizes), B = makePlan(7, Sizes),
             C = makePlan(8, Sizes);
  ASSERT_EQ(A.Triage.size(), TriageCycleBugs);
  EXPECT_EQ(A.Deploy.Pairs.size(), 2 * A.Deploy.Programs.size());
  EXPECT_EQ(A.Deploy.Patches, B.Deploy.Patches);
  EXPECT_FALSE(A.Deploy.Patches.empty());
  for (size_t I = 0; I < A.Triage.size(); ++I)
    EXPECT_EQ(A.Triage[I].describe(), B.Triage[I].describe());
  EXPECT_NE(A.Triage[0].describe(), C.Triage[0].describe());
}
