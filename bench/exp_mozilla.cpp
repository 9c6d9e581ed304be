//===- bench/exp_mozilla.cpp - §7.2 Mozilla bug 307259 --------------------------===//
//
// Regenerates the §7.2 Mozilla case study: a heap overflow in Unicode
// domain-name processing (bug 307259) in a program whose allocation
// behavior diverges across runs, so only cumulative mode applies.
//
// Two case studies as in the paper: (1) start the browser and immediately
// load the triggering page (a testing scenario); (2) browse a per-run
// random selection of pages first (deployed use).  Paper: the overflow is
// identified with no false positives in 23 runs (case 1) and 34 runs
// (case 2) — more runs because the culprit site also allocates more
// correct objects while browsing.
//
// Exits 1 unless both case studies isolate the overflow site with no
// false positive: the paper's cumulative-mode claim, gated in CI.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "runtime/CumulativeDriver.h"
#include "workload/MozillaWorkload.h"

#include <cstdio>

using namespace exterminator;
using namespace benchreport;

namespace {

struct CaseResult {
  bool Isolated = false;
  bool SiteCorrect = false;
  bool FalsePositives = false;
  unsigned Runs = 0;

  bool matchesPaper() const {
    return Isolated && SiteCorrect && !FalsePositives;
  }
};

CaseResult runCase(MozillaScenario Scenario, uint64_t MasterSeed) {
  MozillaParams Params;
  Params.Scenario = Scenario;
  MozillaWorkload Work(Params);

  ExterminatorConfig Config;
  Config.MasterSeed = MasterSeed;
  Config.CanaryFillProbability = 0.5; // cumulative mode
  // Nondeterministic inputs: each run browses differently.
  CumulativeDriver Driver(Work, Config, /*VaryInput=*/true);
  const CumulativeOutcome Outcome =
      Driver.run(/*InputSeed=*/1000, /*MaxRuns=*/120);

  CaseResult Result;
  Result.Isolated = Outcome.Isolated;
  Result.Runs = Outcome.RunsToIsolation;
  for (const CumulativeOverflowFinding &Finding : Outcome.Overflows) {
    if (Finding.AllocSite == MozillaWorkload::overflowSite())
      Result.SiteCorrect = true;
    else
      Result.FalsePositives = true;
  }
  return Result;
}

} // namespace

int main() {
  heading("Sec 7.2: Mozilla 1.7.3 IDN overflow (cumulative mode)");
  note("paper: correct site, no false positives; 23 runs (immediate) / 34 "
       "runs (browse first)");

  Table Out({"case study", "isolated", "site correct", "false positives",
             "runs to isolate", "paper runs"});

  const CaseResult Immediate =
      runCase(MozillaScenario::ImmediateTrigger, 0x307259);
  Out.addRow({"immediate trigger", Immediate.Isolated ? "yes" : "no",
              Immediate.SiteCorrect ? "yes" : "no",
              Immediate.FalsePositives ? "YES" : "none",
              Immediate.Isolated ? fmt("%u", Immediate.Runs) : "-", "23"});

  const CaseResult Browse =
      runCase(MozillaScenario::BrowseThenTrigger, 0x307260);
  Out.addRow({"browse, then trigger", Browse.Isolated ? "yes" : "no",
              Browse.SiteCorrect ? "yes" : "no",
              Browse.FalsePositives ? "YES" : "none",
              Browse.Isolated ? fmt("%u", Browse.Runs) : "-", "34"});
  Out.print();

  if (Immediate.Isolated && Browse.Isolated)
    note("shape check: browsing-first %s more runs (paper: it does)",
         Browse.Runs > Immediate.Runs ? "needs" : "does NOT need");
  if (!Immediate.matchesPaper() || !Browse.matchesPaper()) {
    std::fprintf(stderr, "Sec 7.2 check failed: a case study did not "
                         "isolate the overflow site without false "
                         "positives\n");
    return 1;
  }
  return 0;
}
