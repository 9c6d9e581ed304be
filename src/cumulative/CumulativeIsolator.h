//===- cumulative/CumulativeIsolator.h - Cumulative isolation --*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cumulative-mode error isolation (§5): accumulates per-run summaries
/// across many executions — no replication, identical inputs, or
/// deterministic behavior required — and flags allocation sites (for
/// overflows) or site pairs (for dangling pointers) whose observed
/// corruption criteria fire more often than chance, using the §5.1
/// Bayesian classifier.  The prior's N is the number of sites (or site
/// pairs) tracked so far, so the bar rises as evidence names more
/// candidates.  Produces the same runtime patches as the iterative
/// pipeline.
///
/// The accumulated state is serializable; the paper stores it in the
/// patch file between runs ("a few kilobytes per execution, compared to
/// tens or hundreds of megabytes for each heap image").
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_CUMULATIVE_CUMULATIVEISOLATOR_H
#define EXTERMINATOR_CUMULATIVE_CUMULATIVEISOLATOR_H

#include "cumulative/BayesClassifier.h"
#include "cumulative/RunSummary.h"
#include "patch/RuntimePatch.h"

#include <cstdint>
#include <map>
#include <vector>

namespace exterminator {

/// Tuning for cumulative isolation.
struct CumulativeConfig {
  /// The constant c in the prior P(H1) = 1/(cN); the paper uses 4.  N
  /// is the number of tracked sites (or site pairs) with trials.
  double PriorC = 4.0;
};

/// An allocation site flagged as an overflow source.
struct CumulativeOverflowFinding {
  SiteId AllocSite = 0;
  double LogBayesFactor = 0.0;
  double LogThreshold = 0.0;
  /// max per-run pad estimate (§5.1): the patch's pad value.
  uint32_t PadBytes = 0;
  uint32_t TrialCount = 0;
  uint32_t ObservedCount = 0;
};

/// A site pair flagged as a dangling-pointer source.
struct CumulativeDanglingFinding {
  SiteId AllocSite = 0;
  SiteId FreeSite = 0;
  double LogBayesFactor = 0.0;
  double LogThreshold = 0.0;
  /// 2 × max(free-to-failure distance) (§5.2): the patch's deferral.
  uint64_t DeferralTicks = 0;
  uint32_t TrialCount = 0;
  uint32_t ObservedCount = 0;
};

/// One tracked site's (or site pair's) standing against the §5.1
/// classification bar, classified or not — what the observability plane
/// exports as the xterm_site_posterior family.  margin() > 0 is exactly
/// the classify* flagging condition.
struct SitePosterior {
  bool Dangling = false;
  SiteId AllocSite = 0;
  SiteId FreeSite = 0; ///< meaningful only when Dangling
  double LogBayesFactor = 0.0;
  double LogThreshold = 0.0;
  uint32_t TrialCount = 0;
  uint32_t ObservedCount = 0;
  double margin() const { return LogBayesFactor - LogThreshold; }
};

/// Accumulates run summaries and classifies error sources.
class CumulativeIsolator {
public:
  explicit CumulativeIsolator(const CumulativeConfig &Config = {});

  /// Folds one execution's summary into the accumulated state.
  void addRun(const RunSummary &Summary);

  uint64_t runCount() const { return Runs; }
  uint64_t failedRunCount() const { return FailedRuns; }
  uint64_t corruptRunCount() const { return CorruptRuns; }

  /// Sites whose Bayes factor crosses the threshold, best-first.
  std::vector<CumulativeOverflowFinding> classifyOverflows() const;
  std::vector<CumulativeDanglingFinding> classifyDanglings() const;

  /// Every tracked site's standing against the bar (thresholds computed
  /// exactly as classify* computes them), worst-offender-first by
  /// margin; \p MaxSites > 0 truncates to the top offenders so the
  /// exported family stays bounded regardless of fleet history.
  std::vector<SitePosterior> sitePosteriors(size_t MaxSites = 0) const;

  /// Runtime patches for everything currently classified as an error.
  PatchSet patches() const;

  /// Round-trips the accumulated state (persisted between executions,
  /// and the cumulative half of the patch server's durable snapshots).
  /// The format ("XCS2") holds trials plus each site's running Bayes
  /// log-likelihood sums, so a restore rebuilds the classifier
  /// bit-identically without replaying trial history.  deserialize is
  /// all-or-nothing: a malformed buffer, or one in the trials-only
  /// "XCS1" format, returns false and leaves the accumulated state
  /// untouched.
  std::vector<uint8_t> serialize() const;
  bool deserialize(const std::vector<uint8_t> &Buffer);

private:
  struct OverflowSiteState {
    std::vector<BayesTrial> Trials;
    /// Incremental classifier state over Trials (same order, so the
    /// factor is bit-identical to a batch recompute).  It re-scores only
    /// when it takes a trial, so classifying after a summary costs
    /// O(nodes) per touched site plus one compare per tracked site.
    BayesAccumulator Accum;
    uint32_t MaxPad = 0;
    uint32_t Observed = 0;
  };
  struct DanglingPairState {
    std::vector<BayesTrial> Trials;
    BayesAccumulator Accum;
    uint64_t MaxFreeToFailure = 0;
    uint32_t Observed = 0;
  };

  CumulativeConfig Config;
  uint64_t Runs = 0;
  uint64_t FailedRuns = 0;
  uint64_t CorruptRuns = 0;
  std::map<SiteId, OverflowSiteState> OverflowSites;
  std::map<uint64_t, DanglingPairState> DanglingPairs;

  static uint64_t pairKey(SiteId AllocSite, SiteId FreeSite) {
    return (uint64_t(AllocSite) << 32) | FreeSite;
  }
};

} // namespace exterminator

#endif // EXTERMINATOR_CUMULATIVE_CUMULATIVEISOLATOR_H
