//===- diagnose/DiagnosisPipeline.h - Unified diagnosis --------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnosis pipeline: the single ingestion point for every kind of
/// error evidence Exterminator produces, and the owner of everything that
/// happens after a run ends.
///
/// Drivers (iterative, replicated, cumulative) only *collect* evidence —
/// heap images dumped at a common allocation time (§3.4) or per-run
/// statistical summaries (§5) — and submit it here.  The pipeline owns:
///
///  * error isolation — the §4 image pipeline (dangling overwrites first,
///    then overflow culprits) or the §5 Bayesian classifier for summaries;
///  * patch derivation — pads, front pads, and deferrals from findings,
///    including the §6.2 deferral-doubling rule for patched pairs that
///    keep failing;
///  * patch merging — every derived patch max-merges into one *active*
///    PatchSet (§6.3's reload source, §6.4's collaboration unit);
///  * reporting — rendering the active set as a human-readable bug
///    report (§9).
///
/// Centralizing this flow is what makes evidence portable: anything that
/// can produce a heap image or a run summary — a driver in this process,
/// a file from another machine via xtermtool — feeds the same pipeline
/// and contributes to the same patch set.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_DIAGNOSE_DIAGNOSISPIPELINE_H
#define EXTERMINATOR_DIAGNOSE_DIAGNOSISPIPELINE_H

#include "cumulative/CumulativeIsolator.h"
#include "heapimage/HeapImage.h"
#include "isolate/ErrorIsolator.h"
#include "observe/MetricsRegistry.h"
#include "patch/RuntimePatch.h"
#include "report/PatchReport.h"

#include <string>
#include <vector>

namespace exterminator {

/// Tuning for the diagnosis pipeline (the diagnosis-side half of
/// ExterminatorConfig).
struct DiagnosisConfig {
  /// Iterative/replicated isolation tuning (§4).
  IsolationConfig Isolation;
  /// Cumulative-mode tuning (§5).
  CumulativeConfig Cumulative;
};

/// Image evidence from one failure: images dumped at a common allocation
/// time, plus optional end-of-run images of failed runs to fall back on
/// (dangling overwrites may postdate the last allocation).
struct ImageEvidence {
  std::vector<HeapImage> Primary;
  std::vector<HeapImage> Fallback;
};

/// What one summary submission concluded.
struct CumulativeDiagnosis {
  /// The classifier's current findings (threshold-crossing sites).
  std::vector<CumulativeOverflowFinding> Overflows;
  std::vector<CumulativeDanglingFinding> Danglings;

  bool foundAnything() const {
    return !Overflows.empty() || !Danglings.empty();
  }
};

/// A versioned snapshot of the active patch set: the unit the patch
/// exchange broadcasts.  Epochs let a client fetch incrementally — it
/// sends the epoch it already holds and the server skips the (unchanged)
/// patch payload when nothing new has been diagnosed.
struct PatchSnapshot {
  uint64_t Epoch = 0;
  PatchSet Patches;
};

/// The unified diagnosis pipeline (see file comment).
class DiagnosisPipeline {
public:
  explicit DiagnosisPipeline(const DiagnosisConfig &Config = {});

  const DiagnosisConfig &config() const { return Config; }

  /// Seeds the active patch set (earlier sessions, other users — §6.4).
  void seedPatches(const PatchSet &Initial);

  /// The active patch set: everything diagnosed so far, max-merged.
  const PatchSet &patches() const { return Active; }

  /// Version of the active set: bumps exactly when a submission changes
  /// it (max-merge is idempotent, so re-submitted evidence does not).
  /// Starts at 0 for an empty set.
  uint64_t epoch() const { return Epoch; }

  /// The active set plus its epoch (what patches() broadcasts as).
  PatchSnapshot snapshot() const { return {Epoch, Active}; }

  /// Submits image evidence: runs §4 isolation over the primary images,
  /// falls back to the end-of-run images when the primaries yield no
  /// patches, and merges derived patches into the active set.
  /// Equivalent to isolateImages + absorbIsolation.
  IsolationResult submitImages(const ImageEvidence &Evidence);

  /// The isolation half of submitImages: a pure function of the
  /// (immutable) configuration and \p Evidence, run on the calling
  /// thread over views built for this call.  Concurrent callers need no
  /// external synchronization — the patch server runs this outside its
  /// lock and serializes only the merge.
  IsolationResult isolateImages(const ImageEvidence &Evidence) const;

  /// The merge half of submitImages: folds already-derived patches into
  /// the active set (bumping the epoch if anything changed).
  void absorbIsolation(const IsolationResult &Result);

  /// Reduces a final heap image to a §5 run summary (the evidence format
  /// cheap enough to ship: kilobytes instead of megabytes).
  RunSummary summarize(const HeapImage &FinalImage, bool Failed) const;

  /// Submits one run summary: folds it into the accumulated state,
  /// classifies, and merges derived patches into the active set.
  /// \p CleanStreak is the caller's count of consecutive clean runs; 0
  /// means failures continue, which doubles an already-applied deferral
  /// instead of re-deriving it (§6.2's logarithmic convergence —
  /// post-patch failures measure their free-to-failure distance from the
  /// already-deferred free).
  CumulativeDiagnosis submitSummary(const RunSummary &Summary,
                                    unsigned CleanStreak);

  /// The accumulated cumulative-mode state (run counts, Bayes trials).
  const CumulativeIsolator &cumulative() const { return Cumulative; }

  /// Serializes the full diagnostic state — epoch, active patch set, and
  /// the cumulative isolator including its running Bayes sums ("XDS1").
  /// What the patch server's durable snapshots store: restoreState on a
  /// fresh pipeline reproduces this pipeline bit-identically (same
  /// patches, same epoch, same classification factors).
  std::vector<uint8_t> serializeState() const;

  /// All-or-nothing restore of serializeState's output: a malformed
  /// buffer returns false and leaves the pipeline untouched.
  bool restoreState(const std::vector<uint8_t> &Buffer);

  /// Renders the active patch set as a bug report (§9).
  std::string report(const SiteRegistry *Registry = nullptr) const;

  /// Appends this pipeline's observability samples: epoch, active patch
  /// counts, cumulative run counts, and the top \p MaxSites per-site
  /// corruption posteriors (margin over the §5.1 bar) with their trial
  /// counts.  The caller synchronizes pipeline
  /// access exactly as for any other read (the patch server calls this
  /// under its mutex).
  void collectMetrics(std::vector<MetricSample> &Out,
                      size_t MaxSites = 32) const;

private:
  /// Merges \p Derived into the active set, bumping the epoch when the
  /// merge actually changed it.
  void mergeActive(const PatchSet &Derived);

  DiagnosisConfig Config;
  CumulativeIsolator Cumulative;
  PatchSet Active;
  uint64_t Epoch = 0;
};

} // namespace exterminator

#endif // EXTERMINATOR_DIAGNOSE_DIAGNOSISPIPELINE_H
