//===- isolate/ErrorIsolator.h - Iterative/replicated isolation *- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §4 error-isolation pipeline: given k heap images of the same
/// execution (iterative mode) or of replicas over the same input
/// (replicated mode), classify dangling-pointer overwrites first (their
/// corruption is identical across images, Theorem 1), exclude them from
/// overflow evidence, divert hardware-shaped evidence to page findings
/// (PR 9's origin classifier), isolate overflow culprits, and emit
/// runtime patches: a pad for the most highly-ranked overflow culprit
/// when it scores at least MinPatchScore (§6.1), a deferral for every
/// dangling finding (§6.2), and a report per suspected page.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ISOLATE_ERRORISOLATOR_H
#define EXTERMINATOR_ISOLATE_ERRORISOLATOR_H

#include "isolate/DanglingIsolator.h"
#include "isolate/OverflowIsolator.h"
#include "patch/RuntimePatch.h"

#include <vector>

namespace exterminator {

/// Tuning for the full isolation pipeline.
struct IsolationConfig {
  /// The top-ranked overflow culprit is patched only at or above this
  /// score.
  double MinPatchScore = 0.5;
};

/// Everything one isolation episode produced.
struct IsolationResult {
  /// Overflow culprits, ranked best-first.
  std::vector<OverflowCandidate> Overflows;
  /// Dangling-pointer overwrites.
  std::vector<DanglingFinding> Danglings;
  /// Suspected failing pages (hardware-origin evidence, PR 9).
  std::vector<HardwareFinding> HardwareFaults;
  /// The runtime patches derived from the findings (site patches for the
  /// software findings, page reports for the hardware ones).
  PatchSet Patches;

  bool foundAnything() const {
    return !Overflows.empty() || !Danglings.empty() ||
           !HardwareFaults.empty();
  }
};

/// Runs the complete §4 isolation pipeline over a set of heap images, on
/// the calling thread, through views built for this call (makeViews).
/// Fewer than two images yield an empty result.
IsolationResult isolateErrors(const std::vector<HeapImage> &Images,
                              const IsolationConfig &Config = {});

} // namespace exterminator

#endif // EXTERMINATOR_ISOLATE_ERRORISOLATOR_H
