//===- isolate/OverflowIsolator.h - Buffer-overflow isolation --*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Buffer-overflow isolation for iterative/replicated modes (§4.1).
///
/// Victims are located through corruption evidence (broken canaries and
/// cross-image live-object discrepancies).  For each victim, every object
/// at a lower address in the same miniheap is a potential *culprit*;
/// because the overflow is deterministic, the corruption must lie at the
/// same distance δ from the culprit in every image, while the random
/// placement of every other object makes coincidental agreement
/// vanishingly rare (Theorem 3: one extra image drops the expected number
/// of spurious culprits to 1/(H−1)^(k−2)).
///
/// Confirmed culprit-victim pairs are scored 1 − (1/256)^S where S sums
/// the lengths of matching overflow strings; the patch pads the culprit's
/// allocation site enough to contain the farthest observed corruption.
///
/// Enumeration runs both directions: objects above a victim are
/// candidates too, for the backward (under-run) overflows that §2.1 names
/// as an extension, and a culprit needs corroboration from two images.
/// Evidence passes the origin classifier first (PR 9), so hardware-shaped
/// damage becomes page findings, not site patches.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ISOLATE_OVERFLOWISOLATOR_H
#define EXTERMINATOR_ISOLATE_OVERFLOWISOLATOR_H

#include "isolate/ObjectDiff.h"
#include "isolate/OriginClassifier.h"
#include "support/SiteHash.h"

#include <cstdint>
#include <vector>

namespace exterminator {

/// One ranked overflow culprit.
struct OverflowCandidate {
  /// The object whose allocation overflows.
  uint64_t CulpritObjectId = 0;
  /// Its allocation site: the key of the pad patch.
  SiteId CulpritAllocSite = 0;
  /// Bytes of padding needed to contain every observed corruption:
  /// max(corruption end − object start) − requested size (§6.1).
  uint32_t PadBytes = 0;
  /// Bytes of *front* padding for backward overflows (the §2.1
  /// extension): max(object start − corruption begin) when corruption
  /// appears at the same negative offset in every image.
  uint32_t FrontPadBytes = 0;
  /// Confidence 1 − (1/256)^S (§4.1, "Culprit Identification").
  double Score = 0.0;
  /// S: total matched overflow-string bytes across image pairs.
  uint64_t EvidenceBytes = 0;
  /// Distinct (image, victim) confirmations.
  uint32_t Confirmations = 0;
};

/// Searches heap images for buffer overflows.
class OverflowIsolator {
public:
  explicit OverflowIsolator(const std::vector<HeapImageView> &Views);

  /// Overflow candidates plus the hardware findings diverted before
  /// candidate scoring (PR 9).
  struct Isolation {
    /// Culprits ranked by score (ties broken toward more evidence bytes).
    std::vector<OverflowCandidate> Candidates;
    std::vector<HardwareFinding> Hardware;
  };

  /// Collects the corruption evidence, runs the origin classifier over
  /// it — hardware-origin regions never become site-patch evidence and
  /// are returned as page findings instead — and ranks the culprits of
  /// the rest.  \p ExcludeIds lists objects already classified as
  /// dangling overwrites, whose corruption must not be treated as
  /// overflow evidence.
  Isolation isolateWithOrigins(const std::vector<uint64_t> &ExcludeIds) const;

private:
  /// The §4.1 candidate enumeration + δ-agreement scoring over an
  /// already-collected (and possibly origin-filtered) evidence set.
  std::vector<OverflowCandidate> isolateFromEvidence(
      const std::vector<std::vector<CorruptionRegion>> &ByImage) const;

  /// Candidate-culprit enumeration: the sorted ids of every object that
  /// shares a miniheap with some victim region.  Victim regions are
  /// grouped by (image, miniheap) so each id column is scanned once.
  std::vector<uint64_t> candidates(
      const std::vector<std::vector<CorruptionRegion>> &ByImage) const;

  const std::vector<HeapImageView> &Views;
};

} // namespace exterminator

#endif // EXTERMINATOR_ISOLATE_OVERFLOWISOLATOR_H
