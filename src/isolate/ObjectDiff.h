//===- isolate/ObjectDiff.h - Corruption evidence gathering ----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evidence gathering for iterative/replicated error isolation (§4.1).
///
/// Two sources of corruption evidence exist in a set of heap images:
///
///  1. *Broken canaries*: a freed, canary-filled slot whose pattern is no
///     longer intact (including slots DieFast already quarantined).
///
///  2. *Live-object discrepancies*: the same logical object (identified by
///     object id) differing across images.  Legitimate differences must be
///     masked out: canary-fill asymmetries (via the canary bitmap),
///     logical pointers (values that resolve to the same logical object at
///     the same offset in every image), and values that legitimately
///     differ per process such as pids — recognizable because they differ
///     in *every* image, whereas a deterministic overflow corrupts a
///     minority of images with one fixed value (the rest agree on the
///     original contents).
///
/// The collector consumes HeapImageViews: canary sweeps stay inside the
/// run encoding (a clean canary-filled slot is one O(1) pattern-run
/// check) and live-object contents are only materialized when the slot's
/// encoding forces it.
///
/// Evidence is reported as byte ranges at absolute addresses within one
/// image, carrying the observed (corrupting) bytes for later similarity
/// scoring.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ISOLATE_OBJECTDIFF_H
#define EXTERMINATOR_ISOLATE_OBJECTDIFF_H

#include "heapimage/HeapImage.h"

#include <cstdint>
#include <vector>

namespace exterminator {

/// How one word of a live object compares across images (§4.1 masking
/// rules).
enum class WordClassKind {
  /// Identical everywhere: no evidence.
  Equal,
  /// Resolves to the same logical object and offset in every image.
  LogicalPointer,
  /// Pairwise distinct in all images: pids, handles, address-dependent
  /// values — legitimately different.
  LegitimatelyDifferent,
  /// A minority of images disagrees with the plurality: overflow
  /// evidence against the minority.
  OverflowEvidence,
};

/// A contiguous byte range of corruption within one image.
struct CorruptionRegion {
  /// Which image the corruption appears in.
  uint32_t ImageIndex = 0;
  /// The slot holding the corrupted bytes (the victim).
  ImageLocation Victim;
  /// Absolute byte range [Begin, End) in that image's address space.
  uint64_t BeginAddress = 0;
  uint64_t EndAddress = 0;
  /// The observed corrupting bytes (EndAddress - BeginAddress of them).
  std::vector<uint8_t> Bytes;

  uint64_t length() const { return EndAddress - BeginAddress; }
};

/// Gathers corruption evidence from a set of heap images of the same
/// program execution (iterative or replicated mode), on the calling
/// thread.
class EvidenceCollector {
public:
  /// \p Views must outlive the collector.
  explicit EvidenceCollector(const std::vector<HeapImageView> &Views);

  /// Broken-canary evidence in image \p ImageIndex, optionally skipping
  /// the object ids in \p ExcludeIds (objects already classified as
  /// dangling overwrites).
  std::vector<CorruptionRegion>
  collectCanaryEvidence(uint32_t ImageIndex,
                        const std::vector<uint64_t> &ExcludeIds = {}) const;

  /// Cross-image discrepancy evidence for the live object \p ObjectId;
  /// appends one region per corrupted range per minority image.
  void diffLiveObject(uint64_t ObjectId,
                      std::vector<CorruptionRegion> &EvidenceOut) const;

  /// All evidence in every image: canary evidence plus live-object diffs
  /// over every object live in all images.  Result is indexed by image.
  std::vector<std::vector<CorruptionRegion>>
  collectAllEvidence(const std::vector<uint64_t> &ExcludeIds = {}) const;

  /// Classifies one 8-byte word of a live object (exposed for tests).
  /// \p Values holds the word's value in each image.
  /// \p WordOffset is the byte offset of the word within the object.
  WordClassKind classifyWord(uint64_t ObjectId, uint64_t WordOffset,
                             const std::vector<uint64_t> &Values) const;

private:
  const std::vector<HeapImageView> &Views;
};

/// Merges regions in place: regions of the same image whose address
/// ranges touch or overlap are coalesced (bytes concatenated in address
/// order).
void coalesceRegions(std::vector<CorruptionRegion> &Regions);

} // namespace exterminator

#endif // EXTERMINATOR_ISOLATE_OBJECTDIFF_H
