//===- isolate/OriginClassifier.h - Software-vs-hardware origin *- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Origin classification of corruption evidence (PR 9): before corruption
/// regions feed the §4 overflow analysis, each is judged *software* (a
/// buggy call site — eligible for site patches) or *hardware* (a failing
/// memory cell — diverted into a page-level hardware-fault report).
///
/// The signature of hardware damage, following the DRAM field studies in
/// the related work, is the inverse of an overflow's:
///
///  * **Extent**: one or two bytes with one or two flipped bits each
///    (single/multi bit upsets), versus an overflow's dense byte string.
///    The expected value is known exactly for canary-filled slots, so the
///    flipped-bit population is computable, not guessed.
///
///  * **Decorrelation**: a deterministic software bug is keyed to
///    allocation order and so corrupts the *same logical object at the
///    same offset with the same bytes* in every differently-randomized
///    image (§2.1); a failing cell is keyed to physical placement and so
///    corrupts whatever object each image's randomization put there.
///    Evidence reproduced across images is therefore pulled back to the
///    software side regardless of how bit-flip-like it looks.
///
///  * **Spatial clustering**: several corrupted slots inside one
///    row-sized window of a single slab indicate a row/column fault
///    (kind mask RowCluster); a single cell indicates a bit flip; the
///    same cell and mask recurring across images indicates stuck-at.
///
/// Diversion is deliberately conservative: anything failing the bit-level
/// tests stays software, so pure-software runs produce evidence — and
/// hence patches — bit-identical to a classifier-free pipeline (a golden
/// digest of a software-only diagnosis pins this).  The thresholds are
/// constants in OriginClassifier.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ISOLATE_ORIGINCLASSIFIER_H
#define EXTERMINATOR_ISOLATE_ORIGINCLASSIFIER_H

#include "isolate/ObjectDiff.h"

#include <cstdint>
#include <vector>

namespace exterminator {

/// One suspected failing page, aggregated over all images' diverted
/// evidence.  Feeds PatchSet::addHardwareReport.
struct HardwareFinding {
  /// 4 KiB-aligned address of the implicated page.
  uint64_t PageAddress = 0;
  /// HardwareFaultKindMask bits inferred from the evidence shape.
  uint32_t KindMask = 0;
  /// Number of corruption regions attributed to the page.
  uint64_t EvidenceRegions = 0;
};

/// The result of classifying one evidence set.
struct OriginPartition {
  /// Software-origin regions, per image, in the exact order they were
  /// collected (the overflow isolator depends on evidence order).
  std::vector<std::vector<CorruptionRegion>> Software;
  /// Page-level hardware findings, sorted by page address.
  std::vector<HardwareFinding> Hardware;
};

/// Partitions \p ByImage (as produced by EvidenceCollector) into
/// software-origin evidence and hardware-fault findings.
OriginPartition
classifyOrigins(const std::vector<HeapImageView> &Views,
                const std::vector<std::vector<CorruptionRegion>> &ByImage);

} // namespace exterminator

#endif // EXTERMINATOR_ISOLATE_ORIGINCLASSIFIER_H
