//===- patch/RuntimePatch.h - Runtime patches ------------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime patches (§6): the output of error isolation and the input to
/// the correcting allocator.
///
/// A *pad patch* maps an allocation site to the number of bytes of padding
/// needed to contain an overflow from objects allocated there (§6.1).  A
/// *deferral patch* maps an (allocation site, deallocation site) pair to a
/// number of allocation-clock ticks by which frees at that pair must be
/// deferred, preventing a premature free from dangling (§6.2).
///
/// Patches compose by taking maxima, which is what makes collaborative
/// correction work: merging the patch sets of many users yields a patch
/// set covering all observed errors (§6.4).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_PATCH_RUNTIMEPATCH_H
#define EXTERMINATOR_PATCH_RUNTIMEPATCH_H

#include "support/SiteHash.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace exterminator {

/// Pads every allocation from AllocSite by PadBytes (§6.1).
struct PadPatch {
  SiteId AllocSite = 0;
  uint32_t PadBytes = 0;

  bool operator==(const PadPatch &Other) const = default;
};

/// Front-pads every allocation from AllocSite by PadBytes: the backward
/// overflow extension (§2.1 names backward overflows as future work; the
/// correcting allocator absorbs them by returning an interior pointer
/// with PadBytes of slack before it).
struct FrontPadPatch {
  SiteId AllocSite = 0;
  uint32_t PadBytes = 0;

  bool operator==(const FrontPadPatch &Other) const = default;
};

/// Defers frees at (AllocSite, FreeSite) by DeferTicks allocations (§6.2).
struct DeferralPatch {
  SiteId AllocSite = 0;
  SiteId FreeSite = 0;
  uint64_t DeferTicks = 0;

  bool operator==(const DeferralPatch &Other) const = default;
};

/// Fault-model bits for a hardware-fault report; ORed under merge (two
/// sightings of the same page with different signatures accumulate).
enum HardwareFaultKindMask : uint32_t {
  HardwareFaultBitFlip = 1u << 0,
  HardwareFaultStuckAt = 1u << 1,
  HardwareFaultRowCluster = 1u << 2,
};

/// A suspected failing physical page (PR 9).  Not a patch in the §6
/// sense — no allocation site is to blame — but it rides in the PatchSet
/// because its merge laws (OR the kind mask, max the evidence count) are
/// idempotent/commutative/associative like the patch tables', so epochs,
/// journaling and snapshots work unchanged.  The
/// correcting allocator's response is page retirement, not padding.
struct HardwareFaultReport {
  /// Page-aligned address of the implicated page (the unit DRAM-style
  /// faults cluster in, and the unit the allocator retires).
  uint64_t PageAddress = 0;
  /// HardwareFaultKindMask bits observed for this page.
  uint32_t KindMask = 0;
  /// Corruption regions attributed to this page so far (max-merged; the
  /// xterm_hardware_faults_total metric sums these).
  uint64_t EvidenceRegions = 0;

  bool operator==(const HardwareFaultReport &Other) const = default;
};

/// A set of runtime patches: the pad table and the deferral table the
/// correcting allocator builds at load time (§6.3).
class PatchSet {
public:
  /// Records a pad for \p AllocSite, keeping the maximum pad seen (§6.1:
  /// "Exterminator uses the maximum padding value encountered so far").
  /// Returns true when the set changed (new site, or a larger pad) —
  /// what the diagnosis pipeline's epoch counter keys on.
  bool addPad(SiteId AllocSite, uint32_t PadBytes);

  /// Records a front pad (backward-overflow extension), keeping the max.
  bool addFrontPad(SiteId AllocSite, uint32_t PadBytes);

  /// Front pad for \p AllocSite; 0 when unpatched.
  uint32_t frontPadFor(SiteId AllocSite) const;

  /// All front-pad patches, sorted by site.
  std::vector<FrontPadPatch> frontPads() const;

  size_t frontPadCount() const { return FrontPadTable.size(); }

  /// Records a deferral for the site pair, keeping the maximum.
  bool addDeferral(SiteId AllocSite, SiteId FreeSite, uint64_t DeferTicks);

  /// Pad for \p AllocSite; 0 when unpatched.
  uint32_t padFor(SiteId AllocSite) const;

  /// Deferral for the site pair; 0 when unpatched.
  uint64_t deferralFor(SiteId AllocSite, SiteId FreeSite) const;

  /// Records a hardware-fault report for a page: ORs \p KindMask into
  /// the page's mask and raises its evidence count to the maximum seen.
  /// Returns true when the set changed (epoch detection, like addPad).
  bool addHardwareReport(uint64_t PageAddress, uint32_t KindMask,
                         uint64_t EvidenceRegions);

  /// All hardware-fault reports, sorted by page address.
  std::vector<HardwareFaultReport> hardwareReports() const;

  /// Sum of EvidenceRegions over all reports — monotone under merge, so
  /// it is exported as the xterm_hardware_faults_total counter.
  uint64_t hardwareEvidenceTotal() const;

  size_t hardwareReportCount() const { return HardwareTable.size(); }

  /// Max-merges \p Other into this set (collaborative correction, §6.4);
  /// returns true when anything changed.
  bool merge(const PatchSet &Other);

  /// All pad patches, sorted by site for deterministic output.
  std::vector<PadPatch> pads() const;

  /// All deferral patches, sorted by site pair.
  std::vector<DeferralPatch> deferrals() const;

  size_t padCount() const { return PadTable.size(); }
  size_t deferralCount() const { return DeferralTable.size(); }
  bool empty() const {
    return PadTable.empty() && FrontPadTable.empty() &&
           DeferralTable.empty() && HardwareTable.empty();
  }
  void clear();

  bool operator==(const PatchSet &Other) const;

private:
  static uint64_t pairKey(SiteId AllocSite, SiteId FreeSite) {
    return (uint64_t(AllocSite) << 32) | FreeSite;
  }

  struct HardwareCell {
    uint32_t KindMask = 0;
    uint64_t EvidenceRegions = 0;

    bool operator==(const HardwareCell &Other) const = default;
  };

  std::unordered_map<SiteId, uint32_t> PadTable;
  std::unordered_map<SiteId, uint32_t> FrontPadTable;
  std::unordered_map<uint64_t, uint64_t> DeferralTable;
  std::unordered_map<uint64_t, HardwareCell> HardwareTable;
};

} // namespace exterminator

#endif // EXTERMINATOR_PATCH_RUNTIMEPATCH_H
