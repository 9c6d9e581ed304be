//===- isolate/ErrorIsolator.cpp - Iterative/replicated isolation ----------===//

#include "isolate/ErrorIsolator.h"

using namespace exterminator;

IsolationResult
exterminator::isolateErrors(const std::vector<HeapImage> &Images,
                            const IsolationConfig &Config) {
  IsolationResult Result;
  if (Images.size() < 2)
    return Result;
  const std::vector<HeapImageView> Views = makeViews(Images);

  // Dangling overwrites first: identical corruption across images is a
  // dangling pointer with overwhelming probability (Theorem 1), so those
  // objects must not feed the overflow analysis.
  DanglingIsolator Dangling(Views);
  Result.Danglings = Dangling.isolate();

  std::vector<uint64_t> ExcludeIds;
  ExcludeIds.reserve(Result.Danglings.size());
  for (const DanglingFinding &Finding : Result.Danglings)
    ExcludeIds.push_back(Finding.ObjectId);

  OverflowIsolator Overflow(Views);
  OverflowIsolator::Isolation Isolation =
      Overflow.isolateWithOrigins(ExcludeIds);
  Result.Overflows = std::move(Isolation.Candidates);
  Result.HardwareFaults = std::move(Isolation.Hardware);

  // Patches: every dangling finding defers its site pair; overflows pad
  // the most highly-ranked culprit (§6.1).  Hardware findings implicate
  // no site at all — they become page reports, and the correcting
  // allocator retires the pages.
  for (const DanglingFinding &Finding : Result.Danglings)
    Result.Patches.addDeferral(Finding.AllocSite, Finding.FreeSite,
                               Finding.DeferralTicks);
  for (const HardwareFinding &Finding : Result.HardwareFaults)
    Result.Patches.addHardwareReport(Finding.PageAddress, Finding.KindMask,
                                     Finding.EvidenceRegions);
  if (!Result.Overflows.empty() &&
      Result.Overflows.front().Score >= Config.MinPatchScore) {
    const OverflowCandidate &Top = Result.Overflows.front();
    if (Top.PadBytes > 0)
      Result.Patches.addPad(Top.CulpritAllocSite, Top.PadBytes);
    if (Top.FrontPadBytes > 0)
      Result.Patches.addFrontPad(Top.CulpritAllocSite, Top.FrontPadBytes);
  }
  return Result;
}
