//===- isolate/OriginClassifier.cpp - Software-vs-hardware origin ----------===//

#include "isolate/OriginClassifier.h"

#include "diefast/Canary.h"
#include "patch/RuntimePatch.h"

#include <algorithm>
#include <bit>
#include <map>
#include <string>

using namespace exterminator;

namespace {

/// Hardware damage is at most this many contiguous bytes; longer regions
/// are overflow strings.
constexpr uint64_t MaxRegionBytes = 2;
/// Each corrupted byte may have at most this many flipped bits versus its
/// expected (canary) value.
constexpr int MaxFlippedBitsPerByte = 2;
/// Window for spatial clustering: candidate regions within one aligned
/// window of this size count toward a row-cluster signature.
constexpr uint64_t RowWindowBytes = 1024;
/// Distinct corrupted slots within one window needed to call the damage
/// a row cluster.
constexpr size_t MinClusterSlots = 2;

/// One region that passed the bit-level hardware tests, with the context
/// the correlation / clustering passes need.
struct HardwareCandidate {
  uint32_t ImageIndex;
  uint32_t RegionIndex; // into ByImage[ImageIndex]
  const CorruptionRegion *Region;
  uint64_t SlotRelOffset; // region begin relative to the victim slot
  uint64_t ObjectId;      // last occupant of the victim slot
  std::string XorBytes;   // observed ^ expected, per byte
  uint32_t KindMask = 0;
};

/// Encodes the determinism key: a software bug reproduces the same
/// (logical object, object-relative offset, observed bytes) in every
/// image; a placement-keyed hardware fault cannot.
std::string correlationKey(const HardwareCandidate &Candidate) {
  std::string Key;
  Key.reserve(16 + Candidate.Region->Bytes.size());
  for (int I = 0; I < 8; ++I)
    Key.push_back(static_cast<char>(Candidate.ObjectId >> (8 * I)));
  for (int I = 0; I < 8; ++I)
    Key.push_back(static_cast<char>(Candidate.SlotRelOffset >> (8 * I)));
  Key.append(Candidate.Region->Bytes.begin(), Candidate.Region->Bytes.end());
  return Key;
}

/// Encodes the stuck-cell key: the same absolute cell re-corrupted with
/// the same flipped bits in multiple images of one address space.
std::string cellKey(const HardwareCandidate &Candidate) {
  std::string Key;
  Key.reserve(8 + Candidate.XorBytes.size());
  const uint64_t Address = Candidate.Region->BeginAddress;
  for (int I = 0; I < 8; ++I)
    Key.push_back(static_cast<char>(Address >> (8 * I)));
  Key += Candidate.XorBytes;
  return Key;
}

} // namespace

OriginPartition exterminator::classifyOrigins(
    const std::vector<HeapImageView> &Views,
    const std::vector<std::vector<CorruptionRegion>> &ByImage) {
  OriginPartition Out;
  if (Views.size() != ByImage.size()) {
    Out.Software = ByImage;
    return Out;
  }

  // Pass 1 — bit-level shape.  Hardware-like damage is a short region in
  // a canary-filled (free or quarantined) slot whose every byte differs
  // from the known canary value by a small number of flipped bits.
  // Live-object diff regions and dense overflow strings stay software.
  std::vector<HardwareCandidate> Candidates;
  for (uint32_t I = 0; I < ByImage.size(); ++I) {
    const HeapImage &Image = Views[I].image();
    const Canary Pattern = Canary::fromValue(Image.CanaryValue);
    for (uint32_t R = 0; R < ByImage[I].size(); ++R) {
      const CorruptionRegion &Region = ByImage[I][R];
      const uint64_t Length = Region.length();
      if (Length == 0 || Length > MaxRegionBytes ||
          Region.Bytes.size() < Length)
        continue;
      const ImageLocation Loc = Region.Victim;
      if (!Image.isCanaried(Loc))
        continue;
      if (Image.isAllocated(Loc) && !Image.isBad(Loc))
        continue;
      const uint64_t SlotStart = Image.slotAddress(Loc);
      if (Region.BeginAddress < SlotStart)
        continue;
      std::string XorBytes;
      bool Shaped = true;
      for (uint64_t B = 0; B < Length && Shaped; ++B) {
        const uint64_t SlotOffset = Region.BeginAddress - SlotStart + B;
        const uint8_t Diff =
            Region.Bytes[static_cast<size_t>(B)] ^
            Pattern.byteAt(static_cast<size_t>(SlotOffset));
        if (Diff == 0 || std::popcount(unsigned(Diff)) > MaxFlippedBitsPerByte)
          Shaped = false;
        XorBytes.push_back(static_cast<char>(Diff));
      }
      if (!Shaped)
        continue;
      Candidates.push_back(HardwareCandidate{
          I, R, &Region, Region.BeginAddress - SlotStart,
          Image.objectId(Loc), std::move(XorBytes)});
    }
  }

  // Pass 2 — determinism pull-back.  Evidence reproduced at the same
  // (object, offset, bytes) in two or more images is a deterministic
  // software bug no matter how bit-flip-like it looks (§2.1); drop those
  // candidates back to the software side.
  std::map<std::string, std::pair<uint32_t, bool>> SeenKeys;
  for (const HardwareCandidate &Candidate : Candidates) {
    auto [It, Inserted] = SeenKeys.try_emplace(
        correlationKey(Candidate),
        std::make_pair(Candidate.ImageIndex, false));
    if (!Inserted && It->second.first != Candidate.ImageIndex)
      It->second.second = true; // reproduced in another image
  }
  std::erase_if(Candidates, [&](const HardwareCandidate &Candidate) {
    return SeenKeys.at(correlationKey(Candidate)).second;
  });

  // Pass 3 — stuck-at recurrence: the same cell with the same flipped
  // bits in multiple images means the cell re-corrupts after rewrites.
  std::map<std::string, std::pair<uint32_t, bool>> SeenCells;
  for (const HardwareCandidate &Candidate : Candidates) {
    auto [It, Inserted] = SeenCells.try_emplace(
        cellKey(Candidate), std::make_pair(Candidate.ImageIndex, false));
    if (!Inserted && It->second.first != Candidate.ImageIndex)
      It->second.second = true;
  }
  for (HardwareCandidate &Candidate : Candidates)
    if (SeenCells.at(cellKey(Candidate)).second)
      Candidate.KindMask |= HardwareFaultStuckAt;

  // Pass 4 — spatial clustering: several distinct corrupted slots inside
  // one aligned row window of one image mark the window as a row
  // cluster; lone cells are bit flips.
  std::map<std::pair<uint32_t, uint64_t>, std::vector<size_t>> Windows;
  for (size_t C = 0; C < Candidates.size(); ++C)
    Windows[{Candidates[C].ImageIndex,
             Candidates[C].Region->BeginAddress / RowWindowBytes}]
        .push_back(C);
  for (const auto &[Key, Members] : Windows) {
    std::vector<std::pair<uint32_t, uint32_t>> Slots;
    for (size_t C : Members)
      Slots.emplace_back(Candidates[C].Region->Victim.MiniheapIndex,
                         Candidates[C].Region->Victim.SlotIndex);
    std::sort(Slots.begin(), Slots.end());
    Slots.erase(std::unique(Slots.begin(), Slots.end()), Slots.end());
    const uint32_t Mask = Slots.size() >= MinClusterSlots
                              ? HardwareFaultRowCluster
                              : HardwareFaultBitFlip;
    for (size_t C : Members)
      Candidates[C].KindMask |= Mask;
  }

  // Pass 5 — page attribution: aggregate diverted regions by 4 KiB page.
  std::map<uint64_t, HardwareFinding> Pages;
  for (const HardwareCandidate &Candidate : Candidates) {
    const uint64_t Page = Candidate.Region->BeginAddress & ~uint64_t(0xfff);
    HardwareFinding &Finding = Pages[Page];
    Finding.PageAddress = Page;
    Finding.KindMask |= Candidate.KindMask;
    ++Finding.EvidenceRegions;
  }
  Out.Hardware.reserve(Pages.size());
  for (const auto &[Page, Finding] : Pages)
    Out.Hardware.push_back(Finding);

  // Software partition: everything not diverted, in collection order, so
  // a pure-software evidence set passes through bit-identically.
  std::vector<std::vector<uint8_t>> Diverted(ByImage.size());
  for (uint32_t I = 0; I < ByImage.size(); ++I)
    Diverted[I].assign(ByImage[I].size(), 0);
  for (const HardwareCandidate &Candidate : Candidates)
    Diverted[Candidate.ImageIndex][Candidate.RegionIndex] = 1;
  Out.Software.resize(ByImage.size());
  for (uint32_t I = 0; I < ByImage.size(); ++I)
    for (uint32_t R = 0; R < ByImage[I].size(); ++R)
      if (!Diverted[I][R])
        Out.Software[I].push_back(ByImage[I][R]);
  return Out;
}
