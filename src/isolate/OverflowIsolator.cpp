//===- isolate/OverflowIsolator.cpp - Buffer-overflow isolation ------------===//

#include "isolate/OverflowIsolator.h"

#include <algorithm>

using namespace exterminator;

OverflowIsolator::OverflowIsolator(const std::vector<HeapImageView> &Views)
    : Views(Views) {}

namespace {

/// A culprit-victim pair needs corroboration from at least two
/// differently-randomized heaps (§4.1, "Culprit Identification"); each
/// extra image divides the expected spurious-culprit count by H−1.
constexpr uint32_t MinConfirmations = 2;

/// A corruption region re-expressed as byte offsets relative to a culprit
/// candidate's object start within one image.  Offsets are signed:
/// negative offsets are backward-overflow evidence (§2.1 extension).
struct RelativeRegion {
  uint32_t ImageIndex;
  int64_t BeginOffset;
  int64_t EndOffset;
  const std::vector<uint8_t> *Bytes;
};

/// One observed byte at one culprit-relative offset in one image — a
/// row of the flat agreement table.
struct Observation {
  int64_t Offset;
  uint32_t ImageIndex;
  uint8_t Byte;
};

} // namespace

std::vector<uint64_t> OverflowIsolator::candidates(
    const std::vector<std::vector<CorruptionRegion>> &ByImage) const {
  // For each victim region, every object at a lower address in the same
  // miniheap could be a forward-overflow source, and with the backward
  // extension every object at a higher address too.  Victim regions are
  // grouped by (image, miniheap) so each miniheap's id column is swept
  // once, not once per region.
  struct VictimGroup {
    uint32_t Image;
    uint32_t Mini;
    std::vector<uint32_t> Victims;
  };
  std::vector<VictimGroup> Groups;
  for (uint32_t I = 0; I < ByImage.size(); ++I)
    for (const CorruptionRegion &Region : ByImage[I]) {
      VictimGroup *Group = nullptr;
      for (VictimGroup &Existing : Groups)
        if (Existing.Image == I &&
            Existing.Mini == Region.Victim.MiniheapIndex) {
          Group = &Existing;
          break;
        }
      if (!Group) {
        Groups.push_back({I, Region.Victim.MiniheapIndex, {}});
        Group = &Groups.back();
      }
      Group->Victims.push_back(Region.Victim.SlotIndex);
    }

  std::vector<uint64_t> Candidates;
  for (VictimGroup &Group : Groups) {
    const HeapImage &Image = Views[Group.Image].image();
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(Group.Mini);
    const uint64_t *Ids = Image.objectIdColumn().data() + Mini.FirstSlot;
    std::sort(Group.Victims.begin(), Group.Victims.end());
    Group.Victims.erase(
        std::unique(Group.Victims.begin(), Group.Victims.end()),
        Group.Victims.end());
    // Each region admits every slot but its own victim; the union over a
    // group therefore excludes a slot only when it is the group's sole
    // victim.
    const bool SingleVictim = Group.Victims.size() == 1;
    for (uint32_t C = 0; C < Mini.NumSlots; ++C) {
      if (SingleVictim && C == Group.Victims.front())
        continue;
      if (Ids[C] != 0)
        Candidates.push_back(Ids[C]);
    }
  }
  std::sort(Candidates.begin(), Candidates.end());
  Candidates.erase(std::unique(Candidates.begin(), Candidates.end()),
                   Candidates.end());
  return Candidates;
}

OverflowIsolator::Isolation OverflowIsolator::isolateWithOrigins(
    const std::vector<uint64_t> &ExcludeIds) const {
  Isolation Result;
  if (Views.size() < 2)
    return Result; // Theorem 3: one image leaves H−1 candidates per victim.

  const EvidenceCollector Collector(Views);
  OriginPartition Partition =
      classifyOrigins(Views, Collector.collectAllEvidence(ExcludeIds));
  Result.Hardware = std::move(Partition.Hardware);
  Result.Candidates = isolateFromEvidence(Partition.Software);
  return Result;
}

std::vector<OverflowCandidate> OverflowIsolator::isolateFromEvidence(
    const std::vector<std::vector<CorruptionRegion>> &ByImage) const {
  std::vector<OverflowCandidate> Result;

  const std::vector<uint64_t> CandidateIds = candidates(ByImage);

  // Hoisted scratch: the candidate loop reuses these instead of paying
  // an allocation per candidate.
  std::vector<ImageLocation> Locations(Views.size());
  std::vector<Observation> Observations;
  std::vector<RelativeRegion> Relative;
  std::vector<uint8_t> ImageConfirmed;

  for (const uint64_t CulpritId : CandidateIds) {
    // Locate the culprit in every image; candidates whose slot has been
    // recycled in some image cannot be cross-checked.
    bool Present = true;
    for (size_t I = 0; I < Views.size() && Present; ++I) {
      std::optional<ImageLocation> Loc = Views[I].findById(CulpritId);
      if (!Loc)
        Present = false;
      else
        Locations[I] = *Loc;
    }
    if (!Present)
      continue;

    const HeapImage &FirstImage = Views[0].image();
    const SiteId CulpritSite = FirstImage.allocSite(Locations[0]);
    const uint32_t RequestedSize = FirstImage.requestedSize(Locations[0]);

    // Project every image's corruption regions into culprit-relative
    // offsets; a deterministic overflow produces the same offsets (same
    // distance δ) in every image, while unrelated corruption lands at
    // random offsets (Theorem 3).
    Relative.clear();
    for (uint32_t I = 0; I < ByImage.size(); ++I) {
      const HeapImage &Image = Views[I].image();
      const ImageMiniheapInfo &CulpritMini = Image.miniheap(Locations[I]);
      const uint64_t CulpritStart = Image.slotAddress(Locations[I]);
      for (const CorruptionRegion &Region : ByImage[I]) {
        if (Region.BeginAddress < CulpritMini.BaseAddress ||
            Region.EndAddress > CulpritMini.endAddress())
          continue; // Overflows do not cross miniheaps (§5.1 assumption).
        const int64_t Begin = static_cast<int64_t>(Region.BeginAddress) -
                              static_cast<int64_t>(CulpritStart);
        const int64_t End = static_cast<int64_t>(Region.EndAddress) -
                            static_cast<int64_t>(CulpritStart);
        // Corruption confined to the culprit's own requested bytes is not
        // overflow evidence against it; corruption past its end (forward)
        // or before its start (backward, negative offsets) is.
        if (End <= static_cast<int64_t>(RequestedSize) && Begin >= 0)
          continue;
        Relative.push_back(RelativeRegion{I, Begin, End, &Region.Bytes});
      }
    }
    if (Relative.empty())
      continue;

    // Byte-level cross-image agreement: an offset counts as evidence for
    // an image when that image's observed byte agrees with at least one
    // *other* image at the same culprit-relative offset ("the overflowed
    // values have some bytes in common across the images").
    uint64_t EvidenceBytes = 0;
    int64_t MaxEndOffset = 0;
    int64_t MinBeginOffset = 0;
    ImageConfirmed.assign(Views.size(), 0);

    auto ScoreGroup = [&](const Observation *Group, size_t Count,
                          int64_t Offset) {
      for (size_t A = 0; A < Count; ++A) {
        bool Agrees = false;
        for (size_t B = 0; B < Count; ++B)
          if (B != A && Group[B].ImageIndex != Group[A].ImageIndex &&
              Group[B].Byte == Group[A].Byte) {
            Agrees = true;
            break;
          }
        if (Agrees) {
          ++EvidenceBytes;
          ImageConfirmed[Group[A].ImageIndex] = 1;
          if (Offset >= 0)
            MaxEndOffset = std::max(MaxEndOffset, Offset + 1);
          else
            MinBeginOffset = std::min(MinBeginOffset, Offset);
        }
      }
    };

    // One flat, reused observation table, sorted by offset and scored
    // per group — no per-offset allocations.  Agreement is
    // order-independent within a group, so the sort only needs the
    // offset key.
    Observations.clear();
    for (const RelativeRegion &Rel : Relative)
      for (int64_t Offset = Rel.BeginOffset; Offset < Rel.EndOffset; ++Offset)
        Observations.push_back(Observation{
            Offset, Rel.ImageIndex,
            (*Rel.Bytes)[static_cast<size_t>(Offset - Rel.BeginOffset)]});
    std::sort(Observations.begin(), Observations.end(),
              [](const Observation &A, const Observation &B) {
                return A.Offset < B.Offset;
              });
    for (size_t Begin = 0; Begin < Observations.size();) {
      size_t End = Begin + 1;
      while (End < Observations.size() &&
             Observations[End].Offset == Observations[Begin].Offset)
        ++End;
      ScoreGroup(Observations.data() + Begin, End - Begin,
                 Observations[Begin].Offset);
      Begin = End;
    }

    uint32_t Confirmations = 0;
    for (bool Confirmed : ImageConfirmed)
      if (Confirmed)
        ++Confirmations;
    if (Confirmations < MinConfirmations || EvidenceBytes == 0)
      continue;

    OverflowCandidate Candidate;
    Candidate.CulpritObjectId = CulpritId;
    Candidate.CulpritAllocSite = CulpritSite;
    Candidate.EvidenceBytes = EvidenceBytes;
    Candidate.Confirmations = Confirmations;
    // Score 1 − (1/256)^S: the odds that S matching bytes arose by
    // chance.
    double Miss = 1.0;
    for (uint64_t I = 0; I < EvidenceBytes && Miss > 1e-300; ++I)
      Miss /= 256.0;
    Candidate.Score = 1.0 - Miss;
    // Pad so the farthest corruption lands inside the culprit's own
    // allocation: (corruption end − object start) − requested size; the
    // front pad covers the deepest backward reach.
    Candidate.PadBytes = static_cast<uint32_t>(
        MaxEndOffset > static_cast<int64_t>(RequestedSize)
            ? MaxEndOffset - RequestedSize
            : 0);
    Candidate.FrontPadBytes = static_cast<uint32_t>(-MinBeginOffset);
    Result.push_back(Candidate);
  }

  std::sort(Result.begin(), Result.end(),
            [](const OverflowCandidate &A, const OverflowCandidate &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              if (A.EvidenceBytes != B.EvidenceBytes)
                return A.EvidenceBytes > B.EvidenceBytes;
              return A.CulpritObjectId < B.CulpritObjectId;
            });
  return Result;
}
