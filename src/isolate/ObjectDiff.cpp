//===- isolate/ObjectDiff.cpp - Corruption evidence gathering --------------===//

#include "isolate/ObjectDiff.h"

#include "diefast/Canary.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

using namespace exterminator;

EvidenceCollector::EvidenceCollector(const std::vector<HeapImageView> &Views)
    : Views(Views) {}

std::vector<CorruptionRegion> EvidenceCollector::collectCanaryEvidence(
    uint32_t ImageIndex, const std::vector<uint64_t> &ExcludeIds) const {
  const HeapImage &Image = Views[ImageIndex].image();
  const Canary HeapCanary = Canary::fromValue(Image.CanaryValue);
  const std::unordered_set<uint64_t> Excluded(ExcludeIds.begin(),
                                              ExcludeIds.end());

  std::vector<CorruptionRegion> Evidence;
  std::vector<uint8_t> Scratch;

  // Iterate the flag and id columns directly: one byte load per slot
  // decides inspectability, with none of the per-slot ImageLocation ->
  // globalSlot accessor chain.
  const uint8_t *Flags = Image.flagsColumn().data();
  const uint64_t *Ids = Image.objectIdColumn().data();
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    for (uint64_t G = Mini.FirstSlot, S = 0; S < Mini.NumSlots; ++G, ++S) {
      // Canary checks apply to canaried slots that are free, or that
      // DieFast quarantined after finding them corrupted (still holding
      // their canary-era contents).
      const uint8_t F = Flags[G];
      if (!(F & SlotFlagCanaried) ||
          ((F & SlotFlagAllocated) && !(F & SlotFlagBad)))
        continue;
      if (!Excluded.empty() && Excluded.count(Ids[G]))
        continue;
      const SlotContents Contents = Image.contentsAt(G);
      std::optional<CorruptionExtent> Extent =
          Contents.findCorruption(HeapCanary);
      if (!Extent)
        continue;
      CorruptionRegion Region;
      Region.ImageIndex = ImageIndex;
      Region.Victim = ImageLocation{M, static_cast<uint32_t>(S)};
      Region.BeginAddress = Mini.slotAddress(S) + Extent->Begin;
      Region.EndAddress = Mini.slotAddress(S) + Extent->End;
      const uint8_t *Bytes = Contents.bytes(Scratch);
      Region.Bytes.assign(Bytes + Extent->Begin, Bytes + Extent->End);
      Evidence.push_back(std::move(Region));
    }
  }
  return Evidence;
}

WordClassKind
EvidenceCollector::classifyWord(uint64_t ObjectId, uint64_t WordOffset,
                                const std::vector<uint64_t> &Values) const {
  assert(Values.size() == Views.size() && "one value per image");
  (void)ObjectId;
  (void)WordOffset;

  bool AllEqual = true;
  for (size_t I = 1; I < Values.size(); ++I)
    if (Values[I] != Values[0]) {
      AllEqual = false;
      break;
    }
  if (AllEqual)
    return WordClassKind::Equal;

  // Pointer identification: the value points into the heap and resolves
  // to the same logical object at the same offset in every image (§4.1).
  bool AllPointers = true;
  uint64_t PointeeId = 0;
  uint64_t PointeeOffset = 0;
  for (size_t I = 0; I < Values.size() && AllPointers; ++I) {
    auto Located = Views[I].locateAddress(Values[I]);
    if (!Located) {
      AllPointers = false;
      break;
    }
    const uint64_t Id = Views[I].image().objectId(Located->first);
    if (Id == 0) {
      AllPointers = false;
      break;
    }
    if (I == 0) {
      PointeeId = Id;
      PointeeOffset = Located->second;
    } else if (Id != PointeeId || Located->second != PointeeOffset) {
      AllPointers = false;
      break;
    }
  }
  if (AllPointers)
    return WordClassKind::LogicalPointer;

  // Values that legitimately differ per process (pids, handles,
  // address-dependent values) differ in *every* image.
  bool PairwiseDistinct = true;
  for (size_t I = 0; I < Values.size() && PairwiseDistinct; ++I)
    for (size_t J = I + 1; J < Values.size(); ++J)
      if (Values[I] == Values[J]) {
        PairwiseDistinct = false;
        break;
      }
  if (PairwiseDistinct)
    return WordClassKind::LegitimatelyDifferent;

  return WordClassKind::OverflowEvidence;
}

void EvidenceCollector::diffLiveObject(
    uint64_t ObjectId, std::vector<CorruptionRegion> &EvidenceOut) const {
  const size_t K = Views.size();
  // A plurality needs at least three images: with two, a disagreeing
  // word cannot say which image holds the corruption.
  if (K < 3)
    return;

  // The object must be live, unquarantined, and of identical size in
  // every image; otherwise it is not comparable.
  std::vector<ImageLocation> Locations(K);
  for (size_t I = 0; I < K; ++I) {
    std::optional<ImageLocation> Loc = Views[I].findById(ObjectId);
    if (!Loc)
      return;
    const uint8_t Flags = Views[I].image().slotFlags(*Loc);
    if (!(Flags & SlotFlagAllocated) || (Flags & SlotFlagBad))
      return;
    Locations[I] = *Loc;
  }
  const uint64_t ObjectSize =
      Views[0].image().miniheap(Locations[0]).ObjectSize;
  for (size_t I = 1; I < K; ++I)
    if (Views[I].image().miniheap(Locations[I]).ObjectSize != ObjectSize)
      return;

  // The overwhelmingly common case is an uncorrupted object that is
  // byte-identical everywhere: run-table comparison settles it without
  // materializing contents.
  bool AllIdentical = true;
  const SlotContents First = Views[0].image().contents(Locations[0]);
  for (size_t I = 1; I < K && AllIdentical; ++I)
    AllIdentical = First.equals(Views[I].image().contents(Locations[I]));
  if (AllIdentical)
    return;

  // Hoist the per-word slot resolution: decode each image's copy once
  // (zero-copy when the slot is a single literal run) and sweep words.
  std::vector<std::vector<uint8_t>> Scratch(K);
  std::vector<const uint8_t *> Data(K);
  for (size_t I = 0; I < K; ++I)
    Data[I] = Views[I].image().contents(Locations[I]).bytes(Scratch[I]);

  std::vector<uint64_t> Values(K);
  for (uint64_t Offset = 0; Offset + 8 <= ObjectSize; Offset += 8) {
    // Word-level short-circuit of the all-equal class before the full
    // classifier runs.
    uint64_t FirstWord;
    std::memcpy(&FirstWord, Data[0] + Offset, 8);
    bool Equal = true;
    for (size_t I = 1; I < K && Equal; ++I)
      Equal = std::memcmp(Data[0] + Offset, Data[I] + Offset, 8) == 0;
    if (Equal)
      continue;
    Values[0] = FirstWord;
    for (size_t I = 1; I < K; ++I)
      std::memcpy(&Values[I], Data[I] + Offset, 8);
    if (classifyWord(ObjectId, Offset, Values) !=
        WordClassKind::OverflowEvidence)
      continue;

    // Attribute the corruption to the minority image(s): those that
    // disagree with the plurality value.
    uint64_t Plurality = Values[0];
    size_t BestCount = 0;
    for (size_t I = 0; I < K; ++I) {
      size_t Count = 0;
      for (size_t J = 0; J < K; ++J)
        if (Values[J] == Values[I])
          ++Count;
      if (Count > BestCount) {
        BestCount = Count;
        Plurality = Values[I];
      }
    }
    for (size_t I = 0; I < K; ++I) {
      if (Values[I] == Plurality)
        continue;
      // Trim to the bytes that actually differ from the plurality value
      // for byte-precise overflow extents.
      uint8_t PluralityBytes[8];
      std::memcpy(PluralityBytes, &Plurality, 8);
      uint64_t FirstByte = 8, Last = 0;
      for (uint64_t B = 0; B < 8; ++B) {
        if (Data[I][Offset + B] != PluralityBytes[B]) {
          FirstByte = std::min(FirstByte, B);
          Last = B + 1;
        }
      }
      assert(FirstByte < Last && "differing word must differ in some byte");
      CorruptionRegion Region;
      Region.ImageIndex = static_cast<uint32_t>(I);
      Region.Victim = Locations[I];
      const uint64_t SlotAddr = Views[I].image().slotAddress(Locations[I]);
      Region.BeginAddress = SlotAddr + Offset + FirstByte;
      Region.EndAddress = SlotAddr + Offset + Last;
      Region.Bytes.assign(Data[I] + Offset + FirstByte,
                          Data[I] + Offset + Last);
      EvidenceOut.push_back(std::move(Region));
    }
  }
}

std::vector<std::vector<CorruptionRegion>> EvidenceCollector::collectAllEvidence(
    const std::vector<uint64_t> &ExcludeIds) const {
  std::vector<std::vector<CorruptionRegion>> ByImage(Views.size());
  for (uint32_t I = 0; I < Views.size(); ++I)
    ByImage[I] = collectCanaryEvidence(I, ExcludeIds);

  // Diff every object that is live in image 0 (liveness elsewhere is
  // checked inside diffLiveObject), in slot order, then append each
  // region to its image's canary evidence.
  const HeapImage &FirstImage = Views.front().image();
  const uint8_t *Flags = FirstImage.flagsColumn().data();
  const uint64_t *Ids = FirstImage.objectIdColumn().data();
  std::vector<CorruptionRegion> Diffs;
  for (uint64_t G = 0; G < FirstImage.totalSlots(); ++G) {
    const uint8_t F = Flags[G];
    if ((F & SlotFlagAllocated) && !(F & SlotFlagBad) && Ids[G] != 0)
      diffLiveObject(Ids[G], Diffs);
  }
  for (CorruptionRegion &Region : Diffs)
    ByImage[Region.ImageIndex].push_back(std::move(Region));

  for (auto &Regions : ByImage)
    coalesceRegions(Regions);
  return ByImage;
}

void exterminator::coalesceRegions(std::vector<CorruptionRegion> &Regions) {
  if (Regions.size() < 2)
    return;
  std::sort(Regions.begin(), Regions.end(),
            [](const CorruptionRegion &A, const CorruptionRegion &B) {
              return A.BeginAddress < B.BeginAddress;
            });
  std::vector<CorruptionRegion> Merged;
  Merged.push_back(std::move(Regions.front()));
  for (size_t I = 1; I < Regions.size(); ++I) {
    CorruptionRegion &Last = Merged.back();
    CorruptionRegion &Next = Regions[I];
    if (Next.ImageIndex == Last.ImageIndex &&
        Next.BeginAddress <= Last.EndAddress) {
      if (Next.EndAddress > Last.EndAddress) {
        // Extend; splice in the non-overlapping suffix of Next's bytes.
        const uint64_t Keep = Next.EndAddress - Last.EndAddress;
        Last.Bytes.insert(Last.Bytes.end(), Next.Bytes.end() - Keep,
                          Next.Bytes.end());
        Last.EndAddress = Next.EndAddress;
      }
    } else {
      Merged.push_back(std::move(Next));
    }
  }
  Regions = std::move(Merged);
}
