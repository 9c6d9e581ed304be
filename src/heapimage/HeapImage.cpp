//===- heapimage/HeapImage.cpp - Heap image dumps --------------------------===//

#include "heapimage/HeapImage.h"

#include "diefast/Canary.h"
#include "diefast/DieFastHeap.h"

#include <algorithm>
#include <cstring>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// SlotContents
//===----------------------------------------------------------------------===//

SlotContents::SlotContents(const HeapImage &Image, uint64_t GlobalSlot)
    : Image(&Image), FirstRun(Image.slotFirstRun(GlobalSlot)),
      NumRuns(Image.slotRunEnd(GlobalSlot) - Image.slotFirstRun(GlobalSlot)) {
  uint64_t Total = 0;
  for (uint32_t R = FirstRun; R < FirstRun + NumRuns; ++R)
    Total += Image.runs()[R].Length;
  Size = Total;
}

const ContentsRun &SlotContents::run(size_t I) const {
  assert(I < NumRuns && "run index out of range");
  return Image->runs()[FirstRun + I];
}

uint8_t SlotContents::operator[](size_t I) const {
  assert(I < Size && "contents offset out of range");
  uint64_t Offset = I;
  for (uint32_t R = FirstRun; R < FirstRun + NumRuns; ++R) {
    const ContentsRun &Run = Image->runs()[R];
    if (Offset < Run.Length) {
      if (Run.RunKind == ContentsRun::Literal)
        return Image->pool()[Run.PoolOffset + Offset];
      return static_cast<uint8_t>(Run.Word >> (8 * (Offset % 8)));
    }
    Offset -= Run.Length;
  }
  return 0; // Unreachable with a well-formed run table.
}

const uint8_t *SlotContents::bytes(std::vector<uint8_t> &Scratch) const {
  if (NumRuns == 1) {
    const ContentsRun &Run = Image->runs()[FirstRun];
    if (Run.RunKind == ContentsRun::Literal)
      return Image->pool().data() + Run.PoolOffset;
  }
  Scratch.resize(Size);
  decodeTo(Scratch.data());
  return Scratch.data();
}

void SlotContents::decodeTo(uint8_t *Out) const {
  for (uint32_t R = FirstRun; R < FirstRun + NumRuns; ++R) {
    const ContentsRun &Run = Image->runs()[R];
    if (Run.RunKind == ContentsRun::Literal) {
      std::memcpy(Out, Image->pool().data() + Run.PoolOffset, Run.Length);
    } else {
      for (uint32_t I = 0; I < Run.Length; I += 8)
        std::memcpy(Out + I, &Run.Word, 8);
    }
    Out += Run.Length;
  }
}

std::vector<uint8_t> SlotContents::decode() const {
  std::vector<uint8_t> Out(Size);
  decodeTo(Out.data());
  return Out;
}

std::optional<CorruptionExtent>
SlotContents::findCorruption(const Canary &HeapCanary) const {
  // Runs are 8-byte aligned within the slot, so a run always starts at
  // phase 0 of the 4-byte canary pattern.
  const uint64_t Expected = HeapCanary.patternWord();
  size_t Begin = Size, End = 0;
  uint64_t Offset = 0;
  for (uint32_t R = FirstRun; R < FirstRun + NumRuns; ++R) {
    const ContentsRun &Run = Image->runs()[R];
    if (Run.RunKind == ContentsRun::Pattern) {
      if (Run.Word != Expected) {
        // Every 8-byte block of the run differs identically; the extent
        // spans from the first differing byte of the first block to the
        // last differing byte of the last block.
        size_t FirstByte = 8, LastByte = 0;
        for (size_t B = 0; B < 8; ++B) {
          const uint8_t Have = static_cast<uint8_t>(Run.Word >> (8 * B));
          const uint8_t Want = static_cast<uint8_t>(Expected >> (8 * B));
          if (Have != Want) {
            FirstByte = std::min(FirstByte, B);
            LastByte = B + 1;
          }
        }
        Begin = std::min(Begin, static_cast<size_t>(Offset) + FirstByte);
        End = std::max(End, static_cast<size_t>(Offset) + Run.Length - 8 +
                                LastByte);
      }
    } else {
      const uint8_t *Data = Image->pool().data() + Run.PoolOffset;
      if (std::optional<CorruptionExtent> Extent =
              HeapCanary.findCorruption(Data, Run.Length)) {
        Begin = std::min(Begin, static_cast<size_t>(Offset) + Extent->Begin);
        End = std::max(End, static_cast<size_t>(Offset) + Extent->End);
      }
    }
    Offset += Run.Length;
  }
  if (End == 0)
    return std::nullopt;
  return CorruptionExtent{Begin, End};
}

bool SlotContents::equals(const SlotContents &Other) const {
  if (Size != Other.Size)
    return false;
  // Fast path: structurally identical encodings (both sides come from
  // the same canonical encoder).
  if (NumRuns == Other.NumRuns) {
    bool Structural = true;
    for (size_t R = 0; R < NumRuns && Structural; ++R) {
      const ContentsRun &A = run(R);
      const ContentsRun &B = Other.run(R);
      if (A.RunKind != B.RunKind || A.Length != B.Length) {
        Structural = false;
      } else if (A.RunKind == ContentsRun::Pattern) {
        if (A.Word != B.Word)
          return false;
      } else if (std::memcmp(Image->pool().data() + A.PoolOffset,
                             Other.Image->pool().data() + B.PoolOffset,
                             A.Length) != 0) {
        return false;
      }
    }
    if (Structural)
      return true;
  }
  std::vector<uint8_t> ScratchA, ScratchB;
  return std::memcmp(bytes(ScratchA), Other.bytes(ScratchB), Size) == 0;
}

//===----------------------------------------------------------------------===//
// HeapImage
//===----------------------------------------------------------------------===//

size_t HeapImage::objectCount() const {
  size_t Count = 0;
  for (uint64_t Id : ObjectIds)
    if (Id != 0)
      ++Count;
  return Count;
}

uint32_t HeapImage::beginMiniheap(uint32_t SizeClassIndex, uint64_t ObjectSize,
                                  uint64_t BaseAddress,
                                  uint64_t CreationTime) {
  ImageMiniheapInfo Info;
  Info.SizeClassIndex = SizeClassIndex;
  Info.ObjectSize = ObjectSize;
  Info.BaseAddress = BaseAddress;
  Info.CreationTime = CreationTime;
  Info.FirstSlot = Flags.size();
  Info.NumSlots = 0;
  Miniheaps.push_back(Info);
  return static_cast<uint32_t>(Miniheaps.size() - 1);
}

void HeapImage::addSlot(uint8_t SlotFlags, uint64_t ObjectId,
                        uint64_t FreeTime, SiteId AllocSite, SiteId FreeSite,
                        uint32_t RequestedSize) {
  assert(!Miniheaps.empty() && "addSlot before beginMiniheap");
  ++Miniheaps.back().NumSlots;
  Flags.push_back(SlotFlags);
  ObjectIds.push_back(ObjectId);
  FreeTimes.push_back(FreeTime);
  AllocSites.push_back(AllocSite);
  FreeSites.push_back(FreeSite);
  RequestedSizes.push_back(RequestedSize);
  RunBegin.push_back(static_cast<uint32_t>(Runs.size()));
}

void HeapImage::addLiteralRun(const uint8_t *Data, size_t Size) {
  assert(!RunBegin.empty() && "contents run before addSlot");
  ContentsRun Run;
  Run.RunKind = ContentsRun::Literal;
  Run.Length = static_cast<uint32_t>(Size);
  Run.PoolOffset = static_cast<uint32_t>(Pool.size());
  Pool.insert(Pool.end(), Data, Data + Size);
  Runs.push_back(Run);
}

void HeapImage::addPatternRun(uint64_t Word, uint32_t Length) {
  assert(!RunBegin.empty() && "contents run before addSlot");
  assert(Length % 8 == 0 && "pattern runs cover whole words");
  ContentsRun Run;
  Run.RunKind = ContentsRun::Pattern;
  Run.Length = Length;
  Run.Word = Word;
  Runs.push_back(Run);
}

void HeapImage::addSlotBytes(const uint8_t *Data, size_t Size) {
  assert(Size >= 8 && Size % 8 == 0 && "slot contents are whole words");
  // Uniform slot (virgin all-zero, canary-filled, or zero-filled
  // fresh allocation — the dominant populations of a DieHard heap):
  // one dispatched SIMD sweep settles the whole slot and emits the
  // single pattern run directly, with no run-boundary scanning.
  uint64_t First;
  std::memcpy(&First, Data, 8);
  if (canary_detail::Verify(Data, Size, First)) {
    addPatternRun(First, static_cast<uint32_t>(Size));
    return;
  }
  // Mixed contents: a pattern run starts exactly where two adjacent
  // words first match (two words already serialize smaller than their
  // literal bytes).  Both scans run at vector width: FindPair locates
  // the next run start across literal stretches, MatchWords measures
  // the run.
  size_t LiteralStart = 0;
  const size_t Words = Size / 8;
  size_t W = 0;
  while (W < Words) {
    const size_t RunStart =
        W + canary_detail::FindPair(Data + W * 8, Words - W);
    if (RunStart >= Words)
      break; // no further adjacent pair: literal to the end
    uint64_t Value;
    std::memcpy(&Value, Data + RunStart * 8, 8);
    const size_t Repeat =
        2 + canary_detail::MatchWords(Data + (RunStart + 2) * 8,
                                      Words - RunStart - 2, Value);
    if (LiteralStart < RunStart * 8)
      addLiteralRun(Data + LiteralStart, RunStart * 8 - LiteralStart);
    addPatternRun(Value, static_cast<uint32_t>(Repeat * 8));
    W = RunStart + Repeat;
    LiteralStart = W * 8;
  }
  if (LiteralStart < Size)
    addLiteralRun(Data + LiteralStart, Size - LiteralStart);
}

void HeapImage::captureSlotsBulk(const Miniheap &Mini) {
  assert(!Miniheaps.empty() && "captureSlotsBulk before beginMiniheap");
  const size_t N = Mini.numSlots();
  const size_t Base = Flags.size();
  Miniheaps.back().NumSlots += N;
  Flags.resize(Base + N);
  ObjectIds.resize(Base + N);
  FreeTimes.resize(Base + N);
  AllocSites.resize(Base + N);
  FreeSites.resize(Base + N);
  RequestedSizes.resize(Base + N);
  RunBegin.resize(Base + N);

  uint8_t *FlagsOut = Flags.data() + Base;
  uint64_t *IdsOut = ObjectIds.data() + Base;
  uint64_t *FreeTimesOut = FreeTimes.data() + Base;
  SiteId *AllocSitesOut = AllocSites.data() + Base;
  SiteId *FreeSitesOut = FreeSites.data() + Base;
  uint32_t *SizesOut = RequestedSizes.data() + Base;
  uint32_t *RunBeginOut = RunBegin.data() + Base;

  const size_t ObjectSize = Mini.objectSize();
  // Every slot contributes at least one run; pre-sizing keeps growth
  // out of the per-slot loop for the (dominant) uniform-slot case.
  Runs.reserve(Runs.size() + N);
  for (size_t I = 0; I < N; ++I) {
    const SlotMetadata &Meta = Mini.slot(I);
    FlagsOut[I] =
        (Mini.isAllocated(I) ? SlotFlagAllocated : 0) |
        (Meta.Bad ? SlotFlagBad : 0) | (Meta.Canaried ? SlotFlagCanaried : 0);
    IdsOut[I] = Meta.ObjectId;
    FreeTimesOut[I] = Meta.FreeTime;
    AllocSitesOut[I] = Meta.AllocSite;
    FreeSitesOut[I] = Meta.FreeSite;
    SizesOut[I] = Meta.RequestedSize;
    RunBeginOut[I] = static_cast<uint32_t>(Runs.size());
    addSlotBytes(Mini.slotPointer(I), ObjectSize);
  }
}

void HeapImage::reserveSlots(size_t Slots) {
  Flags.reserve(Flags.size() + Slots);
  ObjectIds.reserve(ObjectIds.size() + Slots);
  FreeTimes.reserve(FreeTimes.size() + Slots);
  AllocSites.reserve(AllocSites.size() + Slots);
  FreeSites.reserve(FreeSites.size() + Slots);
  RequestedSizes.reserve(RequestedSizes.size() + Slots);
  RunBegin.reserve(RunBegin.size() + Slots);
}

bool HeapImage::operator==(const HeapImage &Other) const {
  return AllocationTime == Other.AllocationTime &&
         CanaryValue == Other.CanaryValue &&
         CanaryFillProbability == Other.CanaryFillProbability &&
         Multiplier == Other.Multiplier && HeapSeed == Other.HeapSeed &&
         Miniheaps == Other.Miniheaps && Flags == Other.Flags &&
         ObjectIds == Other.ObjectIds && FreeTimes == Other.FreeTimes &&
         AllocSites == Other.AllocSites && FreeSites == Other.FreeSites &&
         RequestedSizes == Other.RequestedSizes &&
         RunBegin == Other.RunBegin && Runs == Other.Runs &&
         Pool == Other.Pool;
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

HeapImage exterminator::captureHeapImage(const DieFastHeap &Heap) {
  HeapImage Image;
  const DieHardHeap &Inner = Heap.heap();
  Image.AllocationTime = Inner.allocationClock();
  Image.CanaryValue = Heap.canary().value();
  Image.CanaryFillProbability = Heap.canaryFillProbability();
  Image.Multiplier = Inner.multiplier();
  Image.HeapSeed = Inner.config().Seed;

  Inner.forEachMiniheap([&](unsigned /*ClassIndex*/, unsigned /*HeapIndex*/,
                            const Miniheap &Mini) {
    Image.beginMiniheap(Mini.sizeClassIndex(), Mini.objectSize(),
                        reinterpret_cast<uint64_t>(Mini.base()),
                        Mini.creationTime());
    Image.captureSlotsBulk(Mini);
  });
  return Image;
}

//===----------------------------------------------------------------------===//
// HeapImageView
//===----------------------------------------------------------------------===//

HeapImageView::HeapImageView(const HeapImage &Image) : Image(Image) {
  // Pre-size the flat table exactly: one sequential pass over the id
  // column is far cheaper than growth rehashes mid-build.
  size_t IdCount = 0;
  for (uint64_t Id : Image.objectIdColumn())
    IdCount += Id != 0;
  ById.reserve(IdCount);
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    for (uint32_t S = 0; S < Mini.NumSlots; ++S)
      if (uint64_t Id = Image.objectIdAt(Mini.FirstSlot + S))
        ById.emplace(Id, ImageLocation{M, S});
    ByAddress.push_back(M);
  }
  std::sort(ByAddress.begin(), ByAddress.end(), [&](uint32_t A, uint32_t B) {
    return Image.miniheapInfo(A).BaseAddress <
           Image.miniheapInfo(B).BaseAddress;
  });
}

std::optional<ImageLocation>
HeapImageView::findById(uint64_t ObjectId) const {
  if (const ImageLocation *Loc = ById.lookup(ObjectId))
    return *Loc;
  return std::nullopt;
}

std::optional<std::pair<ImageLocation, uint64_t>>
HeapImageView::locateAddress(uint64_t Address) const {
  // Binary search for the last miniheap whose base is <= Address.
  auto It = std::upper_bound(
      ByAddress.begin(), ByAddress.end(), Address,
      [&](uint64_t Addr, uint32_t M) {
        return Addr < Image.miniheapInfo(M).BaseAddress;
      });
  if (It == ByAddress.begin())
    return std::nullopt;
  const uint32_t M = *--It;
  const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
  if (Address < Mini.BaseAddress || Address >= Mini.endAddress())
    return std::nullopt;
  const uint64_t Offset = Address - Mini.BaseAddress;
  ImageLocation Loc{M, static_cast<uint32_t>(Offset / Mini.ObjectSize)};
  return std::make_pair(Loc, Offset % Mini.ObjectSize);
}

std::vector<HeapImageView>
exterminator::makeViews(const std::vector<HeapImage> &Images) {
  std::vector<HeapImageView> Views;
  Views.reserve(Images.size());
  for (const HeapImage &Image : Images)
    Views.emplace_back(Image);
  return Views;
}
