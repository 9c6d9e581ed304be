//===- codec/DeltaCodec.cpp - Base-image delta body codec -------------------===//

#include "codec/DeltaCodec.h"

#include "diefast/Canary.h"

#include <algorithm>
#include <cstring>

using namespace exterminator;
using namespace exterminator::imagedetail;

/// The canary fill word the image's heap used — the implied word of
/// CanaryRun records and the substitution key of full references.
static uint64_t canaryWordOf(const HeapImage &Image) {
  return Canary::fromValue(Image.CanaryValue).patternWord();
}

/// True when slot \p Loc can join a virgin region run (mirrors the plain
/// body encoder's predicate).
static bool isVirginSlot(const HeapImage &Image, const ImageLocation &Loc,
                         uint64_t &WordOut) {
  if (Image.slotFlags(Loc) != 0 || Image.objectId(Loc) != 0 ||
      Image.freeTime(Loc) != 0 || Image.allocSite(Loc) != 0 ||
      Image.freeSite(Loc) != 0 || Image.requestedSize(Loc) != 0)
    return false;
  const SlotContents Contents = Image.contents(Loc);
  if (Contents.runCount() != 1)
    return false;
  const ContentsRun &Run = Contents.run(0);
  if (Run.RunKind != ContentsRun::Pattern)
    return false;
  WordOut = Run.Word;
  return true;
}

/// Metadata equality between \p Loc in \p Image and \p BaseLoc in the
/// base — the precondition for either reference tag.
static bool metadataMatches(const HeapImage &Image, const ImageLocation &Loc,
                            const HeapImage &Base,
                            const ImageLocation &BaseLoc, uint64_t ObjectSize) {
  return Base.miniheap(BaseLoc).ObjectSize == ObjectSize &&
         Base.slotFlags(BaseLoc) == Image.slotFlags(Loc) &&
         Base.freeTime(BaseLoc) == Image.freeTime(Loc) &&
         Base.allocSite(BaseLoc) == Image.allocSite(Loc) &&
         Base.freeSite(BaseLoc) == Image.freeSite(Loc) &&
         Base.requestedSize(BaseLoc) == Image.requestedSize(Loc);
}

/// Run-structure equality under canary substitution: a base pattern run
/// holding the base's canary word is expected to hold the member's
/// canary word in the member.  This is exactly the map the decoder
/// applies, so a match guarantees bit-exact reconstruction
/// (HeapImage::operator== compares run tables, not just bytes).
static bool runsEqualSubstituted(const HeapImage &Base,
                                 const ImageLocation &BaseLoc,
                                 const HeapImage &Member,
                                 const ImageLocation &Loc,
                                 uint64_t BaseCanaryWord,
                                 uint64_t MemberCanaryWord) {
  const SlotContents CB = Base.contents(BaseLoc);
  const SlotContents CM = Member.contents(Loc);
  if (CB.runCount() != CM.runCount())
    return false;
  for (size_t R = 0; R < CB.runCount(); ++R) {
    const ContentsRun &RB = CB.run(R);
    const ContentsRun &RM = CM.run(R);
    if (RB.RunKind != RM.RunKind || RB.Length != RM.Length)
      return false;
    if (RB.RunKind == ContentsRun::Pattern) {
      const uint64_t Expected =
          RB.Word == BaseCanaryWord ? MemberCanaryWord : RB.Word;
      if (RM.Word != Expected)
        return false;
    } else if (std::memcmp(Base.pool().data() + RB.PoolOffset,
                           Member.pool().data() + RM.PoolOffset,
                           RB.Length) != 0) {
      return false;
    }
  }
  return true;
}

/// writeSlotContents with the delta-body extension: pattern runs of the
/// image's own canary word become CanaryRun records (no word byte).
static void writeSlotContentsDelta(StreamWriter &Writer,
                                   const HeapImage &Image,
                                   const SlotContents &Contents,
                                   uint64_t CanaryWord) {
  Writer.writeVarU64(Contents.runCount());
  for (size_t R = 0; R < Contents.runCount(); ++R) {
    const ContentsRun &Run = Contents.run(R);
    if (Run.RunKind == ContentsRun::Pattern && Run.Word == CanaryWord) {
      Writer.writeU8(CanaryRunKind);
      Writer.writeVarU64(Run.Length);
    } else if (Run.RunKind == ContentsRun::Pattern) {
      Writer.writeU8(Run.RunKind);
      Writer.writeVarU64(Run.Length);
      Writer.writeU64(Run.Word);
    } else {
      Writer.writeU8(Run.RunKind);
      Writer.writeVarU64(Run.Length);
      Writer.writeBytes(Image.pool().data() + Run.PoolOffset, Run.Length);
    }
  }
}

/// Charges \p Runs run records carrying \p LiteralBytes pool bytes to
/// the contents budget; false when the decode would pass it.
static bool chargeContents(BundleBudget &Budget, uint64_t Runs,
                           uint64_t LiteralBytes) {
  const uint64_t Bytes = Runs * sizeof(ContentsRun) + LiteralBytes;
  if (Bytes > Budget.ContentsBytes)
    return false;
  Budget.ContentsBytes -= Bytes;
  return true;
}

/// readSlotContents accepting CanaryRun records, charging each run to
/// \p Budget before it is appended.
static bool readSlotContentsDelta(StreamReader &Reader, HeapImage &Image,
                                  uint64_t ObjectSize, uint64_t CanaryWord,
                                  std::vector<uint8_t> &Scratch,
                                  BundleBudget &Budget) {
  const uint64_t RunCount = Reader.readVarU64();
  if (Reader.failed() || RunCount > ObjectSize / 8 + 1)
    return false;
  uint64_t Total = 0;
  for (uint64_t R = 0; R < RunCount; ++R) {
    const uint8_t Kind = Reader.readU8();
    const uint64_t Length = Reader.readVarU64();
    // Non-wrapping form: Total + Length could overflow on a corrupt
    // varint and slip past the bound into a huge allocation.
    if (Reader.failed() || Length == 0 || Length > ObjectSize - Total ||
        !chargeContents(Budget, 1, Kind == ContentsRun::Literal ? Length : 0))
      return false;
    if (Kind == ContentsRun::Pattern || Kind == CanaryRunKind) {
      if (Length % 8 != 0)
        return false;
      uint64_t Word = CanaryWord;
      if (Kind == ContentsRun::Pattern) {
        Word = Reader.readU64();
        if (Reader.failed())
          return false;
      }
      Image.addPatternRun(Word, static_cast<uint32_t>(Length));
    } else if (Kind == ContentsRun::Literal) {
      Scratch.resize(Length);
      if (!Reader.readBytes(Scratch.data(), Length))
        return false;
      Image.addLiteralRun(Scratch.data(), Length);
    } else {
      return false;
    }
    Total += Length;
  }
  return Total == ObjectSize;
}

void exterminator::writeDeltaImageBody(StreamWriter &Writer,
                                       const HeapImage &Image,
                                       const SiteDictionary &Sites,
                                       const HeapImageView *Base) {
  const uint64_t CanaryWord = canaryWordOf(Image);
  const uint64_t BaseCanaryWord =
      Base ? canaryWordOf(Base->image()) : uint64_t(0);
  Writer.writeVarU64(Image.miniheapCount());

  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    Writer.writeVarU64(Mini.SizeClassIndex);
    Writer.writeVarU64(Mini.ObjectSize);
    Writer.writeU64(Mini.BaseAddress);
    Writer.writeVarU64(Mini.CreationTime);
    Writer.writeVarU64(Mini.NumSlots);

    for (uint32_t S = 0; S < Mini.NumSlots;) {
      const ImageLocation Loc{M, S};
      uint64_t Word = 0;
      if (isVirginSlot(Image, Loc, Word)) {
        uint32_t Count = 1;
        uint64_t NextWord = 0;
        while (S + Count < Mini.NumSlots &&
               isVirginSlot(Image, ImageLocation{M, S + Count}, NextWord) &&
               NextWord == Word)
          ++Count;
        Writer.writeU8(VirginRunTag);
        Writer.writeVarU64(Count);
        Writer.writeU64(Word);
        S += Count;
        continue;
      }

      // Reference the base image's slot for this object id when the
      // metadata agrees — the dominant case across replicated dumps.
      const uint64_t ObjectId = Image.objectId(Loc);
      if (Base && ObjectId != 0) {
        if (const auto BaseLoc = Base->findById(ObjectId)) {
          if (metadataMatches(Image, Loc, Base->image(), *BaseLoc,
                              Mini.ObjectSize)) {
            if (runsEqualSubstituted(Base->image(), *BaseLoc, Image, Loc,
                                     BaseCanaryWord, CanaryWord)) {
              Writer.writeU8(SlotRefFullTag);
              Writer.writeVarU64(ObjectId);
            } else {
              // Heap-dependent bytes (pointers, layout-divergent fills):
              // ship the contents, still elide the metadata.
              Writer.writeU8(SlotRefMetaTag);
              Writer.writeVarU64(ObjectId);
              writeSlotContentsDelta(Writer, Image, Image.contents(Loc),
                                     CanaryWord);
            }
            ++S;
            continue;
          }
        }
      }

      const uint8_t Flags = Image.slotFlags(Loc);
      const bool HasMeta =
          Image.objectId(Loc) != 0 || Image.freeTime(Loc) != 0 ||
          Image.allocSite(Loc) != 0 || Image.freeSite(Loc) != 0 ||
          Image.requestedSize(Loc) != 0;
      Writer.writeU8(Flags | (HasMeta ? HasMetaBit : 0));
      if (HasMeta) {
        Writer.writeVarU64(Image.objectId(Loc));
        Writer.writeVarU64(Image.freeTime(Loc));
        Writer.writeVarU64(Sites.indexOf(Image.allocSite(Loc)));
        Writer.writeVarU64(Sites.indexOf(Image.freeSite(Loc)));
        Writer.writeVarU64(Image.requestedSize(Loc));
      }
      writeSlotContentsDelta(Writer, Image, Image.contents(Loc), CanaryWord);
      ++S;
    }
  }
}

/// Copies the base slot's contents runs into \p Image's current slot
/// under canary substitution, preserving run structure exactly (so a
/// decoded bundle re-encodes byte-identically).  False when the copy
/// would pass \p Budget.
static bool copyBaseContents(HeapImage &Image, const HeapImage &Base,
                             const ImageLocation &BaseLoc,
                             uint64_t BaseCanaryWord,
                             uint64_t MemberCanaryWord, BundleBudget &Budget) {
  const SlotContents Contents = Base.contents(BaseLoc);
  for (size_t R = 0; R < Contents.runCount(); ++R) {
    const ContentsRun &Run = Contents.run(R);
    if (!chargeContents(Budget, 1,
                        Run.RunKind == ContentsRun::Literal ? Run.Length : 0))
      return false;
    if (Run.RunKind == ContentsRun::Pattern)
      Image.addPatternRun(Run.Word == BaseCanaryWord ? MemberCanaryWord
                                                     : Run.Word,
                          Run.Length);
    else
      Image.addLiteralRun(Base.pool().data() + Run.PoolOffset, Run.Length);
  }
  return true;
}

/// Resolves a reference tag's object id against the base; false on a
/// corrupt reference (unknown id, size mismatch).
static bool resolveBaseRef(StreamReader &Reader, const HeapImageView &Base,
                           uint64_t ObjectSize, ImageLocation &BaseLocOut) {
  const uint64_t ObjectId = Reader.readVarU64();
  if (Reader.failed() || ObjectId == 0)
    return false;
  const auto BaseLoc = Base.findById(ObjectId);
  if (!BaseLoc || Base.image().miniheap(*BaseLoc).ObjectSize != ObjectSize)
    return false;
  BaseLocOut = *BaseLoc;
  return true;
}

bool exterminator::readDeltaImageBody(StreamReader &Reader, HeapImage &Image,
                                      const std::vector<SiteId> &SiteTable,
                                      const HeapImageView *Base,
                                      BundleBudget &Budget) {
  const uint64_t CanaryWord = canaryWordOf(Image);
  const uint64_t BaseCanaryWord =
      Base ? canaryWordOf(Base->image()) : uint64_t(0);
  const uint64_t NumMiniheaps = Reader.readVarU64();
  if (Reader.failed() || NumMiniheaps > MaxMiniheaps)
    return false;

  std::vector<uint8_t> Scratch;
  for (uint64_t M = 0; M < NumMiniheaps; ++M) {
    const uint64_t SizeClassIndex = Reader.readVarU64();
    const uint64_t ObjectSize = Reader.readVarU64();
    const uint64_t BaseAddress = Reader.readU64();
    const uint64_t CreationTime = Reader.readVarU64();
    const uint64_t NumSlots = Reader.readVarU64();
    if (Reader.failed() || NumSlots > MaxSlotsPerMiniheap ||
        NumSlots > Budget.Slots || ObjectSize == 0 ||
        ObjectSize > MaxObjectSizeBound || ObjectSize % 8 != 0)
      return false;
    Budget.Slots -= NumSlots;
    Image.beginMiniheap(static_cast<uint32_t>(SizeClassIndex), ObjectSize,
                        BaseAddress, CreationTime);
    Image.reserveSlots(std::min(NumSlots, ReserveCap));

    for (uint64_t S = 0; S < NumSlots;) {
      const uint8_t Tag = Reader.readU8();
      if (Reader.failed())
        return false;
      if (Tag == VirginRunTag) {
        const uint64_t Count = Reader.readVarU64();
        const uint64_t Word = Reader.readU64();
        // Non-wrapping form (see readSlotContentsDelta).
        if (Reader.failed() || Count == 0 || Count > NumSlots - S ||
            !chargeContents(Budget, Count, 0))
          return false;
        for (uint64_t I = 0; I < Count; ++I) {
          Image.addSlot(0, 0, 0, 0, 0, 0);
          Image.addPatternRun(Word, static_cast<uint32_t>(ObjectSize));
        }
        S += Count;
        continue;
      }
      if (Tag == SlotRefFullTag || Tag == SlotRefMetaTag) {
        if (!Base)
          return false; // The first image has no base to reference.
        ImageLocation BaseLoc;
        if (!resolveBaseRef(Reader, *Base, ObjectSize, BaseLoc))
          return false;
        const HeapImage &B = Base->image();
        Image.addSlot(B.slotFlags(BaseLoc), B.objectId(BaseLoc),
                      B.freeTime(BaseLoc), B.allocSite(BaseLoc),
                      B.freeSite(BaseLoc), B.requestedSize(BaseLoc));
        const bool Contents =
            Tag == SlotRefFullTag
                ? copyBaseContents(Image, B, BaseLoc, BaseCanaryWord,
                                   CanaryWord, Budget)
                : readSlotContentsDelta(Reader, Image, ObjectSize, CanaryWord,
                                        Scratch, Budget);
        if (!Contents)
          return false;
        ++S;
        continue;
      }
      if (Tag & ~(FlagsMask | HasMetaBit))
        return false;
      uint64_t ObjectId = 0, FreeTime = 0, RequestedSize = 0;
      SiteId AllocSite = 0, FreeSite = 0;
      if (Tag & HasMetaBit) {
        ObjectId = Reader.readVarU64();
        FreeTime = Reader.readVarU64();
        const uint64_t AllocIndex = Reader.readVarU64();
        const uint64_t FreeIndex = Reader.readVarU64();
        RequestedSize = Reader.readVarU64();
        if (Reader.failed() || AllocIndex >= SiteTable.size() ||
            FreeIndex >= SiteTable.size() || RequestedSize > ~uint32_t(0))
          return false;
        AllocSite = SiteTable[AllocIndex];
        FreeSite = SiteTable[FreeIndex];
      }
      Image.addSlot(Tag & FlagsMask, ObjectId, FreeTime, AllocSite,
                    FreeSite, static_cast<uint32_t>(RequestedSize));
      if (!readSlotContentsDelta(Reader, Image, ObjectSize, CanaryWord,
                                 Scratch, Budget))
        return false;
      ++S;
    }
  }
  return !Reader.failed();
}
