//===- heapimage/HeapImageIO.cpp - Heap image (de)serialization ------------===//

#include "heapimage/HeapImageIO.h"

#include "heapimage/ImageFormatDetail.h"

using namespace exterminator;
using namespace exterminator::imagedetail;

// Format magic: "XHI2" (columnar).
static constexpr uint32_t ImageMagicV2 = 0x58484932;

// The slot-record tag constants (VirginRunTag, HasMetaBit, FlagsMask)
// live in ImageFormatDetail.h since PR 10: the delta body codec shares
// them.

//===----------------------------------------------------------------------===//
// Shared v2 body codec (ImageFormatDetail.h) — used by this file's
// single-image format and by ImageBundle's multi-image format.
//===----------------------------------------------------------------------===//

void imagedetail::SiteDictionary::collect(const HeapImage &Image) {
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    for (uint32_t S = 0; S < Mini.NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      intern(Image.allocSite(Loc));
      intern(Image.freeSite(Loc));
    }
  }
}

void imagedetail::writeImageHeader(StreamWriter &Writer,
                                   const HeapImage &Image) {
  Writer.writeU64(Image.AllocationTime);
  Writer.writeU32(Image.CanaryValue);
  Writer.writeF64(Image.CanaryFillProbability);
  Writer.writeF64(Image.Multiplier);
  Writer.writeU64(Image.HeapSeed);
}

void imagedetail::readImageHeader(StreamReader &Reader, HeapImage &Image) {
  Image.AllocationTime = Reader.readU64();
  Image.CanaryValue = Reader.readU32();
  Image.CanaryFillProbability = Reader.readF64();
  Image.Multiplier = Reader.readF64();
  Image.HeapSeed = Reader.readU64();
}

void imagedetail::writeSiteTable(StreamWriter &Writer,
                                 const std::vector<SiteId> &Table) {
  Writer.writeVarU64(Table.size());
  for (SiteId Site : Table)
    Writer.writeU32(Site);
}

bool imagedetail::readSiteTable(StreamReader &Reader,
                                std::vector<SiteId> &TableOut) {
  const uint64_t NumSites = Reader.readVarU64();
  if (Reader.failed() || NumSites == 0 || NumSites > MaxSites)
    return false;
  TableOut.clear();
  TableOut.reserve(std::min(NumSites, ReserveCap));
  for (uint64_t I = 0; I < NumSites && !Reader.failed(); ++I)
    TableOut.push_back(Reader.readU32());
  return !Reader.failed();
}

/// True when slot \p Loc can join a virgin region run: never allocated,
/// no recorded history, and contents a single repeated word.
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

void imagedetail::writeSlotContents(StreamWriter &Writer,
                                    const HeapImage &Image,
                                    const SlotContents &Contents) {
  Writer.writeVarU64(Contents.runCount());
  for (size_t R = 0; R < Contents.runCount(); ++R) {
    const ContentsRun &Run = Contents.run(R);
    Writer.writeU8(Run.RunKind);
    Writer.writeVarU64(Run.Length);
    if (Run.RunKind == ContentsRun::Pattern)
      Writer.writeU64(Run.Word);
    else
      Writer.writeBytes(Image.pool().data() + Run.PoolOffset, Run.Length);
  }
}

void imagedetail::writeImageBody(StreamWriter &Writer, const HeapImage &Image,
                                 const SiteDictionary &Sites) {
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
        // Collapse the whole virgin region (same fill word) to one
        // record — the dominant population of an over-provisioned heap.
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
      writeSlotContents(Writer, Image, Image.contents(Loc));
      ++S;
    }
  }
}

bool imagedetail::readSlotContents(StreamReader &Reader, HeapImage &Image,
                                   uint64_t ObjectSize,
                                   std::vector<uint8_t> &Scratch) {
  const uint64_t RunCount = Reader.readVarU64();
  if (Reader.failed() || RunCount > ObjectSize / 8 + 1)
    return false;
  uint64_t Total = 0;
  for (uint64_t R = 0; R < RunCount; ++R) {
    const uint8_t Kind = Reader.readU8();
    const uint64_t Length = Reader.readVarU64();
    // Non-wrapping form: Total + Length could overflow on a corrupt
    // varint and slip past the bound into a huge allocation.
    if (Reader.failed() || Length == 0 || Length > ObjectSize - Total)
      return false;
    if (Kind == ContentsRun::Pattern) {
      if (Length % 8 != 0)
        return false;
      const uint64_t Word = Reader.readU64();
      if (Reader.failed())
        return false;
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

bool imagedetail::readImageBody(StreamReader &Reader, HeapImage &Image,
                                const std::vector<SiteId> &SiteTable,
                                uint64_t &SlotBudget) {
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
        NumSlots > SlotBudget || ObjectSize == 0 ||
        ObjectSize > MaxObjectSizeBound || ObjectSize % 8 != 0)
      return false;
    SlotBudget -= NumSlots;
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
        // Non-wrapping form (see readSlotContents).
        if (Reader.failed() || Count == 0 || Count > NumSlots - S)
          return false;
        for (uint64_t I = 0; I < Count; ++I) {
          Image.addSlot(0, 0, 0, 0, 0, 0);
          Image.addPatternRun(Word, static_cast<uint32_t>(ObjectSize));
        }
        S += Count;
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
      if (!readSlotContents(Reader, Image, ObjectSize, Scratch))
        return false;
      ++S;
    }
  }
  return !Reader.failed();
}

//===----------------------------------------------------------------------===//
// v2 serialization
//===----------------------------------------------------------------------===//

bool exterminator::serializeHeapImage(const HeapImage &Image,
                                      ByteSink &Sink) {
  StreamWriter Writer(Sink);
  Writer.writeU32(ImageMagicV2);
  Writer.writeU32(HeapImageFormatV2);
  writeImageHeader(Writer, Image);

  // Call-site dictionary: a handful of 32-bit site hashes account for
  // every slot, so slots store 1-byte dictionary indexes instead of
  // 5-byte varint hashes.  First-appearance order keeps the encoding
  // deterministic.
  SiteDictionary Sites;
  Sites.collect(Image);
  writeSiteTable(Writer, Sites.table());
  writeImageBody(Writer, Image, Sites);
  return !Writer.failed();
}

std::vector<uint8_t>
exterminator::serializeHeapImage(const HeapImage &Image) {
  std::vector<uint8_t> Buffer;
  VectorSink Sink(Buffer);
  serializeHeapImage(Image, Sink);
  return Buffer;
}

//===----------------------------------------------------------------------===//
// v2 deserialization
//===----------------------------------------------------------------------===//

static bool deserializeV2(StreamReader &Reader, HeapImage &Image) {
  if (Reader.readU32() != HeapImageFormatV2)
    return false;
  readImageHeader(Reader, Image);

  std::vector<SiteId> SiteTable;
  if (!readSiteTable(Reader, SiteTable))
    return false;
  uint64_t SlotBudget = MaxTotalSlots;
  return readImageBody(Reader, Image, SiteTable, SlotBudget);
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

bool exterminator::deserializeHeapImage(ByteSource &Source,
                                        HeapImage &ImageOut) {
  StreamReader Reader(Source);
  const uint32_t Magic = Reader.readU32();
  if (Reader.failed())
    return false;
  ImageOut = HeapImage();
  if (Magic != ImageMagicV2)
    return false;
  return deserializeV2(Reader, ImageOut);
}

bool exterminator::deserializeHeapImage(const std::vector<uint8_t> &Buffer,
                                        HeapImage &ImageOut) {
  MemorySource Source(Buffer);
  if (!deserializeHeapImage(Source, ImageOut))
    return false;
  return Source.remaining() == 0;
}

bool exterminator::saveHeapImage(const HeapImage &Image,
                                 const std::string &Path) {
  FileSink Sink(Path);
  if (!Sink.ok())
    return false;
  if (!serializeHeapImage(Image, Sink))
    return false;
  return Sink.close();
}

bool exterminator::loadHeapImage(const std::string &Path,
                                 HeapImage &ImageOut) {
  FileSource Source(Path);
  if (!Source.ok())
    return false;
  if (!deserializeHeapImage(Source, ImageOut))
    return false;
  return Source.exhausted();
}
