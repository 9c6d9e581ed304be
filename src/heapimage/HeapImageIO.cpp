//===- heapimage/HeapImageIO.cpp - Heap image (de)serialization ------------===//

#include "heapimage/HeapImageIO.h"

#include "heapimage/ImageFormatDetail.h"

#include <algorithm>

using namespace exterminator;
using namespace exterminator::imagedetail;

// Format magic: "XHI2" (columnar).
static constexpr uint32_t ImageMagicV2 = 0x58484932;

//===----------------------------------------------------------------------===//
// Shared building blocks (ImageFormatDetail.h) — used by this file's
// single-image format and by the delta body of every bundle image.
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

void imagedetail::writeImageHeader(ByteWriter &Writer,
                                   const HeapImage &Image) {
  Writer.writeU64(Image.AllocationTime);
  Writer.writeU32(Image.CanaryValue);
  Writer.writeF64(Image.CanaryFillProbability);
  Writer.writeF64(Image.Multiplier);
  Writer.writeU64(Image.HeapSeed);
}

void imagedetail::readImageHeader(ByteReader &Reader, HeapImage &Image) {
  Image.AllocationTime = Reader.readU64();
  Image.CanaryValue = Reader.readU32();
  Image.CanaryFillProbability = Reader.readF64();
  Image.Multiplier = Reader.readF64();
  Image.HeapSeed = Reader.readU64();
}

void imagedetail::writeSiteTable(ByteWriter &Writer,
                                 const std::vector<SiteId> &Table) {
  Writer.writeVarU64(Table.size());
  for (SiteId Site : Table)
    Writer.writeU32(Site);
}

bool imagedetail::readSiteTable(ByteReader &Reader,
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

void imagedetail::writeMiniheapDescriptor(ByteWriter &Writer,
                                          const HeapImage &Image,
                                          uint32_t M) {
  const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
  Writer.writeVarU64(Mini.SizeClassIndex);
  Writer.writeVarU64(Mini.ObjectSize);
  Writer.writeU64(Mini.BaseAddress);
  Writer.writeVarU64(Mini.CreationTime);
  Writer.writeVarU64(Mini.NumSlots);
}

bool imagedetail::readMiniheapDescriptor(ByteReader &Reader,
                                         HeapImage &Image,
                                         uint64_t &SlotBudget,
                                         uint64_t &ObjectSizeOut,
                                         uint64_t &NumSlotsOut) {
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
  ObjectSizeOut = ObjectSize;
  NumSlotsOut = NumSlots;
  return true;
}

bool imagedetail::isVirginSlot(const HeapImage &Image,
                               const ImageLocation &Loc, uint64_t &WordOut) {
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

void imagedetail::writePlainSlotRecord(ByteWriter &Writer,
                                       const HeapImage &Image,
                                       const ImageLocation &Loc,
                                       const SiteDictionary &Sites) {
  const bool HasMeta =
      Image.objectId(Loc) != 0 || Image.freeTime(Loc) != 0 ||
      Image.allocSite(Loc) != 0 || Image.freeSite(Loc) != 0 ||
      Image.requestedSize(Loc) != 0;
  Writer.writeU8(Image.slotFlags(Loc) | (HasMeta ? HasMetaBit : 0));
  if (!HasMeta)
    return;
  Writer.writeVarU64(Image.objectId(Loc));
  Writer.writeVarU64(Image.freeTime(Loc));
  Writer.writeVarU64(Sites.indexOf(Image.allocSite(Loc)));
  Writer.writeVarU64(Sites.indexOf(Image.freeSite(Loc)));
  Writer.writeVarU64(Image.requestedSize(Loc));
}

bool imagedetail::readPlainSlotRecord(ByteReader &Reader, uint8_t Tag,
                                      HeapImage &Image,
                                      const std::vector<SiteId> &SiteTable) {
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
  Image.addSlot(Tag & FlagsMask, ObjectId, FreeTime, AllocSite, FreeSite,
                static_cast<uint32_t>(RequestedSize));
  return true;
}

//===----------------------------------------------------------------------===//
// v2 body
//===----------------------------------------------------------------------===//

/// Writes one slot's contents as run records (varint run count, then per
/// run: kind byte, varint length, repeated word or literal bytes).
static void writeSlotContents(ByteWriter &Writer, const HeapImage &Image,
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

/// Writes the image body: miniheap count, then per-miniheap descriptors
/// and slot records (virgin regions collapsed, metadata varint-packed,
/// contents run-encoded).
static void writeImageBody(ByteWriter &Writer, const HeapImage &Image,
                           const SiteDictionary &Sites) {
  Writer.writeVarU64(Image.miniheapCount());

  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    writeMiniheapDescriptor(Writer, Image, M);
    const uint32_t NumSlots = Image.miniheapInfo(M).NumSlots;
    for (uint32_t S = 0; S < NumSlots;) {
      const ImageLocation Loc{M, S};
      uint64_t Word = 0;
      if (isVirginSlot(Image, Loc, Word)) {
        // Collapse the whole virgin region (same fill word) to one
        // record — the dominant population of an over-provisioned heap.
        uint32_t Count = 1;
        uint64_t NextWord = 0;
        while (S + Count < NumSlots &&
               isVirginSlot(Image, ImageLocation{M, S + Count}, NextWord) &&
               NextWord == Word)
          ++Count;
        Writer.writeU8(VirginRunTag);
        Writer.writeVarU64(Count);
        Writer.writeU64(Word);
        S += Count;
        continue;
      }
      writePlainSlotRecord(Writer, Image, Loc, Sites);
      writeSlotContents(Writer, Image, Image.contents(Loc));
      ++S;
    }
  }
}

/// Reads one slot's contents runs into the current slot of \p Image;
/// the total decoded length must be exactly \p ObjectSize.
static bool readSlotContents(ByteReader &Reader, HeapImage &Image,
                             uint64_t ObjectSize) {
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
      const uint8_t *Bytes = Reader.readSpan(Length);
      if (Reader.failed())
        return false;
      Image.addLiteralRun(Bytes, Length);
    } else {
      return false;
    }
    Total += Length;
  }
  return Total == ObjectSize;
}

/// Reads an image body, resolving site indexes through \p SiteTable;
/// false on malformed input.  Decodes at most MaxTotalSlots slots.
static bool readImageBody(ByteReader &Reader, HeapImage &Image,
                          const std::vector<SiteId> &SiteTable) {
  const uint64_t NumMiniheaps = Reader.readVarU64();
  if (Reader.failed() || NumMiniheaps > MaxMiniheaps)
    return false;

  uint64_t SlotBudget = MaxTotalSlots;
  for (uint64_t M = 0; M < NumMiniheaps; ++M) {
    uint64_t ObjectSize = 0, NumSlots = 0;
    if (!readMiniheapDescriptor(Reader, Image, SlotBudget, ObjectSize,
                                NumSlots))
      return false;
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
      if (!readPlainSlotRecord(Reader, Tag, Image, SiteTable) ||
          !readSlotContents(Reader, Image, ObjectSize))
        return false;
      ++S;
    }
  }
  return !Reader.failed();
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

void exterminator::serializeHeapImage(const HeapImage &Image,
                                      ByteWriter &Writer) {
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
}

std::vector<uint8_t>
exterminator::serializeHeapImage(const HeapImage &Image) {
  ByteWriter Writer;
  serializeHeapImage(Image, Writer);
  return Writer.take();
}

bool exterminator::deserializeHeapImage(ByteReader &Reader,
                                        HeapImage &ImageOut) {
  const uint32_t Magic = Reader.readU32();
  if (Reader.failed())
    return false;
  ImageOut = HeapImage();
  if (Magic != ImageMagicV2 || Reader.readU32() != HeapImageFormatV2)
    return false;
  readImageHeader(Reader, ImageOut);
  std::vector<SiteId> SiteTable;
  return readSiteTable(Reader, SiteTable) &&
         readImageBody(Reader, ImageOut, SiteTable);
}

bool exterminator::deserializeHeapImage(const std::vector<uint8_t> &Buffer,
                                        HeapImage &ImageOut) {
  ByteReader Reader(Buffer);
  return deserializeHeapImage(Reader, ImageOut) && Reader.atEnd();
}

bool exterminator::saveHeapImage(const HeapImage &Image,
                                 const std::string &Path) {
  return writeFileBytes(Path, serializeHeapImage(Image));
}

bool exterminator::loadHeapImage(const std::string &Path,
                                 HeapImage &ImageOut) {
  std::vector<uint8_t> Bytes;
  return readFileBytes(Path, Bytes) && deserializeHeapImage(Bytes, ImageOut);
}
