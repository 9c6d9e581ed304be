//===- heapimage/ImageFormatDetail.h - Shared v2 body codec ----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal building blocks shared by the two columnar formats: the
/// single-image v2 format (HeapImageIO) and the delta-encoded bundle
/// body (codec/DeltaCodec, the body of every "XIB1" bundle image).  Both
/// encode the same header fields, call-site table, miniheap descriptors,
/// virgin-region predicate and plain slot records; each keeps its own
/// slot loop and contents-run codec, so the single-image format never
/// writes or accepts the delta codec's reference tags or CanaryRun
/// records.  They differ in where the call-site dictionary lives — per
/// image for v2, one table across all images for a bundle (replicated
/// dumps share almost all sites, so the bundle amortizes the table).
///
/// Not installed API: only the format translation units (HeapImageIO,
/// ImageBundle) and the delta body codec (codec/DeltaCodec) include it.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_HEAPIMAGE_IMAGEFORMATDETAIL_H
#define EXTERMINATOR_HEAPIMAGE_IMAGEFORMATDETAIL_H

#include "heapimage/HeapImage.h"
#include "support/Serializer.h"

#include <unordered_map>
#include <vector>

namespace exterminator {
namespace imagedetail {

// Sanity bounds rejecting absurd values from corrupt headers before any
// allocation is sized from them.  Counts read from a header additionally
// never pre-size more than ReserveCap entries (see reserveSlots calls):
// a forged count with no data behind it then fails at the first record
// read instead of reserving gigabytes up front.
inline constexpr uint64_t MaxMiniheaps = uint64_t(1) << 24;
inline constexpr uint64_t MaxSlotsPerMiniheap = uint64_t(1) << 28;
inline constexpr uint64_t MaxObjectSizeBound = uint64_t(1) << 20;
inline constexpr uint64_t MaxSites = uint64_t(1) << 20;
inline constexpr uint64_t ReserveCap = uint64_t(1) << 16;
/// Virgin-region records amplify (a few bytes expand to Count slots), so
/// the decoded image's total slot count is capped as well — 16M slots is
/// an order of magnitude past any real capture.
inline constexpr uint64_t MaxTotalSlots = uint64_t(1) << 24;

/// Slot-record tag bytes.  A plain record's tag is flags|HasMetaBit with
/// the flags in the low three bits, so the high tag values are free for
/// markers: 0xff collapses a virgin region, and the delta body codec
/// (codec/DeltaCodec.h) claims 0xfe/0xfd for base-image references.
inline constexpr uint8_t VirginRunTag = 0xff;
inline constexpr uint8_t HasMetaBit = 0x80;
inline constexpr uint8_t FlagsMask =
    SlotFlagAllocated | SlotFlagBad | SlotFlagCanaried;

/// First-appearance-order call-site dictionary builder.  Index 0 is
/// always "no site", so the dominant metadata-free slots encode their
/// site references in one byte.
class SiteDictionary {
public:
  SiteDictionary() { intern(0); }

  uint64_t intern(SiteId Site) {
    auto [It, Inserted] = Index.emplace(Site, Table.size());
    if (Inserted)
      Table.push_back(Site);
    return It->second;
  }

  /// Interns every alloc/free site the image references.
  void collect(const HeapImage &Image);

  uint64_t indexOf(SiteId Site) const { return Index.at(Site); }
  const std::vector<SiteId> &table() const { return Table; }

private:
  std::vector<SiteId> Table;
  std::unordered_map<SiteId, uint64_t> Index;
};

/// Writes the per-image scalar header fields (allocation time, canary,
/// p, M, seed) — everything that differs between replicated dumps.
void writeImageHeader(ByteWriter &Writer, const HeapImage &Image);

/// Reads the scalar header fields written by writeImageHeader.
void readImageHeader(ByteReader &Reader, HeapImage &Image);

/// Writes the dictionary's site table (varint count + 32-bit hashes).
void writeSiteTable(ByteWriter &Writer, const std::vector<SiteId> &Table);

/// Reads a site table; returns false on a malformed or oversized one.
bool readSiteTable(ByteReader &Reader, std::vector<SiteId> &TableOut);

/// Writes miniheap \p M's descriptor: size class, object size, base
/// address, creation time and slot count.
void writeMiniheapDescriptor(ByteWriter &Writer, const HeapImage &Image,
                             uint32_t M);

/// Reads a miniheap descriptor and begins that miniheap in \p Image.
/// Returns false on an out-of-bounds object size or slot count,
/// including more slots than \p SlotBudget, which is decremented by the
/// slots the miniheap declares — virgin-run records amplify (a dozen
/// bytes expand to Count decoded slots), so the budget is what keeps a
/// tiny forged body from materializing gigabytes of columns.
bool readMiniheapDescriptor(ByteReader &Reader, HeapImage &Image,
                            uint64_t &SlotBudget, uint64_t &ObjectSizeOut,
                            uint64_t &NumSlotsOut);

/// True when slot \p Loc can join a virgin region run: never allocated,
/// no recorded history, and contents a single repeated word (returned
/// in \p WordOut).
bool isVirginSlot(const HeapImage &Image, const ImageLocation &Loc,
                  uint64_t &WordOut);

/// Writes a plain slot record's tag (flags, HasMetaBit when any
/// metadata is set) and varint metadata, site references as indexes
/// into \p Sites.  The slot's contents runs follow, in the writing
/// codec's own run encoding.
void writePlainSlotRecord(ByteWriter &Writer, const HeapImage &Image,
                          const ImageLocation &Loc,
                          const SiteDictionary &Sites);

/// Reads the metadata of a plain slot record whose tag byte \p Tag was
/// already consumed, and appends the slot to \p Image, resolving site
/// indexes through \p SiteTable.  Returns false on unknown tag bits,
/// out-of-range dictionary references or oversized requested sizes.
bool readPlainSlotRecord(ByteReader &Reader, uint8_t Tag, HeapImage &Image,
                         const std::vector<SiteId> &SiteTable);

} // namespace imagedetail
} // namespace exterminator

#endif // EXTERMINATOR_HEAPIMAGE_IMAGEFORMATDETAIL_H
