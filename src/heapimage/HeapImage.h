//===- heapimage/HeapImage.h - Heap image dumps ----------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heap images (§3.4): when DieFast signals an error, the voter detects
/// divergence, or the program crashes, Exterminator dumps the complete
/// state of the heap — "akin to a core dump, but contains less data (e.g.,
/// no code), and is organized to simplify processing".
///
/// Format v2 stores an image *columnar* (structure-of-arrays): one flat
/// array per metadata field across every slot of every miniheap, plus a
/// run-length-encoded contents pool.  Slot contents are encoded as runs —
/// either literal bytes in a shared pool or a repeated 64-bit word — which
/// collapses the two dominant slot populations of a DieHard heap (virgin
/// all-zero slots and canary-filled freed slots) to a few bytes each.
/// The §5 complaint that images run "tens or hundreds of megabytes" is
/// what this layout attacks: metadata scans touch only the columns they
/// need, and contents whose pattern is known never get materialized.
///
/// HeapImageView layers the two lookups the error isolator lives on over
/// an image without copying it: object-id → location (ids identify the
/// same logical object across differently-randomized heaps) and
/// address → location (pointer identification, §4.1).  Isolators consume
/// views; SlotContents hands them canary scans and byte access directly
/// over the run encoding.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_HEAPIMAGE_HEAPIMAGE_H
#define EXTERMINATOR_HEAPIMAGE_HEAPIMAGE_H

#include "support/FlatU64Map.h"
#include "support/SiteHash.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace exterminator {

class DieFastHeap;
class Canary;
class Miniheap;
struct CorruptionExtent;

/// Per-slot state bits (the Flags column).
enum : uint8_t {
  SlotFlagAllocated = 1,
  SlotFlagBad = 2,
  SlotFlagCanaried = 4,
};

/// One miniheap's descriptor within an image.  Slot columns for this
/// miniheap occupy global indexes [FirstSlot, FirstSlot + NumSlots).
struct ImageMiniheapInfo {
  uint32_t SizeClassIndex = 0;
  uint64_t ObjectSize = 0;
  /// Slab base address in the dumping process.  Addresses are only
  /// meaningful within one image; cross-image identity uses object ids.
  uint64_t BaseAddress = 0;
  uint64_t CreationTime = 0;
  uint64_t FirstSlot = 0;
  uint64_t NumSlots = 0;

  uint64_t slotAddress(size_t Slot) const {
    return BaseAddress + Slot * ObjectSize;
  }
  uint64_t endAddress() const { return BaseAddress + NumSlots * ObjectSize; }

  bool operator==(const ImageMiniheapInfo &Other) const = default;
};

/// One run of a slot's contents: either Length literal bytes in the
/// image's pool, or a 64-bit word repeated Length/8 times.  Runs are
/// 8-byte aligned within the slot (object sizes are powers of two ≥ 8),
/// so canary phase is preserved.
struct ContentsRun {
  enum Kind : uint8_t { Literal = 0, Pattern = 1 };

  uint32_t Length = 0;
  /// Literal runs: offset of the bytes in the pool.
  uint32_t PoolOffset = 0;
  /// Pattern runs: the repeated word.
  uint64_t Word = 0;
  uint8_t RunKind = Literal;

  bool operator==(const ContentsRun &Other) const = default;
};

/// Locates a slot within an image.
struct ImageLocation {
  uint32_t MiniheapIndex = 0;
  uint32_t SlotIndex = 0;

  bool operator==(const ImageLocation &Other) const = default;
};

class HeapImage;

/// Read access to one slot's contents over the run encoding.
class SlotContents {
public:
  size_t size() const { return Size; }
  size_t runCount() const { return NumRuns; }
  const ContentsRun &run(size_t I) const;

  /// Byte at offset \p I (decodes through the run table).
  uint8_t operator[](size_t I) const;

  /// A pointer to the full contents: zero-copy when the slot is a single
  /// literal run, otherwise decoded into \p Scratch.
  const uint8_t *bytes(std::vector<uint8_t> &Scratch) const;

  /// Decodes the full contents into \p Out (must hold size() bytes).
  void decodeTo(uint8_t *Out) const;
  std::vector<uint8_t> decode() const;

  /// The smallest byte range whose bytes differ from \p HeapCanary's
  /// fill pattern, computed run-aware: pattern runs are checked in O(1)
  /// and literal runs byte-wise.  std::nullopt when the pattern is
  /// intact.
  std::optional<CorruptionExtent> findCorruption(const Canary &HeapCanary) const;

  /// Byte equality with another slot's contents without full decode.
  bool equals(const SlotContents &Other) const;

private:
  friend class HeapImage;
  SlotContents(const HeapImage &Image, uint64_t GlobalSlot);

  const HeapImage *Image;
  uint32_t FirstRun;
  uint32_t NumRuns;
  uint64_t Size;
};

/// A complete heap image (format v2, columnar).
class HeapImage {
public:
  /// Allocation clock at dump time ("the current allocation time,
  /// measured by the number of allocations to date").
  uint64_t AllocationTime = 0;
  /// The dumping heap's random canary value.
  uint32_t CanaryValue = 0;
  /// Canary fill probability p in effect (1.0 outside cumulative mode).
  double CanaryFillProbability = 1.0;
  /// Heap multiplier M.
  double Multiplier = 2.0;
  /// Seed of the dumping heap, recorded for reproducibility reports.
  uint64_t HeapSeed = 0;

  //===--------------------------------------------------------------------===//
  // Shape
  //===--------------------------------------------------------------------===//

  size_t miniheapCount() const { return Miniheaps.size(); }
  const ImageMiniheapInfo &miniheapInfo(uint32_t M) const {
    return Miniheaps[M];
  }
  const ImageMiniheapInfo &miniheap(const ImageLocation &Loc) const {
    return Miniheaps[Loc.MiniheapIndex];
  }
  const std::vector<ImageMiniheapInfo> &miniheaps() const { return Miniheaps; }

  /// Total number of object slots across all miniheaps.
  size_t totalSlots() const { return Flags.size(); }

  /// Number of slots holding objects (live or freed-with-history).
  size_t objectCount() const;

  uint64_t slotAddress(const ImageLocation &Loc) const {
    return Miniheaps[Loc.MiniheapIndex].slotAddress(Loc.SlotIndex);
  }

  uint64_t globalSlot(const ImageLocation &Loc) const {
    assert(Loc.SlotIndex < Miniheaps[Loc.MiniheapIndex].NumSlots);
    return Miniheaps[Loc.MiniheapIndex].FirstSlot + Loc.SlotIndex;
  }

  //===--------------------------------------------------------------------===//
  // Columnar slot accessors
  //===--------------------------------------------------------------------===//

  uint8_t slotFlags(const ImageLocation &Loc) const {
    return Flags[globalSlot(Loc)];
  }
  bool isAllocated(const ImageLocation &Loc) const {
    return slotFlags(Loc) & SlotFlagAllocated;
  }
  bool isBad(const ImageLocation &Loc) const {
    return slotFlags(Loc) & SlotFlagBad;
  }
  bool isCanaried(const ImageLocation &Loc) const {
    return slotFlags(Loc) & SlotFlagCanaried;
  }
  /// The object is the ObjectId'th allocation from its heap; 0 = the slot
  /// has never held an object.  Object ids are drawn from the allocation
  /// clock, so the id doubles as the allocation time (the collapsed
  /// ObjectId/AllocTime pair).
  uint64_t objectId(const ImageLocation &Loc) const {
    return ObjectIds[globalSlot(Loc)];
  }
  uint64_t allocTime(const ImageLocation &Loc) const {
    return ObjectIds[globalSlot(Loc)];
  }
  uint64_t freeTime(const ImageLocation &Loc) const {
    return FreeTimes[globalSlot(Loc)];
  }
  SiteId allocSite(const ImageLocation &Loc) const {
    return AllocSites[globalSlot(Loc)];
  }
  SiteId freeSite(const ImageLocation &Loc) const {
    return FreeSites[globalSlot(Loc)];
  }
  uint32_t requestedSize(const ImageLocation &Loc) const {
    return RequestedSizes[globalSlot(Loc)];
  }
  SlotContents contents(const ImageLocation &Loc) const {
    return SlotContents(*this, globalSlot(Loc));
  }

  // Global-index variants for whole-image column sweeps.
  uint8_t slotFlagsAt(uint64_t G) const { return Flags[G]; }
  uint64_t objectIdAt(uint64_t G) const { return ObjectIds[G]; }
  SlotContents contentsAt(uint64_t G) const { return SlotContents(*this, G); }

  // Raw column access for the evidence sweeps: isolators iterate
  // these directly instead of taking the per-slot accessor chain
  // (ImageLocation -> globalSlot -> column) for every slot.
  const std::vector<uint8_t> &flagsColumn() const { return Flags; }
  const std::vector<uint64_t> &objectIdColumn() const { return ObjectIds; }
  const std::vector<uint64_t> &freeTimeColumn() const { return FreeTimes; }
  const std::vector<SiteId> &allocSiteColumn() const { return AllocSites; }
  const std::vector<SiteId> &freeSiteColumn() const { return FreeSites; }
  const std::vector<uint32_t> &requestedSizeColumn() const {
    return RequestedSizes;
  }

  //===--------------------------------------------------------------------===//
  // Construction (capture and deserialization)
  //===--------------------------------------------------------------------===//

  /// Starts a new miniheap; subsequent addSlot calls belong to it until
  /// the next beginMiniheap.  Returns its index.
  uint32_t beginMiniheap(uint32_t SizeClassIndex, uint64_t ObjectSize,
                         uint64_t BaseAddress, uint64_t CreationTime);

  /// Appends one slot's metadata; contents runs added afterwards apply to
  /// this slot.
  void addSlot(uint8_t SlotFlags, uint64_t ObjectId, uint64_t FreeTime,
               SiteId AllocSite, SiteId FreeSite, uint32_t RequestedSize);

  /// Appends a literal contents run for the current slot.
  void addLiteralRun(const uint8_t *Data, size_t Size);

  /// Appends a repeated-word contents run for the current slot
  /// (\p Length must be a multiple of 8).
  void addPatternRun(uint64_t Word, uint32_t Length);

  /// Encodes \p Size raw bytes into runs for the current slot: the
  /// canonical encoder capture uses.  A pattern run starts wherever two
  /// adjacent words first match and runs while they repeat; a slot that
  /// is one repeated word is a single pattern run.  \p Size must be a
  /// nonzero multiple of 8 (object sizes are powers of two >= 8, and both
  /// image decoders require it).
  void addSlotBytes(const uint8_t *Data, size_t Size);

  /// Reserves column capacity for \p Slots upcoming slots.
  void reserveSlots(size_t Slots);

  /// Bulk capture of every slot of \p Mini into the current miniheap
  /// (which must just have been begun): columns are resized once and
  /// filled through raw pointers, skipping the per-slot push_back
  /// capacity checks that dominate small-slot captures.  Produces
  /// exactly what addSlot + addSlotBytes per slot produce.
  void captureSlotsBulk(const Miniheap &Mini);

  //===--------------------------------------------------------------------===//
  // Raw access for serialization
  //===--------------------------------------------------------------------===//

  const std::vector<ContentsRun> &runs() const { return Runs; }
  const std::vector<uint8_t> &pool() const { return Pool; }
  uint32_t slotFirstRun(uint64_t G) const { return RunBegin[G]; }
  uint32_t slotRunEnd(uint64_t G) const {
    return G + 1 < RunBegin.size() ? RunBegin[G + 1]
                                   : static_cast<uint32_t>(Runs.size());
  }

  bool operator==(const HeapImage &Other) const;

private:
  friend class SlotContents;

  std::vector<ImageMiniheapInfo> Miniheaps;

  // One entry per slot, all miniheaps concatenated.
  std::vector<uint8_t> Flags;
  std::vector<uint64_t> ObjectIds; // == allocation time (see objectId())
  std::vector<uint64_t> FreeTimes;
  std::vector<SiteId> AllocSites;
  std::vector<SiteId> FreeSites;
  std::vector<uint32_t> RequestedSizes;

  // Contents: per-slot first-run index into Runs; literal bytes in Pool.
  std::vector<uint32_t> RunBegin;
  std::vector<ContentsRun> Runs;
  std::vector<uint8_t> Pool;
};

/// Captures a heap image from a live DieFast heap, miniheap by miniheap
/// on the calling thread.  The capture is pinned to golden digests by
/// tests/evidence_test.cpp.
HeapImage captureHeapImage(const DieFastHeap &Heap);

/// Zero-copy read interface over one image: columnar accessors plus the
/// id and address indexes isolation needs.  Replaces both the old
/// materialized ImageSlot vectors and the standalone ImageIndex.
class HeapImageView {
public:
  explicit HeapImageView(const HeapImage &Image);

  /// Finds the slot currently associated with \p ObjectId (the id of its
  /// last — possibly still live — owner).
  std::optional<ImageLocation> findById(uint64_t ObjectId) const;

  /// Finds the slot containing address \p Address, with the byte offset
  /// into the slot.
  std::optional<std::pair<ImageLocation, uint64_t>>
  locateAddress(uint64_t Address) const;

  const HeapImage &image() const { return Image; }
  const HeapImage *operator->() const { return &Image; }

private:
  const HeapImage &Image;
  /// Flat open-addressing id index (one probe per lookup).
  FlatU64Map<ImageLocation> ById;
  /// Miniheap index sorted by base address for binary search.
  std::vector<uint32_t> ByAddress;
};

/// Builds one view per image (the isolators' input; views keep references
/// into \p Images, which must outlive them).
std::vector<HeapImageView> makeViews(const std::vector<HeapImage> &Images);

} // namespace exterminator

#endif // EXTERMINATOR_HEAPIMAGE_HEAPIMAGE_H
