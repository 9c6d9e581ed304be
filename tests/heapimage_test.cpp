//===- tests/heapimage_test.cpp - Heap image tests ----------------------------===//
//
// Covers the columnar format-v2 heap image: capture, run-encoded
// contents, the HeapImageView lookups, v2 round-trips, refusal of the
// removed v1 layout and of malformed input, and the image-size reduction
// the columnar layout exists for.
//
//===----------------------------------------------------------------------===//

#include "heapimage/HeapImageIO.h"

#include "heapimage/ImageBundle.h"
#include "support/Serializer.h"

#include "diefast/DieFastHeap.h"
#include "runtime/Exterminator.h"
#include "workload/EspressoWorkload.h"
#include "workload/SquidWorkload.h"
#include "workload/TraceWorkload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace exterminator;

namespace {

DieFastConfig testConfig(uint64_t Seed = 1) {
  DieFastConfig Config;
  Config.Heap.Seed = Seed;
  Config.Heap.InitialSlots = 16;
  return Config;
}

/// A small heap with live, freed-canaried, and dirty objects.
struct Fixture {
  DieFastHeap Heap;
  uint8_t *Live = nullptr;
  uint8_t *Freed = nullptr;
  uint64_t LiveId = 0;
  uint64_t FreedId = 0;

  explicit Fixture(uint64_t Seed = 5) : Heap(testConfig(Seed)) {
    Live = static_cast<uint8_t *>(Heap.allocate(48));
    std::memset(Live, 0x11, 48);
    Freed = static_cast<uint8_t *>(Heap.allocate(64));
    LiveId = Heap.heap().objectMetadata(*Heap.heap().findObject(Live)).ObjectId;
    FreedId =
        Heap.heap().objectMetadata(*Heap.heap().findObject(Freed)).ObjectId;
    Heap.allocate(32);
    Heap.deallocate(Freed);
  }
};

/// A bigger randomized image: scripted churn with varied writes.
HeapImage randomizedImage(uint64_t HeapSeed) {
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < 40; ++I) {
    Ops.push_back(TraceOp::alloc(I, 16 + (I % 5) * 24, 0x100 + I % 7));
    Ops.push_back(
        TraceOp::write(I, 0, 8 + (I % 3) * 8, static_cast<uint8_t>(I)));
  }
  for (uint32_t I = 0; I < 40; I += 3)
    Ops.push_back(TraceOp::free(I, 0x300));
  for (uint32_t I = 100; I < 130; ++I)
    Ops.push_back(TraceOp::alloc(I, 64, 0x200));
  TraceWorkload Work(Ops);
  ExterminatorConfig Config;
  return runWorkloadOnce(Work, 1, HeapSeed, Config, PatchSet()).FinalImage;
}

} // namespace

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

TEST(HeapImage, CaptureRecordsClockAndCanary) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  EXPECT_EQ(Image.AllocationTime, 3u);
  EXPECT_EQ(Image.CanaryValue, F.Heap.canary().value());
  EXPECT_DOUBLE_EQ(Image.CanaryFillProbability, 1.0);
  EXPECT_DOUBLE_EQ(Image.Multiplier, 2.0);
}

TEST(HeapImage, CaptureReflectsSlotStates) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);

  auto LiveLoc = View.findById(F.LiveId);
  ASSERT_TRUE(LiveLoc.has_value());
  EXPECT_TRUE(Image.isAllocated(*LiveLoc));
  EXPECT_FALSE(Image.isCanaried(*LiveLoc));
  EXPECT_EQ(Image.requestedSize(*LiveLoc), 48u);
  EXPECT_EQ(Image.contents(*LiveLoc)[0], 0x11);

  auto FreedLoc = View.findById(F.FreedId);
  ASSERT_TRUE(FreedLoc.has_value());
  EXPECT_FALSE(Image.isAllocated(*FreedLoc));
  EXPECT_TRUE(Image.isCanaried(*FreedLoc));
  EXPECT_EQ(Image.freeTime(*FreedLoc), 3u);
}

TEST(HeapImage, CapturedContentsMatchMemory) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);
  auto Loc = View.findById(F.LiveId);
  ASSERT_TRUE(Loc.has_value());
  const std::vector<uint8_t> Bytes = Image.contents(*Loc).decode();
  EXPECT_EQ(std::memcmp(Bytes.data(), F.Live, Bytes.size()), 0);
}

TEST(HeapImage, ObjectAndSlotCounts) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  EXPECT_EQ(Image.objectCount(), 3u); // live + freed + third
  EXPECT_GT(Image.totalSlots(), 3u);  // over-provisioned heap
}

TEST(HeapImage, ObjectIdDoublesAsAllocTime) {
  // The collapsed ObjectId/AllocTime pair: ids are drawn from the
  // allocation clock.
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);
  auto Loc = View.findById(F.LiveId);
  ASSERT_TRUE(Loc.has_value());
  EXPECT_EQ(Image.allocTime(*Loc), Image.objectId(*Loc));
  EXPECT_EQ(Image.allocTime(*Loc), F.LiveId);
}

//===----------------------------------------------------------------------===//
// Run encoding
//===----------------------------------------------------------------------===//

TEST(HeapImage, VirginSlotsEncodeAsSinglePatternRun) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  bool SawVirgin = false;
  for (uint32_t M = 0; M < Image.miniheapCount() && !SawVirgin; ++M)
    for (uint32_t S = 0; S < Image.miniheapInfo(M).NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      if (Image.objectId(Loc) != 0 || Image.slotFlags(Loc) != 0)
        continue;
      SawVirgin = true;
      const SlotContents Contents = Image.contents(Loc);
      ASSERT_EQ(Contents.runCount(), 1u);
      EXPECT_EQ(Contents.run(0).RunKind, ContentsRun::Pattern);
      EXPECT_EQ(Contents.run(0).Word, 0u);
      break;
    }
  EXPECT_TRUE(SawVirgin);
}

TEST(HeapImage, CanariedSlotsEncodeAsPatternRun) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);
  auto Loc = View.findById(F.FreedId);
  ASSERT_TRUE(Loc.has_value());
  const SlotContents Contents = Image.contents(*Loc);
  // A freshly canary-filled 64-byte slot is one repeated-word run, and
  // the canary scan over it reports an intact pattern.
  ASSERT_EQ(Contents.runCount(), 1u);
  EXPECT_EQ(Contents.run(0).RunKind, ContentsRun::Pattern);
  EXPECT_FALSE(
      Contents.findCorruption(Canary::fromValue(Image.CanaryValue)));
}

TEST(HeapImage, RunDecodeMatchesLiveMemory) {
  // Every slot's decoded contents must equal the slab bytes, whatever
  // mix of literal and pattern runs the encoder chose.
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  size_t Checked = 0;
  uint32_t ImageM = 0;
  F.Heap.heap().forEachMiniheap([&](unsigned, unsigned,
                                    const Miniheap &Mini) {
    for (uint32_t S = 0; S < Mini.numSlots(); ++S) {
      const std::vector<uint8_t> Decoded =
          Image.contents(ImageLocation{ImageM, S}).decode();
      ASSERT_EQ(Decoded.size(), Mini.objectSize());
      EXPECT_EQ(std::memcmp(Decoded.data(), Mini.slotPointer(S),
                            Decoded.size()),
                0);
      ++Checked;
    }
    ++ImageM;
  });
  EXPECT_EQ(Checked, Image.totalSlots());
}

TEST(HeapImage, CorruptedCanaryFoundThroughRuns) {
  DieFastHeap Heap(testConfig(17));
  uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(64));
  Heap.deallocate(Ptr); // canary fill
  Ptr[10] = 0x5a;       // corrupt one byte mid-slot
  Ptr[11] = 0x5b;
  const HeapImage Image = captureHeapImage(Heap);
  const HeapImageView View(Image);
  auto Located = View.locateAddress(reinterpret_cast<uint64_t>(Ptr));
  ASSERT_TRUE(Located.has_value());
  const std::optional<CorruptionExtent> Extent =
      Image.contents(Located->first)
          .findCorruption(Canary::fromValue(Image.CanaryValue));
  ASSERT_TRUE(Extent.has_value());
  EXPECT_LE(Extent->Begin, 10u);
  EXPECT_GE(Extent->End, 12u);
}

//===----------------------------------------------------------------------===//
// View lookups
//===----------------------------------------------------------------------===//

TEST(HeapImageView, LocateAddressMapsInteriorBytes) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);
  const uint64_t Addr = reinterpret_cast<uint64_t>(F.Live) + 17;
  auto Located = View.locateAddress(Addr);
  ASSERT_TRUE(Located.has_value());
  EXPECT_EQ(Image.objectId(Located->first), F.LiveId);
  EXPECT_EQ(Located->second, 17u);
}

TEST(HeapImageView, LocateAddressRejectsOutsideHeap) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);
  EXPECT_FALSE(View.locateAddress(0x10).has_value());
  EXPECT_FALSE(View.locateAddress(~uint64_t(0) - 64).has_value());
}

TEST(HeapImageView, FindByIdMissesUnknownIds) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const HeapImageView View(Image);
  EXPECT_FALSE(View.findById(999).has_value());
  EXPECT_FALSE(View.findById(0).has_value());
}

//===----------------------------------------------------------------------===//
// v2 round-trips
//===----------------------------------------------------------------------===//

TEST(HeapImageIO, V2SerializeDeserializeRoundTrip) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const std::vector<uint8_t> Bytes = serializeHeapImage(Image);
  HeapImage Back;
  ASSERT_TRUE(deserializeHeapImage(Bytes, Back));
  EXPECT_TRUE(Back == Image);
}

TEST(HeapImageIO, V2RoundTripOnRandomizedImages) {
  for (uint64_t Seed : {7u, 1234u, 99999u}) {
    const HeapImage Image = randomizedImage(Seed);
    HeapImage Back;
    ASSERT_TRUE(deserializeHeapImage(serializeHeapImage(Image), Back))
        << "seed " << Seed;
    EXPECT_TRUE(Back == Image) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// The removed v1 layout
//===----------------------------------------------------------------------===//

namespace {

/// Encodes \p Image in the original array-of-structs "XHI1" layout,
/// which readers no longer accept: a 48-byte header, 36 bytes per
/// miniheap, and 45 bytes of metadata plus the raw contents per slot.
std::vector<uint8_t> v1Layout(const HeapImage &Image) {
  ByteWriter Writer;
  Writer.writeU32(0x58484931); // "XHI1"
  Writer.writeU64(Image.AllocationTime);
  Writer.writeU32(Image.CanaryValue);
  Writer.writeF64(Image.CanaryFillProbability);
  Writer.writeF64(Image.Multiplier);
  Writer.writeU64(Image.HeapSeed);
  Writer.writeU64(Image.miniheapCount());
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    Writer.writeU32(Mini.SizeClassIndex);
    Writer.writeU64(Mini.ObjectSize);
    Writer.writeU64(Mini.BaseAddress);
    Writer.writeU64(Mini.CreationTime);
    Writer.writeU64(Mini.NumSlots);
    for (uint32_t S = 0; S < Mini.NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      Writer.writeU8(Image.slotFlags(Loc));
      Writer.writeU64(Image.objectId(Loc));
      Writer.writeU64(Image.allocTime(Loc));
      Writer.writeU64(Image.freeTime(Loc));
      Writer.writeU32(Image.allocSite(Loc));
      Writer.writeU32(Image.freeSite(Loc));
      Writer.writeU32(Image.requestedSize(Loc));
      Writer.writeBlob(Image.contents(Loc).decode());
    }
  }
  return Writer.buffer();
}

/// The v1 layout's size in closed form (see v1Layout).
uint64_t v1Bytes(const HeapImage &Image) {
  uint64_t Bytes = 48 + 36 * Image.miniheapCount();
  for (const ImageMiniheapInfo &Mini : Image.miniheaps())
    Bytes += Mini.NumSlots * (45 + Mini.ObjectSize);
  return Bytes;
}

} // namespace

TEST(HeapImageIO, RefusesRemovedV1Buffer) {
  // The same image decodes from its v2 bytes and is refused in the v1
  // layout, which has its own magic and no version field.
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  HeapImage Back;
  ASSERT_TRUE(deserializeHeapImage(serializeHeapImage(Image), Back));
  const std::vector<uint8_t> V1 = v1Layout(Image);
  EXPECT_EQ(V1.size(), v1Bytes(Image));
  EXPECT_FALSE(deserializeHeapImage(V1, Back));
  MemorySource Source(V1);
  EXPECT_FALSE(deserializeHeapImage(Source, Back));
}

TEST(HeapImageIO, RefusesRemovedV1File) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const std::string Path = ::testing::TempDir() + "/image_test_v1.xhi";
  ASSERT_TRUE(writeFileBytes(Path, v1Layout(Image)));
  HeapImage Back;
  EXPECT_FALSE(loadHeapImage(Path, Back));
  ASSERT_TRUE(saveHeapImage(Image, Path));
  EXPECT_TRUE(loadHeapImage(Path, Back));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Malformed input rejection
//===----------------------------------------------------------------------===//

TEST(HeapImageIO, RejectsGarbageBuffer) {
  HeapImage Image;
  EXPECT_FALSE(deserializeHeapImage({1, 2, 3, 4, 5, 6, 7, 8}, Image));
  EXPECT_FALSE(deserializeHeapImage(std::vector<uint8_t>{}, Image));
}

TEST(HeapImageIO, RejectsCorruptVersionField) {
  Fixture F;
  std::vector<uint8_t> Bytes = serializeHeapImage(captureHeapImage(F.Heap));
  Bytes[4] = 0x77; // version field of the v2 header
  HeapImage Image;
  EXPECT_FALSE(deserializeHeapImage(Bytes, Image));
}

TEST(HeapImageIO, RejectsTruncatedBuffers) {
  Fixture F;
  const std::vector<uint8_t> Full =
      serializeHeapImage(captureHeapImage(F.Heap));
  // Every prefix must be rejected, not just the half-way cut.
  for (size_t Cut = 0; Cut < Full.size(); Cut += 1 + Full.size() / 97) {
    std::vector<uint8_t> Truncated(Full.begin(), Full.begin() + Cut);
    HeapImage Out;
    EXPECT_FALSE(deserializeHeapImage(Truncated, Out))
        << "prefix of " << Cut << " of " << Full.size();
  }
}

namespace {

/// Hand-forges a v2 image header for one miniheap of \p NumSlots
/// 64-byte slots, ready for malicious slot records.
ByteWriter forgeV2Header(uint64_t NumSlots) {
  ByteWriter Writer;
  Writer.writeU32(0x58484932); // "XHI2" magic
  Writer.writeU32(2);          // version
  Writer.writeU64(10);         // allocation time
  Writer.writeU32(0x12345679); // canary
  Writer.writeF64(1.0);
  Writer.writeF64(2.0);
  Writer.writeU64(1);     // heap seed
  Writer.writeVarU64(1);  // site table: just the null site
  Writer.writeU32(0);
  Writer.writeVarU64(1);  // one miniheap
  Writer.writeVarU64(3);  // size class
  Writer.writeVarU64(64); // object size
  Writer.writeU64(0x1000);
  Writer.writeVarU64(0); // creation time
  Writer.writeVarU64(NumSlots);
  return Writer;
}

} // namespace

TEST(HeapImageIO, RejectsWrappingRunLength) {
  // A run length of 2^64-1 after 8 valid bytes would wrap the naive
  // Total + Length bound and size a buffer from the bogus value; the
  // loader must reject it, not crash.
  ByteWriter Writer = forgeV2Header(1);
  Writer.writeU8(0);      // slot tag: no flags, no metadata
  Writer.writeVarU64(2);  // two runs
  Writer.writeU8(0);      // literal
  Writer.writeVarU64(8);
  for (int I = 0; I < 8; ++I)
    Writer.writeU8(0x11);
  Writer.writeU8(0);                // literal again
  Writer.writeVarU64(~uint64_t(0)); // wrapping length
  HeapImage Out;
  EXPECT_FALSE(deserializeHeapImage(Writer.buffer(), Out));
}

TEST(HeapImageIO, RejectsWrappingVirginRunCount) {
  // Likewise a virgin-region count of 2^64-1 after one real slot must
  // not wrap past the slot-count bound into an unbounded append loop.
  ByteWriter Writer = forgeV2Header(4);
  Writer.writeU8(0xff); // virgin run
  Writer.writeVarU64(1);
  Writer.writeU64(0);
  Writer.writeU8(0xff);             // second virgin run
  Writer.writeVarU64(~uint64_t(0)); // wrapping count
  Writer.writeU64(0);
  HeapImage Out;
  EXPECT_FALSE(deserializeHeapImage(Writer.buffer(), Out));
}

TEST(HeapImageIO, RejectsTrailingGarbage) {
  Fixture F;
  std::vector<uint8_t> Bytes = serializeHeapImage(captureHeapImage(F.Heap));
  Bytes.push_back(0xab);
  HeapImage Image;
  EXPECT_FALSE(deserializeHeapImage(Bytes, Image));
}

//===----------------------------------------------------------------------===//
// Files (streaming path)
//===----------------------------------------------------------------------===//

TEST(HeapImageIO, FileRoundTrip) {
  Fixture F;
  const HeapImage Image = captureHeapImage(F.Heap);
  const std::string Path = ::testing::TempDir() + "/image_test.xhi";
  ASSERT_TRUE(saveHeapImage(Image, Path));
  HeapImage Back;
  ASSERT_TRUE(loadHeapImage(Path, Back));
  EXPECT_TRUE(Back == Image);
}

TEST(HeapImageIO, LoadMissingFileFails) {
  HeapImage Image;
  EXPECT_FALSE(loadHeapImage("/nonexistent/image.xhi", Image));
}

//===----------------------------------------------------------------------===//
// Size reduction (the point of format v2)
//===----------------------------------------------------------------------===//

TEST(HeapImageIO, V2IsFiveTimesSmallerOnExampleWorkloads) {
  // The yardstick is the removed v1 layout, computed in closed form (its
  // encoder is pinned to the formula by RefusesRemovedV1Buffer).
  struct Case {
    const char *Name;
    HeapImage Image;
  };
  EspressoWorkload Espresso;
  SquidWorkload Squid;
  ExterminatorConfig Config;
  std::vector<Case> Cases;
  Cases.push_back(
      {"espresso",
       runWorkloadOnce(Espresso, 5, 11, Config, PatchSet()).FinalImage});
  Cases.push_back(
      {"squid",
       runWorkloadOnce(Squid, 1, 13, Config, PatchSet()).FinalImage});

  for (const Case &C : Cases) {
    const uint64_t V1 = v1Bytes(C.Image);
    const size_t V2 = serializeHeapImage(C.Image).size();
    EXPECT_GE(static_cast<double>(V1) / static_cast<double>(V2), 5.0)
        << C.Name << ": v1 " << V1 << " bytes, v2 " << V2 << " bytes";
  }
}

//===----------------------------------------------------------------------===//
// Quarantine
//===----------------------------------------------------------------------===//

TEST(HeapImage, QuarantinedSlotSurvivesCapture) {
  DieFastHeap Heap(testConfig(31));
  bool Signalled = false;
  ObjectRef Bad;
  Heap.setErrorHandler([&](const ErrorSignal &S) {
    Signalled = true;
    Bad = S.Where;
  });
  uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(32));
  Heap.deallocate(Ptr);
  Ptr[3] = 0x99;
  for (int I = 0; I < 500 && !Signalled; ++I)
    Heap.deallocate(Heap.allocate(32));
  ASSERT_TRUE(Signalled);

  const HeapImage Image = captureHeapImage(Heap);
  bool FoundBad = false;
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M)
    for (uint32_t S = 0; S < Image.miniheapInfo(M).NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      if (Image.isBad(Loc)) {
        FoundBad = true;
        EXPECT_TRUE(Image.isAllocated(Loc));
        EXPECT_TRUE(Image.isCanaried(Loc));
        EXPECT_EQ(Image.contents(Loc)[3], 0x99);
      }
    }
  EXPECT_TRUE(FoundBad);
}

//===----------------------------------------------------------------------===//
// Image bundles (cross-image site dictionary)
//===----------------------------------------------------------------------===//

TEST(ImageBundle, RoundTripIsLossless) {
  std::vector<HeapImage> Images;
  for (uint64_t Seed : {11u, 22u, 33u})
    Images.push_back(randomizedImage(Seed));

  const std::vector<uint8_t> Bytes = serializeImageBundle(Images);
  std::vector<HeapImage> Decoded;
  ASSERT_TRUE(deserializeImageBundle(Bytes, Decoded));
  ASSERT_EQ(Decoded.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_TRUE(Decoded[I] == Images[I]) << "image " << I;
}

TEST(ImageBundle, EmptyBundleRoundTrips) {
  const std::vector<uint8_t> Bytes = serializeImageBundle({});
  std::vector<HeapImage> Decoded{HeapImage()};
  ASSERT_TRUE(deserializeImageBundle(Bytes, Decoded));
  EXPECT_TRUE(Decoded.empty());
}

TEST(ImageBundle, BeatsIndependentImagesOnReplicatedDumps) {
  // Replicated dumps: same program under different heap seeds, so the
  // images reference (nearly) identical call sites.  The shared
  // dictionary must make the bundle strictly smaller than shipping the
  // images as independent v2 files.
  std::vector<HeapImage> Images;
  size_t IndependentBytes = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Images.push_back(randomizedImage(Seed * 1000));
    IndependentBytes += serializeHeapImage(Images.back()).size();
  }
  const size_t BundleBytes = serializeImageBundle(Images).size();
  EXPECT_LT(BundleBytes, IndependentBytes);
}

TEST(ImageBundle, RejectsTruncation) {
  std::vector<HeapImage> Images{randomizedImage(7), randomizedImage(8)};
  const std::vector<uint8_t> Full = serializeImageBundle(Images);
  for (size_t Cut = 0; Cut < Full.size();
       Cut += std::max<size_t>(1, Full.size() / 57)) {
    std::vector<uint8_t> Truncated(Full.begin(), Full.begin() + Cut);
    std::vector<HeapImage> Out;
    EXPECT_FALSE(deserializeImageBundle(Truncated, Out))
        << "accepted truncation at " << Cut;
  }
}

TEST(ImageBundle, RejectsTrailingGarbage) {
  std::vector<HeapImage> Images{randomizedImage(9)};
  std::vector<uint8_t> Bytes = serializeImageBundle(Images);
  Bytes.push_back(0x00);
  std::vector<HeapImage> Out;
  EXPECT_FALSE(deserializeImageBundle(Bytes, Out));
}

namespace {

/// Hand-builds a one-image bundle tagged \p FormatVersion whose only
/// slot references site-table index \p AllocSiteIndex against a
/// one-entry dictionary.  With index 0 it is a valid bundle; the slot
/// uses only plain records, which both bundle format versions share.
std::vector<uint8_t> oneSlotBundle(uint32_t FormatVersion,
                                   uint64_t AllocSiteIndex) {
  std::vector<uint8_t> Bytes;
  VectorSink Sink(Bytes);
  StreamWriter Writer(Sink);
  Writer.writeU32(0x58494231);    // "XIB1"
  Writer.writeU32(FormatVersion); // bundle version
  Writer.writeVarU64(1);          // one image
  Writer.writeVarU64(1);          // site table: only index 0 ("no site")
  Writer.writeU32(0);
  // Image header.
  Writer.writeU64(42);  // AllocationTime
  Writer.writeU32(1);   // CanaryValue
  Writer.writeF64(1.0); // CanaryFillProbability
  Writer.writeF64(2.0); // Multiplier
  Writer.writeU64(3);   // HeapSeed
  // Body: one miniheap, one slot with metadata.
  Writer.writeVarU64(1);    // miniheap count
  Writer.writeVarU64(0);    // size class
  Writer.writeVarU64(16);   // object size
  Writer.writeU64(0x1000);  // base address
  Writer.writeVarU64(0);    // creation time
  Writer.writeVarU64(1);    // one slot
  Writer.writeU8(0x80 | 1); // HasMeta | Allocated
  Writer.writeVarU64(5);    // object id
  Writer.writeVarU64(0);    // free time
  Writer.writeVarU64(AllocSiteIndex);
  Writer.writeVarU64(0);  // free-site index
  Writer.writeVarU64(16); // requested size
  Writer.writeVarU64(1);  // one contents run
  Writer.writeU8(1);      // pattern
  Writer.writeVarU64(16);
  Writer.writeU64(0);
  EXPECT_FALSE(Writer.failed());
  return Bytes;
}

} // namespace

TEST(ImageBundle, RejectsOutOfRangeDictionaryIndex) {
  // Index 7 against a 1-entry dictionary must be rejected, not crash or
  // mis-resolve; the same bundle with index 0 decodes.
  std::vector<HeapImage> Out;
  ASSERT_TRUE(deserializeImageBundle(oneSlotBundle(ImageBundleFormatV2, 0),
                                     Out));
  EXPECT_FALSE(
      deserializeImageBundle(oneSlotBundle(ImageBundleFormatV2, 7), Out));
}

TEST(ImageBundle, RejectsRemovedFormatVersion) {
  // Format version 1 (standalone bodies) is no longer read: a bundle
  // that is valid in both layouts decodes as version 2 and is refused
  // as version 1.
  std::vector<HeapImage> Out;
  ASSERT_TRUE(deserializeImageBundle(oneSlotBundle(ImageBundleFormatV2, 0),
                                     Out));
  EXPECT_FALSE(deserializeImageBundle(oneSlotBundle(1, 0), Out));
}

TEST(ImageBundle, RejectsOversizedImageCount) {
  std::vector<uint8_t> Bytes;
  VectorSink Sink(Bytes);
  StreamWriter Writer(Sink);
  Writer.writeU32(0x58494231);
  Writer.writeU32(ImageBundleFormatV2);
  Writer.writeVarU64(MaxBundleImages + 1);
  std::vector<HeapImage> Out;
  EXPECT_FALSE(deserializeImageBundle(Bytes, Out));
}

TEST(ImageBundle, FileRoundTrip) {
  std::vector<HeapImage> Images{randomizedImage(4), randomizedImage(5)};
  const std::string Path = ::testing::TempDir() + "/bundle_roundtrip.xib";
  ASSERT_TRUE(saveImageBundle(Images, Path));
  std::vector<HeapImage> Loaded;
  ASSERT_TRUE(loadImageBundle(Path, Loaded));
  ASSERT_EQ(Loaded.size(), 2u);
  EXPECT_TRUE(Loaded[0] == Images[0]);
  EXPECT_TRUE(Loaded[1] == Images[1]);
  std::remove(Path.c_str());
}
