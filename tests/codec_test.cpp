//===- tests/codec_test.cpp - Codec layer tests ---------------------------===//
//
// Covers the PR 10 codec layer: the LZ block codec and its envelope
// (round trips, incompressibility, and the adversarial-input taxonomy —
// declared-size bombs, truncation sweeps, corrupt back-references), the
// block stream of the bundle file container, and the delta-encoded image
// bundles with the bundle-ratio pin on replicated espresso dumps.
//
//===----------------------------------------------------------------------===//

#include "codec/BlockCodec.h"
#include "codec/DeltaCodec.h"

#include "TestHelpers.h"
#include "heapimage/HeapImageIO.h"
#include "heapimage/ImageBundle.h"
#include "support/Serializer.h"
#include "workload/EspressoWorkload.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

/// Compressible bytes: varint-ish structured data with heavy repeats,
/// the shape of real evidence streams.
std::vector<uint8_t> structuredBytes(size_t Size) {
  std::vector<uint8_t> Out;
  Out.reserve(Size);
  uint32_t Site = 0x1000;
  while (Out.size() < Size) {
    for (int I = 0; I < 16 && Out.size() < Size; ++I)
      Out.push_back(static_cast<uint8_t>((Site >> (I % 4) * 8) & 0xff));
    Out.push_back(0x00);
    Out.push_back(0xfe);
    Site += (Out.size() % 7 == 0) ? 8 : 0;
  }
  return Out;
}

/// Incompressible bytes: a seeded uniform byte stream.
std::vector<uint8_t> randomBytes(size_t Size, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint8_t> Out(Size);
  for (uint8_t &B : Out)
    B = static_cast<uint8_t>(Rng());
  return Out;
}

/// End-of-run images of the espresso workload under distinct heap seeds
/// — the replicated dumps §4 isolation actually ships.
std::vector<HeapImage> espressoDumps(unsigned Count) {
  EspressoWorkload Work;
  ExterminatorConfig Config;
  std::vector<HeapImage> Images;
  for (unsigned I = 0; I < Count; ++I)
    Images.push_back(
        runWorkloadOnce(Work, /*InputSeed=*/5, /*HeapSeed=*/11 + I * 7919,
                        Config, PatchSet())
            .FinalImage);
  return Images;
}

} // namespace

//===----------------------------------------------------------------------===//
// LZ block codec
//===----------------------------------------------------------------------===//

TEST(BlockCodec, RoundTripsStructuredData) {
  const std::vector<uint8_t> Raw = structuredBytes(64 * 1024);
  std::vector<uint8_t> Comp;
  const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
  ASSERT_GT(CompSize, 0u);
  ASSERT_LT(CompSize, Raw.size());

  std::vector<uint8_t> Back(Raw.size());
  ASSERT_TRUE(lzDecompress(Comp.data(), CompSize, Back.data(), Back.size()));
  EXPECT_EQ(Back, Raw);
}

TEST(BlockCodec, RoundTripsAcrossSizes) {
  // Sweep sizes around token/extension boundaries, including ones that
  // end mid-sequence and ones larger than the 64 KiB window.
  for (size_t Size : {size_t(5), size_t(64), size_t(255), size_t(256),
                      size_t(4096), size_t(70000), size_t(200000)}) {
    const std::vector<uint8_t> Raw = structuredBytes(Size);
    std::vector<uint8_t> Comp;
    const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
    if (CompSize == 0)
      continue; // too small to bother; the envelope stores raw
    ASSERT_LE(CompSize, lzMaxCompressedSize(Raw.size()));
    std::vector<uint8_t> Back(Raw.size());
    ASSERT_TRUE(
        lzDecompress(Comp.data(), CompSize, Back.data(), Back.size()))
        << "size " << Size;
    EXPECT_EQ(Back, Raw) << "size " << Size;
  }
}

TEST(BlockCodec, RandomBytesAreIncompressible) {
  const std::vector<uint8_t> Raw = randomBytes(32 * 1024, 42);
  std::vector<uint8_t> Comp;
  EXPECT_EQ(lzCompress(Raw.data(), Raw.size(), Comp), 0u);
}

TEST(BlockCodec, DecompressRejectsTruncationSweep) {
  const std::vector<uint8_t> Raw = structuredBytes(8 * 1024);
  std::vector<uint8_t> Comp;
  const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
  ASSERT_GT(CompSize, 0u);
  std::vector<uint8_t> Out(Raw.size());
  for (size_t Cut = 0; Cut < CompSize; ++Cut)
    EXPECT_FALSE(lzDecompress(Comp.data(), Cut, Out.data(), Out.size()))
        << "accepted truncation at " << Cut;
}

TEST(BlockCodec, DecompressRejectsCorruptBackReferences) {
  // Flip every byte in turn: offsets pointing before the output start,
  // lengths running past the declared size, or streams ending early must
  // all fail — and none may crash or write outside Out.
  const std::vector<uint8_t> Raw = structuredBytes(4 * 1024);
  std::vector<uint8_t> Comp;
  const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
  ASSERT_GT(CompSize, 0u);
  Comp.resize(CompSize);
  std::vector<uint8_t> Out(Raw.size());
  size_t Rejections = 0;
  for (size_t I = 0; I < Comp.size(); ++I) {
    std::vector<uint8_t> Mutated = Comp;
    Mutated[I] ^= 0xff;
    if (!lzDecompress(Mutated.data(), Mutated.size(), Out.data(),
                      Out.size()))
      ++Rejections;
  }
  // A large share of single-byte corruptions must be caught (flips
  // inside literal bytes legitimately decode to different-but-valid
  // output, so it can never be all of them).
  EXPECT_GT(Rejections, Comp.size() / 3);
}

//===----------------------------------------------------------------------===//
// Envelope (encodeCodecBlock / decodeCodecBlock)
//===----------------------------------------------------------------------===//

TEST(CodecEnvelope, RoundTripsCompressibleAndIncompressible) {
  for (const std::vector<uint8_t> &Raw :
       {structuredBytes(16 * 1024), randomBytes(16 * 1024, 7),
        std::vector<uint8_t>{}, std::vector<uint8_t>{0x42}}) {
    const std::vector<uint8_t> Envelope = encodeCodecBlock(Raw);
    std::vector<uint8_t> Back;
    ASSERT_TRUE(decodeCodecBlock(Envelope, Back, 1u << 20));
    EXPECT_EQ(Back, Raw);
  }
}

TEST(CodecEnvelope, CompressibleDataShrinks) {
  const std::vector<uint8_t> Raw = structuredBytes(64 * 1024);
  EXPECT_LT(encodeCodecBlock(Raw).size(), Raw.size());
}

TEST(CodecEnvelope, RejectsDeclaredSizeBomb) {
  // A forged envelope declaring more than the caller's budget must fail
  // before any allocation is sized from the declaration.
  ByteWriter Forged;
  Forged.writeU8(static_cast<uint8_t>(CodecId::Lz));
  Forged.writeVarU64(uint64_t(1) << 40); // a terabyte, declared
  Forged.writeU8(0x00);                  // token bytes, irrelevant
  const uint64_t RejectedBefore = codecStats().RejectedBlocks;
  std::vector<uint8_t> Out;
  EXPECT_FALSE(decodeCodecBlock(Forged.buffer(), Out, 1u << 20));
  EXPECT_GT(codecStats().RejectedBlocks, RejectedBefore);

  // Same declaration under Raw id: body shorter than declared, reject.
  ByteWriter ForgedRaw;
  ForgedRaw.writeU8(static_cast<uint8_t>(CodecId::Raw));
  ForgedRaw.writeVarU64(uint64_t(1) << 40);
  EXPECT_FALSE(decodeCodecBlock(ForgedRaw.buffer(), Out, 1u << 20));
}

TEST(CodecEnvelope, RejectsUnknownCodecId) {
  ByteWriter Forged;
  Forged.writeU8(0x7f);
  Forged.writeVarU64(16);
  std::vector<uint8_t> Out;
  EXPECT_FALSE(decodeCodecBlock(Forged.buffer(), Out, 1u << 20));
}

TEST(CodecEnvelope, RejectsTruncationSweep) {
  const std::vector<uint8_t> Envelope =
      encodeCodecBlock(structuredBytes(8 * 1024));
  std::vector<uint8_t> Out;
  for (size_t Cut = 0; Cut < Envelope.size(); ++Cut) {
    std::vector<uint8_t> Truncated(Envelope.begin(), Envelope.begin() + Cut);
    EXPECT_FALSE(decodeCodecBlock(Truncated, Out, 1u << 20))
        << "accepted truncation at " << Cut;
  }
}

TEST(CodecEnvelope, StatsCountCompressionTraffic) {
  const CodecStatsSnapshot Before = codecStats();
  const std::vector<uint8_t> Raw = structuredBytes(32 * 1024);
  const std::vector<uint8_t> Envelope = encodeCodecBlock(Raw);
  std::vector<uint8_t> Back;
  ASSERT_TRUE(decodeCodecBlock(Envelope, Back, 1u << 20));
  const CodecStatsSnapshot After = codecStats();
  EXPECT_GT(After.CompressCalls, Before.CompressCalls);
  EXPECT_GE(After.CompressInBytes - Before.CompressInBytes, Raw.size());
  EXPECT_GT(After.DecompressCalls, Before.DecompressCalls);
  EXPECT_GE(After.DecompressOutBytes - Before.DecompressOutBytes, Raw.size());
}

//===----------------------------------------------------------------------===//
// Codec stream
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint8_t> codecStream(const std::vector<uint8_t> &Raw) {
  ByteWriter Writer;
  encodeCodecStream(Raw.data(), Raw.size(), Writer);
  return Writer.take();
}

} // namespace

TEST(CodecStream, RoundTripsMultiBlockStream) {
  // Larger than CodecStreamBlockCap so the stream carries several
  // blocks: a full one and a partial one, then the terminator.
  const std::vector<uint8_t> Raw = structuredBytes(3 * CodecStreamBlockCap / 2);
  const std::vector<uint8_t> Stream = codecStream(Raw);
  ASSERT_LT(Stream.size(), Raw.size());
  ByteReader Header(Stream);
  EXPECT_EQ(Header.readVarU64(), CodecStreamBlockCap);

  ByteReader Reader(Stream);
  std::vector<uint8_t> Back;
  ASSERT_TRUE(decodeCodecStream(Reader, Back, Raw.size()));
  EXPECT_EQ(Back, Raw);
  EXPECT_TRUE(Reader.atEnd()); // terminator consumed, nothing more

  // An empty input is the terminator alone.
  const std::vector<uint8_t> Empty = codecStream({});
  EXPECT_EQ(Empty, std::vector<uint8_t>{0});
  ByteReader EmptyReader(Empty);
  ASSERT_TRUE(decodeCodecStream(EmptyReader, Back, 0));
  EXPECT_TRUE(Back.empty());
}

TEST(CodecStream, StoresIncompressibleBlocksRaw) {
  const std::vector<uint8_t> Raw = randomBytes(CodecStreamBlockCap + 100, 5);
  const std::vector<uint8_t> Stream = codecStream(Raw);
  ByteReader Reader(Stream);
  EXPECT_EQ(Reader.readVarU64(), CodecStreamBlockCap);
  EXPECT_EQ(Reader.readVarU64(), 0u); // stored: raw bytes follow
  ByteReader Decode(Stream);
  std::vector<uint8_t> Back;
  ASSERT_TRUE(decodeCodecStream(Decode, Back, Raw.size()));
  EXPECT_EQ(Back, Raw);
}

TEST(CodecStream, RejectsTruncationEverywhere) {
  const std::vector<uint8_t> Raw = structuredBytes(CodecStreamBlockCap + 100);
  const std::vector<uint8_t> Stream = codecStream(Raw);
  // Every proper prefix lacks the terminator at least, so none may
  // decode — and none may crash.
  for (size_t Cut = 0; Cut < Stream.size(); Cut += 997) {
    ByteReader Reader(Stream.data(), Cut);
    std::vector<uint8_t> Back;
    EXPECT_FALSE(decodeCodecStream(Reader, Back, Raw.size()))
        << "clean decode from truncation at " << Cut;
  }
  ByteReader Reader(Stream.data(), Stream.size() - 1);
  std::vector<uint8_t> Back;
  EXPECT_FALSE(decodeCodecStream(Reader, Back, Raw.size()));
}

TEST(CodecStream, RejectsOversizedDeclaredBlock) {
  // A stream whose first block declares more raw bytes than the cap
  // must fail before allocating that much.
  ByteWriter Writer;
  Writer.writeVarU64(uint64_t(CodecStreamBlockCap) * 16); // bomb
  Writer.writeVarU64(0);                                  // "stored"
  ByteReader Reader(Writer.buffer());
  std::vector<uint8_t> Back;
  EXPECT_FALSE(decodeCodecStream(Reader, Back, ~uint64_t(0)));
  EXPECT_EQ(Back.capacity(), 0u);
}

TEST(CodecStream, RejectsRunningTotalPastBudgetBeforeDecoding) {
  // Three blocks, each within the cap: the decode budget bounds their
  // sum, checked over every header before anything is decompressed.
  const std::vector<uint8_t> Raw = structuredBytes(5 * CodecStreamBlockCap / 2);
  const std::vector<uint8_t> Stream = codecStream(Raw);
  const CodecStatsSnapshot Before = codecStats();
  ByteReader Reader(Stream);
  std::vector<uint8_t> Back;
  EXPECT_FALSE(decodeCodecStream(Reader, Back, Raw.size() - 1));
  EXPECT_EQ(Back.capacity(), 0u);
  EXPECT_EQ(codecStats().DecompressCalls, Before.DecompressCalls);
  ByteReader Exact(Stream);
  ASSERT_TRUE(decodeCodecStream(Exact, Back, Raw.size()));
  EXPECT_EQ(Back, Raw);
}

//===----------------------------------------------------------------------===//
// Delta-encoded bundles (format v2)
//===----------------------------------------------------------------------===//

TEST(DeltaBundle, RoundTripIsLosslessOnReplicatedDumps) {
  const std::vector<HeapImage> Images = espressoDumps(3);
  const std::vector<uint8_t> Bytes = serializeImageBundle(Images);
  std::vector<HeapImage> Decoded;
  ASSERT_TRUE(deserializeImageBundle(Bytes, Decoded));
  ASSERT_EQ(Decoded.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_TRUE(Decoded[I] == Images[I]) << "image " << I;
}

TEST(DeltaBundle, RatioAtMostHalfOnReplicatedEspressoDumps) {
  // The acceptance pin: bundle.ratio (delta bundle bytes over the same
  // images shipped as independent v2 files) must be at most 0.5 — the
  // delta codec has to at least halve replicated evidence, where the
  // pre-codec dictionary-only bundle managed 0.997.
  const std::vector<HeapImage> Images = espressoDumps(3);
  size_t IndependentBytes = 0;
  for (const HeapImage &Image : Images)
    IndependentBytes += serializeHeapImage(Image).size();
  const size_t DeltaBytes = serializeImageBundle(Images).size();
  const double Ratio =
      static_cast<double>(DeltaBytes) / static_cast<double>(IndependentBytes);
  EXPECT_LE(Ratio, 0.5) << "delta " << DeltaBytes << " B vs independent "
                        << IndependentBytes << " B";

  // The baseline the bundle replaces is the independent images.
  EXPECT_LT(DeltaBytes, IndependentBytes);
}

TEST(DeltaBundle, TruncationSweepNeverDecodes) {
  const std::vector<uint8_t> Bytes = serializeImageBundle(espressoDumps(2));
  std::vector<HeapImage> Decoded;
  for (size_t Cut = 0; Cut < Bytes.size(); Cut += 509) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(deserializeImageBundle(Truncated, Decoded))
        << "accepted truncation at " << Cut;
  }
}

TEST(DeltaBundle, CorruptBackReferencesRejectedNotWild) {
  // Byte-flip sweep over a delta bundle: corrupt object-id references
  // must decode as errors (unknown id, size mismatch) or as valid
  // alternate bundles — never crash, hang, or blow the slot budget.
  const std::vector<uint8_t> Bytes = serializeImageBundle(espressoDumps(2));
  size_t Rejections = 0;
  for (size_t I = 0; I < Bytes.size(); I += 131) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0xff;
    std::vector<HeapImage> Decoded;
    BundleBudget Budget{MaxWireSlots};
    if (!deserializeImageBundle(Mutated, Decoded, Budget))
      ++Rejections;
  }
  EXPECT_GT(Rejections, 0u);
}

TEST(DeltaBundle, FirstImageMayNotCarryReferences) {
  // The first image has no base; a reference tag there is a forgery.
  // Splice a SlotRefFullTag into the first image's first slot record by
  // re-encoding a single-image bundle and corrupting the tag space —
  // readDeltaImageBody must reject references against a null base.
  const std::vector<HeapImage> One = espressoDumps(1);
  std::vector<uint8_t> Bytes = serializeImageBundle(One);
  // Brute-force: flipping any byte to the full-reference tag must never
  // produce an out-of-bounds copy; most positions must fail cleanly.
  size_t Failures = 0, Trials = 0;
  for (size_t I = 16; I < Bytes.size(); I += 211) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[I] = SlotRefFullTag;
    std::vector<HeapImage> Decoded;
    ++Trials;
    if (!deserializeImageBundle(Mutated, Decoded))
      ++Failures;
  }
  EXPECT_GT(Failures, Trials / 2);
}

//===----------------------------------------------------------------------===//
// Compressed bundle file container ("XIC1")
//===----------------------------------------------------------------------===//

TEST(BundleContainer, SaveLoadRoundTripsAndShrinks) {
  const std::vector<HeapImage> Images = espressoDumps(3);
  const std::string Path = ::testing::TempDir() + "/codec_bundle.xib";
  ASSERT_TRUE(saveImageBundle(Images, Path));

  std::vector<uint8_t> FileBytes;
  ASSERT_TRUE(readFileBytes(Path, FileBytes));
  // On-disk container must be smaller than the bare bundle stream it
  // wraps — the codec working end to end.
  EXPECT_LT(FileBytes.size(), serializeImageBundle(Images).size());

  std::vector<HeapImage> Back;
  ASSERT_TRUE(loadImageBundle(Path, Back));
  ASSERT_EQ(Back.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_TRUE(Back[I] == Images[I]) << "image " << I;
  std::remove(Path.c_str());
}

TEST(BundleContainer, BareBundleFilesAreRefused) {
  // A bundle file is the "XIC1" container: a bare "XIB1" stream on disk
  // is refused, though the same bytes decode from a buffer.
  const std::vector<uint8_t> Bare = serializeImageBundle(espressoDumps(2));
  std::vector<HeapImage> Back;
  ASSERT_TRUE(deserializeImageBundle(Bare, Back));
  const std::string Path = ::testing::TempDir() + "/codec_bare.xib";
  ASSERT_TRUE(writeFileBytes(Path, Bare));
  EXPECT_FALSE(loadImageBundle(Path, Back));
  std::remove(Path.c_str());
}

TEST(BundleContainer, RefusesStreamDeclaringMoreThanTheFileBound) {
  // loadImageBundle holds the whole decoded stream, so the raw total the
  // block headers declare is checked against MaxBundleFileRawBytes
  // before anything is decompressed.  A CodecStreamBlockCap block of
  // zeros compresses to about a kilobyte; one more of them than the
  // bound admits makes a ~8 MB file declaring just over 2 GiB.
  const std::vector<uint8_t> ZeroBlock =
      codecStream(std::vector<uint8_t>(CodecStreamBlockCap, 0));
  const uint64_t Blocks = MaxBundleFileRawBytes / CodecStreamBlockCap + 1;
  ByteWriter Writer;
  Writer.writeU32(CompressedBundleMagic);
  for (uint64_t I = 0; I < Blocks; ++I)
    Writer.writeBytes(ZeroBlock.data(), ZeroBlock.size() - 1); // no terminator
  Writer.writeVarU64(0);
  const std::string Path = ::testing::TempDir() + "/codec_bound.xib";
  ASSERT_TRUE(writeFileBytes(Path, Writer.buffer()));

  const CodecStatsSnapshot Before = codecStats();
  std::vector<HeapImage> Back;
  EXPECT_FALSE(loadImageBundle(Path, Back));
  const CodecStatsSnapshot After = codecStats();
  EXPECT_EQ(After.DecompressCalls, Before.DecompressCalls);
  EXPECT_EQ(After.RejectedBlocks, Before.RejectedBlocks + 1);
  std::remove(Path.c_str());
}
