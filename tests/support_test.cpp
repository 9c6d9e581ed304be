//===- tests/support_test.cpp - Support substrate tests ---------------------===//

#include "support/Bitmap.h"
#include "support/FlatU64Map.h"
#include "support/RandomGenerator.h"
#include "support/Executor.h"
#include "support/Serializer.h"
#include "support/SiteHash.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// RandomGenerator
//===----------------------------------------------------------------------===//

TEST(RandomGenerator, SameSeedSameStream) {
  RandomGenerator A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomGenerator, DifferentSeedsDifferentStreams) {
  RandomGenerator A(1), B(2);
  unsigned Matches = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Matches;
  EXPECT_EQ(Matches, 0u);
}

TEST(RandomGenerator, ReseedResetsStream) {
  RandomGenerator A(7);
  const uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(RandomGenerator, NextBelowStaysInRange) {
  RandomGenerator Rng(3);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(RandomGenerator, NextBelowOneIsZero) {
  RandomGenerator Rng(5);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Rng.nextBelow(1), 0u);
}

TEST(RandomGenerator, NextBelowIsRoughlyUniform) {
  RandomGenerator Rng(11);
  constexpr uint64_t Buckets = 8;
  constexpr int Draws = 80000;
  int Counts[Buckets] = {};
  for (int I = 0; I < Draws; ++I)
    ++Counts[Rng.nextBelow(Buckets)];
  for (uint64_t B = 0; B < Buckets; ++B) {
    // Each bucket expects 10000; allow 5% deviation.
    EXPECT_NEAR(Counts[B], Draws / Buckets, Draws / Buckets * 0.05);
  }
}

TEST(RandomGenerator, NextDoubleInUnitInterval) {
  RandomGenerator Rng(13);
  for (int I = 0; I < 1000; ++I) {
    const double X = Rng.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RandomGenerator, ChanceExtremes) {
  RandomGenerator Rng(17);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(Rng.chance(0.0));
    EXPECT_TRUE(Rng.chance(1.0));
  }
}

TEST(RandomGenerator, ChanceMatchesProbability) {
  RandomGenerator Rng(19);
  int Heads = 0;
  constexpr int Draws = 40000;
  for (int I = 0; I < Draws; ++I)
    if (Rng.chance(0.25))
      ++Heads;
  EXPECT_NEAR(Heads, Draws * 0.25, Draws * 0.02);
}

TEST(RandomGenerator, ForkProducesIndependentStream) {
  RandomGenerator A(23);
  RandomGenerator Child = A.fork();
  unsigned Matches = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == Child.next())
      ++Matches;
  EXPECT_EQ(Matches, 0u);
}

TEST(RandomGenerator, SplitMix64KnownSequenceIsDeterministic) {
  uint64_t S1 = 0, S2 = 0;
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(splitMix64(S1), splitMix64(S2));
}

//===----------------------------------------------------------------------===//
// Bitmap
//===----------------------------------------------------------------------===//

TEST(Bitmap, StartsEmpty) {
  Bitmap Map(100);
  EXPECT_EQ(Map.size(), 100u);
  EXPECT_EQ(Map.count(), 0u);
  for (size_t I = 0; I < 100; ++I)
    EXPECT_FALSE(Map.test(I));
}

TEST(Bitmap, SetAndTest) {
  Bitmap Map(70);
  EXPECT_TRUE(Map.set(0));
  EXPECT_TRUE(Map.set(63));
  EXPECT_TRUE(Map.set(64));
  EXPECT_TRUE(Map.set(69));
  EXPECT_TRUE(Map.test(0));
  EXPECT_TRUE(Map.test(63));
  EXPECT_TRUE(Map.test(64));
  EXPECT_TRUE(Map.test(69));
  EXPECT_FALSE(Map.test(1));
  EXPECT_EQ(Map.count(), 4u);
}

TEST(Bitmap, DoubleSetReturnsFalse) {
  Bitmap Map(10);
  EXPECT_TRUE(Map.set(5));
  // A bit can only be set once — this is what makes double frees benign.
  EXPECT_FALSE(Map.set(5));
  EXPECT_EQ(Map.count(), 1u);
}

TEST(Bitmap, DoubleResetReturnsFalse) {
  Bitmap Map(10);
  Map.set(5);
  EXPECT_TRUE(Map.reset(5));
  EXPECT_FALSE(Map.reset(5));
  EXPECT_EQ(Map.count(), 0u);
}

TEST(Bitmap, ClearResetsEverything) {
  Bitmap Map(100);
  for (size_t I = 0; I < 100; I += 3)
    Map.set(I);
  Map.clear();
  EXPECT_EQ(Map.count(), 0u);
  for (size_t I = 0; I < 100; ++I)
    EXPECT_FALSE(Map.test(I));
}

TEST(Bitmap, ProbeClearFindsOnlyClearBits) {
  Bitmap Map(64);
  for (size_t I = 0; I < 64; ++I)
    if (I != 17 && I != 42)
      Map.set(I);
  RandomGenerator Rng(1);
  std::set<size_t> Found;
  for (int I = 0; I < 100; ++I) {
    auto Bit = Map.probeClear(Rng);
    ASSERT_TRUE(Bit.has_value());
    EXPECT_TRUE(*Bit == 17 || *Bit == 42);
    Found.insert(*Bit);
  }
  // Both free bits should be reachable by random probing.
  EXPECT_EQ(Found.size(), 2u);
}

TEST(Bitmap, ProbeClearOnFullMapFails) {
  Bitmap Map(8);
  for (size_t I = 0; I < 8; ++I)
    Map.set(I);
  RandomGenerator Rng(1);
  EXPECT_FALSE(Map.probeClear(Rng).has_value());
}

TEST(Bitmap, ProbeClearOnEmptySizeFails) {
  Bitmap Map;
  RandomGenerator Rng(1);
  EXPECT_FALSE(Map.probeClear(Rng).has_value());
}

TEST(Bitmap, ProbeClearIsUniform) {
  // At half occupancy, every free bit should be hit roughly equally —
  // the uniformity DieHard's probabilistic guarantees build on.
  Bitmap Map(32);
  for (size_t I = 0; I < 32; I += 2)
    Map.set(I);
  RandomGenerator Rng(99);
  int Counts[32] = {};
  constexpr int Draws = 32000;
  for (int I = 0; I < Draws; ++I)
    ++Counts[*Map.probeClear(Rng)];
  for (size_t I = 1; I < 32; I += 2)
    EXPECT_NEAR(Counts[I], Draws / 16, Draws / 16 * 0.1);
}

TEST(Bitmap, ProbeClearPartialLastWord) {
  // 70 bits: the last word holds only 6 valid bits.  Set every bit but
  // the final one; probing must find exactly bit 69 and never a
  // past-the-end bit of the partial word.
  Bitmap Map(70);
  for (size_t I = 0; I < 69; ++I)
    Map.set(I);
  RandomGenerator Rng(5);
  for (int I = 0; I < 200; ++I)
    EXPECT_EQ(Map.probeClear(Rng), std::optional<size_t>(69));
}

TEST(Bitmap, ProbeClearDenseFallbackStaysUniform) {
  // One clear bit in 4096: rejection probes nearly always miss, forcing
  // the rank-select fallback, which must still return only clear bits.
  Bitmap Map(4096);
  for (size_t I = 0; I < 4096; ++I)
    if (I != 1234 && I != 4000)
      Map.set(I);
  RandomGenerator Rng(7);
  std::set<size_t> Found;
  for (int I = 0; I < 300; ++I) {
    auto Bit = Map.probeClear(Rng);
    ASSERT_TRUE(Bit.has_value());
    EXPECT_TRUE(*Bit == 1234 || *Bit == 4000);
    Found.insert(*Bit);
  }
  EXPECT_EQ(Found.size(), 2u);
}

TEST(Bitmap, SelectClearRanks) {
  Bitmap Map(130);
  // Clear bits: everything except 0..9 and 127.
  for (size_t I = 0; I < 10; ++I)
    Map.set(I);
  Map.set(127);
  EXPECT_EQ(Map.clearCount(), 119u);
  EXPECT_EQ(Map.selectClear(0), std::optional<size_t>(10));
  EXPECT_EQ(Map.selectClear(1), std::optional<size_t>(11));
  // Rank of the last clear bit (129): clear bits below it are
  // 10..126 (117 of them) and 128, so rank 118.
  EXPECT_EQ(Map.selectClear(117), std::optional<size_t>(128));
  EXPECT_EQ(Map.selectClear(118), std::optional<size_t>(129));
  EXPECT_EQ(Map.selectClear(119), std::nullopt);
}

TEST(Bitmap, SelectClearFullMap) {
  Bitmap Map(64);
  for (size_t I = 0; I < 64; ++I)
    Map.set(I);
  EXPECT_EQ(Map.selectClear(0), std::nullopt);
}

TEST(Bitmap, SelectClearLastWordPartial) {
  // Clear bits only in the partial tail word.
  Bitmap Map(67);
  for (size_t I = 0; I < 65; ++I)
    Map.set(I);
  EXPECT_EQ(Map.selectClear(0), std::optional<size_t>(65));
  EXPECT_EQ(Map.selectClear(1), std::optional<size_t>(66));
  EXPECT_EQ(Map.selectClear(2), std::nullopt);
}

TEST(Bitmap, FindNextSet) {
  Bitmap Map(130);
  Map.set(3);
  Map.set(64);
  Map.set(129);
  EXPECT_EQ(Map.findNextSet(0), std::optional<size_t>(3));
  EXPECT_EQ(Map.findNextSet(4), std::optional<size_t>(64));
  EXPECT_EQ(Map.findNextSet(65), std::optional<size_t>(129));
  EXPECT_EQ(Map.findNextSet(130), std::nullopt);
}

TEST(Bitmap, FindNextSetOnEmptyMap) {
  Bitmap Map(64);
  EXPECT_EQ(Map.findNextSet(0), std::nullopt);
}

//===----------------------------------------------------------------------===//
// SiteHash
//===----------------------------------------------------------------------===//

TEST(SiteHash, MatchesPaperDJB2Definition) {
  // Figure 3: hash = 5381; hash = ((hash << 5) + hash) + pc[i].
  const uint32_t Pc[SiteHashDepth] = {10, 20, 30, 40, 50};
  uint32_t Expected = 5381;
  for (unsigned I = 0; I < SiteHashDepth; ++I)
    Expected = ((Expected << 5) + Expected) + Pc[I];
  EXPECT_EQ(computeSiteHash(Pc), Expected);
}

TEST(SiteHash, AllZeroFramesHashDeterministically) {
  const uint32_t Pc[SiteHashDepth] = {0, 0, 0, 0, 0};
  EXPECT_EQ(computeSiteHash(Pc), computeSiteHash(Pc));
  EXPECT_NE(computeSiteHash(Pc), 0u);
}

TEST(CallContext, EmptyContextHasStableSite) {
  CallContext Context;
  EXPECT_EQ(Context.currentSite(), Context.currentSite());
}

TEST(CallContext, DifferentFramesDifferentSites) {
  CallContext A, B;
  A.pushFrame(1);
  B.pushFrame(2);
  EXPECT_NE(A.currentSite(), B.currentSite());
}

TEST(CallContext, SiteDependsOnFiveInnermostFrames) {
  CallContext A, B;
  // Frames deeper than SiteHashDepth from the top must not matter.
  A.pushFrame(100);
  for (uint32_t F = 1; F <= SiteHashDepth; ++F) {
    A.pushFrame(F);
    B.pushFrame(F);
  }
  EXPECT_EQ(A.currentSite(), B.currentSite());
}

TEST(CallContext, ScopePushesAndPops) {
  CallContext Context;
  Context.pushFrame(7);
  const SiteId Before = Context.currentSite();
  {
    CallContext::Scope Scope(Context, 8);
    EXPECT_NE(Context.currentSite(), Before);
    EXPECT_EQ(Context.depth(), 2u);
  }
  EXPECT_EQ(Context.currentSite(), Before);
  EXPECT_EQ(Context.depth(), 1u);
}

TEST(CallContext, OrderMatters) {
  CallContext A, B;
  A.pushFrame(1);
  A.pushFrame(2);
  B.pushFrame(2);
  B.pushFrame(1);
  EXPECT_NE(A.currentSite(), B.currentSite());
}

//===----------------------------------------------------------------------===//
// Serializer
//===----------------------------------------------------------------------===//

TEST(Serializer, RoundTripScalars) {
  ByteWriter Writer;
  Writer.writeU8(0xab);
  Writer.writeU32(0xdeadbeef);
  Writer.writeU64(0x0123456789abcdefULL);
  Writer.writeF64(3.14159);

  ByteReader Reader(Writer.buffer());
  EXPECT_EQ(Reader.readU8(), 0xab);
  EXPECT_EQ(Reader.readU32(), 0xdeadbeefu);
  EXPECT_EQ(Reader.readU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(Reader.readF64(), 3.14159);
  EXPECT_TRUE(Reader.atEnd());
  EXPECT_FALSE(Reader.failed());
}

TEST(Serializer, RoundTripBlob) {
  ByteWriter Writer;
  Writer.writeBlob({1, 2, 3, 4, 5});
  Writer.writeBlob({6});

  ByteReader Reader(Writer.buffer());
  EXPECT_EQ(Reader.readBlob(), (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Reader.readBlob(), (std::vector<uint8_t>{6}));
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serializer, EmptyBlobRoundTrips) {
  ByteWriter Writer;
  Writer.writeBlob({});
  ByteReader Reader(Writer.buffer());
  EXPECT_TRUE(Reader.readBlob().empty());
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serializer, OverReadSetsStickyFailure) {
  ByteWriter Writer;
  Writer.writeU8(1);
  ByteReader Reader(Writer.buffer());
  Reader.readU8();
  EXPECT_EQ(Reader.readU32(), 0u); // past end: zero + failure
  EXPECT_TRUE(Reader.failed());
  EXPECT_EQ(Reader.readU64(), 0u); // failure is sticky
  EXPECT_FALSE(Reader.atEnd());
}

TEST(Serializer, TruncatedBlobFails) {
  ByteWriter Writer;
  Writer.writeU64(1000); // claims 1000 bytes, provides none
  ByteReader Reader(Writer.buffer());
  EXPECT_TRUE(Reader.readBlob().empty());
  EXPECT_TRUE(Reader.failed());
}

TEST(Serializer, FileRoundTrip) {
  const std::string Path = ::testing::TempDir() + "/serializer_test.bin";
  std::vector<uint8_t> Data = {9, 8, 7, 6, 5};
  ASSERT_TRUE(writeFileBytes(Path, Data));
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFileBytes(Path, Back));
  EXPECT_EQ(Back, Data);
}

TEST(Serializer, ReadMissingFileFails) {
  std::vector<uint8_t> Back;
  EXPECT_FALSE(readFileBytes("/nonexistent/path/nope.bin", Back));
}

TEST(Serializer, WriteFailureDoesNotClobberOrCreate) {
  // Writes go to a temp file and rename over the target; a failure
  // (here: an unwritable directory) must neither create nor disturb
  // anything at the destination path.
  const std::string Path = "/nonexistent/path/nope.bin";
  EXPECT_FALSE(writeFileBytes(Path, {1, 2, 3}));
  std::vector<uint8_t> Back;
  EXPECT_FALSE(readFileBytes(Path, Back));
}

TEST(Serializer, WriteReplacesExistingFileAndLeavesNoTemp) {
  const std::string Path = ::testing::TempDir() + "/serializer_atomic.bin";
  ASSERT_TRUE(writeFileBytes(Path, {1, 1, 1}));
  // A stale temp file from a previous crashed writer must not confuse
  // the replacement.
  ASSERT_TRUE(writeFileBytes(Path + ".tmp", {9, 9, 9, 9, 9}));
  ASSERT_TRUE(writeFileBytes(Path, {2, 2}));
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFileBytes(Path, Back));
  EXPECT_EQ(Back, (std::vector<uint8_t>{2, 2}));
  // The successful rename consumed the temp file.
  EXPECT_FALSE(readFileBytes(Path + ".tmp", Back));
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(Statistics, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Statistics, MeanBasic) { EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5); }

TEST(Statistics, GeometricMeanBasic) {
  EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 8.0, 4.0}), 4.0, 1e-12);
}

TEST(Statistics, GeometricMeanOfIdenticalValues) {
  EXPECT_NEAR(geometricMean({1.25, 1.25, 1.25}), 1.25, 1e-12);
}

TEST(Statistics, RunningStatMatchesClosedForm) {
  RunningStat Stat;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    Stat.add(X);
  EXPECT_EQ(Stat.count(), 8u);
  EXPECT_DOUBLE_EQ(Stat.mean(), 5.0);
  EXPECT_NEAR(Stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(Stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(Stat.max(), 9.0);
}

TEST(Statistics, RunningStatSingleValue) {
  RunningStat Stat;
  Stat.add(3.0);
  EXPECT_DOUBLE_EQ(Stat.mean(), 3.0);
  EXPECT_DOUBLE_EQ(Stat.variance(), 0.0);
}

//===----------------------------------------------------------------------===//
// Serializer: varints and streaming
//===----------------------------------------------------------------------===//

TEST(Serializer, VarintRoundTripsBoundaryValues) {
  ByteWriter Writer;
  const uint64_t Values[] = {0,       1,          127,        128,
                             16383,   16384,      0xffffffff, uint64_t(1) << 35,
                             ~uint64_t(0)};
  for (uint64_t V : Values)
    Writer.writeVarU64(V);
  ByteReader Reader(Writer.buffer());
  for (uint64_t V : Values)
    EXPECT_EQ(Reader.readVarU64(), V);
  EXPECT_TRUE(Reader.atEnd());
}

TEST(Serializer, VarintSmallValuesAreOneByte) {
  ByteWriter Writer;
  Writer.writeVarU64(100);
  EXPECT_EQ(Writer.size(), 1u);
  Writer.writeVarU64(1000);
  EXPECT_EQ(Writer.size(), 3u); // 2 more
}

TEST(Serializer, VarintOverlongEncodingFails) {
  // 11 continuation bytes cannot encode a u64.
  std::vector<uint8_t> Bad(11, 0x80);
  ByteReader Reader(Bad);
  Reader.readVarU64();
  EXPECT_TRUE(Reader.failed());
}

TEST(Serializer, VarintTenthByteOverflowBitsFail) {
  // A tenth byte carrying bits past bit 63 must fail, not silently
  // truncate to a wrong value.
  std::vector<uint8_t> Bad(9, 0x80);
  Bad.push_back(0x7f); // bits 1-6 would shift past bit 63
  ByteReader Reader(Bad);
  EXPECT_EQ(Reader.readVarU64(), 0u);
  EXPECT_TRUE(Reader.failed());

  // The legitimate extreme (bit 63 set, nothing past it) still decodes.
  std::vector<uint8_t> Max(9, 0xff);
  Max.push_back(0x01);
  ByteReader MaxReader(Max);
  EXPECT_EQ(MaxReader.readVarU64(), ~uint64_t(0));
  EXPECT_FALSE(MaxReader.failed());
}

TEST(Serializer, ReadSpanPointsIntoTheBuffer) {
  ByteWriter Writer;
  Writer.writeU32(42);
  Writer.writeBytes("span", 4);
  Writer.writeVarU64(90000);
  const std::vector<uint8_t> Bytes = Writer.take();
  EXPECT_EQ(Writer.size(), 0u);
  ByteReader Reader(Bytes);
  EXPECT_EQ(Reader.readU32(), 42u);
  EXPECT_EQ(Reader.readSpan(4), Bytes.data() + 4);
  EXPECT_EQ(Reader.readVarU64(), 90000u);
  EXPECT_TRUE(Reader.atEnd());
  EXPECT_EQ(Reader.readSpan(1), nullptr);
  EXPECT_TRUE(Reader.failed()); // sticky past-end failure
  ByteReader Empty(nullptr, 0);
  uint8_t Byte = 7;
  EXPECT_TRUE(Empty.readBytes(&Byte, 0));
  EXPECT_FALSE(Empty.readBytes(&Byte, 1));
  EXPECT_EQ(Byte, 0u);
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

TEST(Executor, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Hits(16);
  for (auto &Hit : Hits)
    Hit.store(0);
  parallelFor(Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(Executor, JoinIsABarrier) {
  // Every write must be visible after parallelFor returns, without any
  // synchronization by the caller.
  std::vector<uint64_t> Results(8, 0);
  parallelFor(Results.size(), [&](size_t I) { Results[I] = I * I; });
  for (size_t I = 0; I < Results.size(); ++I)
    EXPECT_EQ(Results[I], I * I);
}

TEST(Executor, IndexZeroRunsOnTheCallingThread) {
  // Body(0) runs on the caller and every other index on a thread of its
  // own; one index is a plain call.
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Ran(3);
  parallelFor(Ran.size(),
              [&](size_t I) { Ran[I] = std::this_thread::get_id(); });
  EXPECT_EQ(Ran[0], Caller);
  EXPECT_NE(Ran[1], Caller);
  EXPECT_NE(Ran[2], Caller);
  EXPECT_NE(Ran[1], Ran[2]);

  std::thread::id Single;
  parallelFor(1, [&](size_t) { Single = std::this_thread::get_id(); });
  EXPECT_EQ(Single, Caller);
}

TEST(Executor, ActuallyRunsConcurrently) {
  // Two tasks that each wait for the other can only finish if they
  // overlap in time.
  std::atomic<int> Arrived{0};
  parallelFor(2, [&](size_t) {
    Arrived.fetch_add(1);
    for (int Spin = 0; Spin < 100000000 && Arrived.load() < 2; ++Spin)
      std::this_thread::yield();
    EXPECT_EQ(Arrived.load(), 2);
  });
}

TEST(Executor, EmptyJobReturnsImmediately) {
  bool Ran = false;
  parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

//===----------------------------------------------------------------------===//
// FlatU64Map
//===----------------------------------------------------------------------===//

TEST(FlatU64Map, EmplaceAndLookup) {
  FlatU64Map<uint32_t> Map;
  EXPECT_EQ(Map.lookup(1), nullptr);
  EXPECT_TRUE(Map.emplace(1, 10));
  EXPECT_TRUE(Map.emplace(2, 20));
  ASSERT_NE(Map.lookup(1), nullptr);
  EXPECT_EQ(*Map.lookup(1), 10u);
  ASSERT_NE(Map.lookup(2), nullptr);
  EXPECT_EQ(*Map.lookup(2), 20u);
  EXPECT_EQ(Map.lookup(3), nullptr);
  EXPECT_EQ(Map.size(), 2u);
}

TEST(FlatU64Map, FirstEmplaceWins) {
  // unordered_map::emplace semantics: the view index keeps the first
  // slot seen for an id.
  FlatU64Map<uint32_t> Map;
  EXPECT_TRUE(Map.emplace(7, 1));
  EXPECT_FALSE(Map.emplace(7, 2));
  EXPECT_EQ(*Map.lookup(7), 1u);
  EXPECT_EQ(Map.size(), 1u);
}

TEST(FlatU64Map, SurvivesGrowthWithConsecutiveKeys) {
  // Object ids are consecutive clock values — the pattern Fibonacci
  // hashing exists to spread.  Push far past the initial capacity.
  FlatU64Map<uint64_t> Map;
  constexpr uint64_t N = 10000;
  for (uint64_t Key = 1; Key <= N; ++Key)
    ASSERT_TRUE(Map.emplace(Key, Key * 3));
  EXPECT_EQ(Map.size(), N);
  for (uint64_t Key = 1; Key <= N; ++Key) {
    ASSERT_NE(Map.lookup(Key), nullptr) << Key;
    EXPECT_EQ(*Map.lookup(Key), Key * 3);
  }
  EXPECT_EQ(Map.lookup(N + 1), nullptr);
}

TEST(FlatU64Map, ReserveAvoidsNothingObservable) {
  // reserve is a pure pre-size: contents and lookups are unchanged.
  FlatU64Map<uint32_t> Reserved, Grown;
  Reserved.reserve(1000);
  for (uint64_t Key = 1; Key <= 1000; ++Key) {
    Reserved.emplace(Key * 977, static_cast<uint32_t>(Key));
    Grown.emplace(Key * 977, static_cast<uint32_t>(Key));
  }
  for (uint64_t Key = 1; Key <= 1000; ++Key) {
    ASSERT_NE(Reserved.lookup(Key * 977), nullptr);
    EXPECT_EQ(*Reserved.lookup(Key * 977), *Grown.lookup(Key * 977));
  }
}

TEST(FlatU64Map, ZeroKeyNeverStoredNeverFound) {
  FlatU64Map<uint32_t> Map;
  Map.emplace(1, 1);
  EXPECT_EQ(Map.lookup(0), nullptr);
}
