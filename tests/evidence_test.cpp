//===- tests/evidence_test.cpp - Evidence-path golden pins --------------------===//
//
// Pins the evidence path (SIMD slot encoding, flat view indexes) to
// golden digests: the captured images of real-workload and scripted-bug
// heaps, the run decomposition of the slot encoder, and the patch sets
// §4 isolation and the diagnosis pipeline derive, each hashed and
// compared with a committed constant under every canary kernel the host
// supports.  The serialized bytes of those captures — v2 image files,
// bundles, bundle files and every wire payload — are pinned the same way.
//
//===----------------------------------------------------------------------===//

#include "heapimage/HeapImageIO.h"

#include "diagnose/DiagnosisPipeline.h"
#include "diefast/Canary.h"
#include "exchange/WireProtocol.h"
#include "heapimage/ImageBundle.h"
#include "patch/PatchIO.h"
#include "runtime/LiveRun.h"
#include "support/RandomGenerator.h"
#include "workload/EspressoWorkload.h"
#include "workload/ScriptedBugs.h"
#include "workload/SquidWorkload.h"
#include "workload/TraceWorkload.h"

#include "GoldenDigest.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

/// Every canary kernel the host runs, one per distinct implementation
/// (unsupported requests degrade to one the host has).
std::vector<canary_dispatch::Mode> hostKernels() {
  std::vector<canary_dispatch::Mode> Kernels;
  std::set<std::string> Seen;
  for (canary_dispatch::Mode Kernel :
       {canary_dispatch::Mode::Scalar, canary_dispatch::Mode::Sse2,
        canary_dispatch::Mode::Avx2, canary_dispatch::Mode::Avx512}) {
    canary_dispatch::force(Kernel);
    if (Seen.insert(canary_dispatch::activeName()).second)
      Kernels.push_back(Kernel);
  }
  canary_dispatch::force(canary_dispatch::Mode::Auto);
  return Kernels;
}

/// Live post-run heaps whose captures the digests pin: both canonical
/// scripted bugs at the seeds imagesFromTrace(Trace, 3) uses, and two
/// real workloads.
struct CaptureFixture {
  const char *Name;
  std::vector<LiveHeapRun> Runs;
  uint64_t Golden;
};

std::vector<LiveHeapRun> traceRuns(const std::vector<TraceOp> &Trace) {
  const TraceWorkload Work(Trace);
  std::vector<LiveHeapRun> Runs;
  for (unsigned I = 0; I < 3; ++I)
    Runs.push_back(runWorkloadKeepHeap(Work, 1, 1000 + I * 7919));
  return Runs;
}

std::vector<CaptureFixture> captureFixtures() {
  std::vector<CaptureFixture> Fixtures;
  Fixtures.push_back({"scripted-overflow", traceRuns(scriptedOverflowTrace(9)),
                      0x14b44f859b4a8ddeull});
  Fixtures.push_back({"scripted-dangling", traceRuns(scriptedDanglingTrace()),
                      0x08f7ff653118e105ull});
  const SquidWorkload Squid;
  Fixtures.push_back({"squid", {}, 0x7ce3f0ab32a5ed08ull});
  Fixtures.back().Runs.push_back(runWorkloadKeepHeap(Squid, 1, 13));
  const EspressoWorkload Espresso;
  Fixtures.push_back({"espresso", {}, 0xf10ec91134894cf7ull});
  Fixtures.back().Runs.push_back(runWorkloadKeepHeap(Espresso, 5, 11));
  return Fixtures;
}

std::vector<HeapImage> captureAll(std::vector<LiveHeapRun> &Runs) {
  std::vector<HeapImage> Images;
  for (LiveHeapRun &Run : Runs)
    Images.push_back(captureHeapImage(Run.diefast()));
  return Images;
}

} // namespace

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

TEST(EvidencePath, CapturesMatchGoldenDigestsUnderEveryKernel) {
  const std::vector<canary_dispatch::Mode> Kernels = hostKernels();
  for (CaptureFixture &Fixture : captureFixtures()) {
    for (canary_dispatch::Mode Kernel : Kernels) {
      canary_dispatch::force(Kernel);
      EXPECT_EQ(imagesDigest(captureAll(Fixture.Runs)), Fixture.Golden)
          << Fixture.Name << ", " << canary_dispatch::activeName();
    }
    canary_dispatch::force(canary_dispatch::Mode::Auto);
  }
}

TEST(EvidencePath, RunCapturesMatchLiveHeapCaptures) {
  // imagesFromTrace captures through runWorkloadOnce; the keep-heap
  // harness above must see the same heaps.
  for (const std::vector<TraceOp> &Trace :
       {scriptedOverflowTrace(9), scriptedDanglingTrace()}) {
    std::vector<LiveHeapRun> Runs = traceRuns(Trace);
    EXPECT_EQ(imagesDigest(imagesFromTrace(Trace, 3)),
              imagesDigest(captureAll(Runs)));
  }
}

//===----------------------------------------------------------------------===//
// View lookups
//===----------------------------------------------------------------------===//

TEST(EvidencePath, ViewLookupsMatchLinearScans) {
  std::vector<HeapImage> Images = imagesFromTrace(scriptedOverflowTrace(9), 1);
  const EspressoWorkload Espresso;
  LiveHeapRun Run = runWorkloadKeepHeap(Espresso, 5, 11);
  Images.push_back(captureHeapImage(Run.diefast()));

  for (const HeapImage &Image : Images) {
    const HeapImageView View(Image);

    // findById against a scan of the id column: ids name one slot each.
    size_t Ids = 0;
    for (uint32_t M = 0; M < Image.miniheapCount(); ++M)
      for (uint32_t S = 0; S < Image.miniheapInfo(M).NumSlots; ++S) {
        const ImageLocation Loc{M, S};
        const uint64_t Id = Image.objectId(Loc);
        if (Id == 0)
          continue;
        ++Ids;
        const std::optional<ImageLocation> Found = View.findById(Id);
        ASSERT_TRUE(Found.has_value()) << "id " << Id;
        EXPECT_TRUE(*Found == Loc) << "id " << Id;
      }
    EXPECT_GT(Ids, 40u); // enough churn to make this meaningful
    EXPECT_FALSE(View.findById(0).has_value());
    EXPECT_FALSE(View.findById(Image.AllocationTime + 1).has_value());
    EXPECT_FALSE(View.findById(~uint64_t(0)).has_value());

    // locateAddress against a scan of the miniheap table, at each slab's
    // edges and at seeded addresses across the whole span.
    auto Expected = [&](uint64_t Address)
        -> std::optional<std::pair<ImageLocation, uint64_t>> {
      for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
        const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
        if (Address < Mini.BaseAddress || Address >= Mini.endAddress())
          continue;
        const uint64_t Offset = Address - Mini.BaseAddress;
        return std::make_pair(
            ImageLocation{M, static_cast<uint32_t>(Offset / Mini.ObjectSize)},
            Offset % Mini.ObjectSize);
      }
      return std::nullopt;
    };
    std::vector<uint64_t> Probes;
    uint64_t Low = ~uint64_t(0), High = 0;
    for (const ImageMiniheapInfo &Mini : Image.miniheaps()) {
      for (uint64_t Probe :
           {Mini.BaseAddress - 1, Mini.BaseAddress,
            Mini.BaseAddress + Mini.ObjectSize + 3, Mini.endAddress() - 1,
            Mini.endAddress()})
        Probes.push_back(Probe);
      Low = std::min(Low, Mini.BaseAddress);
      High = std::max(High, Mini.endAddress());
    }
    RandomGenerator Rng(17);
    for (int I = 0; I < 4000; ++I)
      Probes.push_back(Low - 64 + Rng.nextBelow(High - Low + 128));
    size_t Hits = 0;
    for (uint64_t Probe : Probes) {
      const auto Want = Expected(Probe);
      const auto Got = View.locateAddress(Probe);
      ASSERT_EQ(Got.has_value(), Want.has_value()) << std::hex << Probe;
      if (!Want)
        continue;
      ++Hits;
      EXPECT_TRUE(Got->first == Want->first) << std::hex << Probe;
      EXPECT_EQ(Got->second, Want->second) << std::hex << Probe;
    }
    EXPECT_GT(Hits, 2 * Image.miniheapCount());
  }
}

//===----------------------------------------------------------------------===//
// Slot encoder
//===----------------------------------------------------------------------===//

namespace {

struct ExpectedRun {
  uint8_t Kind;
  uint32_t Length;
  uint64_t Word; // pattern runs only
};

HeapImage encodeSlot(const std::vector<uint8_t> &Bytes) {
  HeapImage Image;
  Image.beginMiniheap(0, Bytes.size(), 0x1000, 0);
  Image.addSlot(0, 0, 0, 0, 0, 0);
  Image.addSlotBytes(Bytes.data(), Bytes.size());
  return Image;
}

std::vector<uint8_t> wordsToBytes(const std::vector<uint64_t> &Words) {
  std::vector<uint8_t> Bytes(Words.size() * 8);
  for (size_t I = 0; I < Words.size(); ++I)
    std::memcpy(Bytes.data() + 8 * I, &Words[I], 8);
  return Bytes;
}

} // namespace

TEST(EvidencePath, EncoderMatchesGoldenRunsUnderEveryKernel) {
  // Adversarial run shapes: uniform, alternating, runs at either edge,
  // runs meeting exactly the 2-word pattern threshold.  A pattern run
  // starts where two adjacent words first match; a whole-slot single
  // word is a pattern run too.
  constexpr uint8_t L = ContentsRun::Literal, P = ContentsRun::Pattern;
  const std::vector<std::pair<std::vector<uint64_t>, std::vector<ExpectedRun>>>
      Cases = {
          {{0}, {{P, 8, 0}}},
          {{5, 5}, {{P, 16, 5}}},
          {{1, 2, 3, 4}, {{L, 32, 0}}},
          {{7, 7, 1, 9, 9, 9, 2, 3},
           {{P, 16, 7}, {L, 8, 0}, {P, 24, 9}, {L, 16, 0}}},
          {{1, 2, 2, 3, 3, 3, 3, 4},
           {{L, 8, 0}, {P, 16, 2}, {P, 32, 3}, {L, 8, 0}}},
          {{0, 0, 0, 1}, {{P, 24, 0}, {L, 8, 0}}},
          {{1, 0, 0, 0}, {{L, 8, 0}, {P, 24, 0}}},
      };

  // A pseudo-random mix with embedded runs.
  std::vector<uint64_t> Mixed(64);
  uint64_t State = 0x12345;
  for (uint64_t &Word : Mixed) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Word = (State >> 60) < 10 ? State : 0xABCDABCDABCDABCDull;
  }
  constexpr uint64_t GoldenMixed = 0x8f8a146fc8f28d91ull;

  for (canary_dispatch::Mode Kernel : hostKernels()) {
    canary_dispatch::force(Kernel);
    const char *KernelName = canary_dispatch::activeName();
    for (const auto &[Words, Expected] : Cases) {
      const std::vector<uint8_t> Bytes = wordsToBytes(Words);
      const HeapImage Image = encodeSlot(Bytes);
      ASSERT_EQ(Image.runs().size(), Expected.size())
          << Words.size() << " words under " << KernelName;
      for (size_t R = 0; R < Expected.size(); ++R) {
        const ContentsRun &Run = Image.runs()[R];
        EXPECT_EQ(Run.RunKind, Expected[R].Kind) << "run " << R;
        EXPECT_EQ(Run.Length, Expected[R].Length) << "run " << R;
        if (Run.RunKind == ContentsRun::Pattern) {
          EXPECT_EQ(Run.Word, Expected[R].Word) << "run " << R;
        }
      }
      EXPECT_EQ(Image.contentsAt(0).decode(), Bytes) << KernelName;
    }
    const HeapImage MixedImage = encodeSlot(wordsToBytes(Mixed));
    EXPECT_EQ(imageDigest(MixedImage), GoldenMixed) << KernelName;
    EXPECT_EQ(MixedImage.contentsAt(0).decode(), wordsToBytes(Mixed));
  }
  canary_dispatch::force(canary_dispatch::Mode::Auto);
}

//===----------------------------------------------------------------------===//
// Diagnosis (the patch-set pins)
//===----------------------------------------------------------------------===//

namespace {

/// Digest of everything §4 isolation reports besides the patch set.
uint64_t findingsDigest(const IsolationResult &Result) {
  Fnv1a H;
  H.u64(Result.Overflows.size());
  for (const OverflowCandidate &C : Result.Overflows) {
    H.u64(C.CulpritObjectId);
    H.u64(C.CulpritAllocSite);
    H.u64(C.EvidenceBytes);
    H.u64(C.Confirmations);
    H.f64(C.Score);
    H.u64(C.PadBytes);
    H.u64(C.FrontPadBytes);
  }
  H.u64(Result.Danglings.size());
  for (const DanglingFinding &D : Result.Danglings) {
    H.u64(D.ObjectId);
    H.u64(D.AllocSite);
    H.u64(D.FreeSite);
    H.u64(D.FreeTime);
    H.u64(D.FailureTime);
    H.u64(D.DeferralTicks);
  }
  return H.value();
}

struct IsolationGolden {
  const char *Name;
  std::vector<TraceOp> Trace;
  uint64_t PatchDigest;
  size_t PatchBytes;
  uint64_t FindingsDigest;
};

} // namespace

TEST(EvidencePath, IsolationDerivesGoldenPatchSets) {
  const IsolationGolden Cases[] = {
      {"scripted-overflow", scriptedOverflowTrace(9), 0x0de2bbe93fabb2d8ull,
       36, 0xca6ab6571cbb927eull},
      {"scripted-dangling", scriptedDanglingTrace(), 0x662bf3bacf3c9f86ull, 44,
       0x71634cde16ac60bfull},
  };
  for (const IsolationGolden &Case : Cases) {
    const IsolationResult Result =
        isolateErrors(imagesFromTrace(Case.Trace, 3));
    const std::vector<uint8_t> Bytes = serializePatchSet(Result.Patches);
    EXPECT_EQ(fnv1a64(Bytes), Case.PatchDigest) << Case.Name;
    EXPECT_EQ(Bytes.size(), Case.PatchBytes) << Case.Name;
    EXPECT_EQ(findingsDigest(Result), Case.FindingsDigest) << Case.Name;
  }
}

TEST(EvidencePath, PipelineDerivesGoldenPatchSetAndEpoch) {
  const ImageEvidence Overflow{imagesFromTrace(scriptedOverflowTrace(9), 3),
                               {}};
  const ImageEvidence Dangling{imagesFromTrace(scriptedDanglingTrace(), 3),
                               {}};

  DiagnosisPipeline Pipeline;
  Pipeline.submitImages(Overflow);
  EXPECT_EQ(Pipeline.epoch(), 1u);
  Pipeline.submitImages(Dangling);
  EXPECT_EQ(Pipeline.epoch(), 2u);
  const std::vector<uint8_t> Bytes = serializePatchSet(Pipeline.patches());
  EXPECT_EQ(fnv1a64(Bytes), 0x2a868af25ad30b81ull);
  EXPECT_EQ(Bytes.size(), 52u);
}

//===----------------------------------------------------------------------===//
// Serialized bytes
//===----------------------------------------------------------------------===//

namespace {

/// One serialized artifact and the FNV-1a-64 digest and size its bytes
/// had when the constants were recorded.
struct BytesGolden {
  std::string Name;
  std::vector<uint8_t> Bytes;
  uint64_t Digest;
  size_t Size;
};

void expectGoldenBytes(const std::vector<BytesGolden> &Cases) {
  for (const BytesGolden &Case : Cases) {
    const uint64_t Digest = fnv1a64(Case.Bytes);
    EXPECT_EQ(Digest, Case.Digest)
        << Case.Name << ": 0x" << std::hex << Digest;
    EXPECT_EQ(Case.Bytes.size(), Case.Size) << Case.Name;
  }
}

std::vector<uint8_t> fileBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes)) << Path;
  return Bytes;
}

/// The capture fixtures' images at fixed slab addresses, by name.
std::vector<HeapImage> fixtureImages(const char *Name) {
  for (CaptureFixture &Fixture : captureFixtures())
    if (std::strcmp(Fixture.Name, Name) == 0)
      return rebasedImages(captureAll(Fixture.Runs));
  ADD_FAILURE() << "no fixture " << Name;
  return {};
}

} // namespace

TEST(EvidencePath, HeapImageBytesMatchGoldenDigests) {
  const std::pair<const char *, std::pair<uint64_t, size_t>> Goldens[] = {
      {"scripted-overflow", {0xb44a8964712655b7ull, 3786}},
      {"scripted-dangling", {0xd6630903575d71f4ull, 2215}},
      {"squid", {0xf3466806df2f6c0full, 1290}},
      {"espresso", {0x0a990c7df26f7853ull, 8986}},
  };
  std::vector<BytesGolden> Cases;
  for (const auto &[Name, Golden] : Goldens) {
    std::vector<uint8_t> Bytes;
    for (const HeapImage &Image : fixtureImages(Name)) {
      const std::vector<uint8_t> One = serializeHeapImage(Image);
      Bytes.insert(Bytes.end(), One.begin(), One.end());
    }
    Cases.push_back({Name, std::move(Bytes), Golden.first, Golden.second});
  }
  // A saved file holds exactly the serialized bytes.
  const HeapImage Image = fixtureImages("scripted-overflow").front();
  const std::string Path = ::testing::TempDir() + "/golden_image.xhi";
  ASSERT_TRUE(saveHeapImage(Image, Path));
  Cases.push_back({"scripted-overflow run0.xhi", fileBytes(Path),
                   0x226839a9ba2556edull, 1259});
  expectGoldenBytes(Cases);
}

TEST(EvidencePath, BundleBytesMatchGoldenDigests) {
  // The scripted-overflow bundle's members use full and metadata
  // references, and its bodies CanaryRun, virgin-run, pattern and
  // literal records.
  const std::vector<HeapImage> Overflow = fixtureImages("scripted-overflow");
  const std::vector<HeapImage> Dangling = fixtureImages("scripted-dangling");
  // Two programs' images in one bundle: the squid base shares no slot
  // metadata with the espresso members, so every member is encoded in
  // full and the raw stream spans three 256 KiB container blocks.
  std::vector<HeapImage> Mixed = fixtureImages("squid");
  const HeapImage Espresso = fixtureImages("espresso").front();
  Mixed.resize(1 + 100, Espresso);
  ASSERT_GT(serializeImageBundle(Mixed).size(), size_t(512) * 1024);

  std::vector<BytesGolden> Cases;
  Cases.push_back({"overflow bundle", serializeImageBundle(Overflow),
                   0x3cff5762de083128ull, 1753});
  Cases.push_back({"dangling bundle", serializeImageBundle(Dangling),
                   0xf4772161fd8f4b8dull, 1354});
  Cases.push_back({"mixed bundle", serializeImageBundle(Mixed),
                   0x6131a241024069f9ull, 560907});
  // `xtermtool record`'s evidence.xib, and the multi-block container.
  const std::string Record = ::testing::TempDir() + "/golden_record.xib";
  ASSERT_TRUE(saveImageBundle(rebasedImages(scriptedEvidenceImages(3, 9)),
                              Record));
  Cases.push_back({"record evidence.xib", fileBytes(Record),
                   0x447b7d596c308061ull, 926});
  const std::string Large = ::testing::TempDir() + "/golden_mixed.xib";
  ASSERT_TRUE(saveImageBundle(Mixed, Large));
  Cases.push_back({"mixed .xib", fileBytes(Large), 0x1e72d5b401cfa318ull,
                   11784});
  expectGoldenBytes(Cases);
}

TEST(EvidencePath, WirePayloadBytesMatchGoldenDigests) {
  const std::vector<HeapImage> Overflow = fixtureImages("scripted-overflow");
  const ImageEvidence Evidence{Overflow, fixtureImages("scripted-dangling")};
  const DiagnosisPipeline Scratch;
  const RunSummary Summary = Scratch.summarize(Overflow.front(), true);
  PatchSet Patches;
  Patches.addPad(0xabc, 24);
  Patches.addFrontPad(0xdef, 16);
  Patches.addDeferral(0x123, 0x456, 512);
  Patches.addHardwareReport(0x7f0000001000ull, 0x3, 4);

  ImagesReply Images;
  Images.Instance = 0x1122334455667788ull;
  Images.Epoch = 7;
  Images.OverflowFindings = 2;
  Images.DanglingFindings = 300;

  SummaryReply Summaries;
  Summaries.Instance = 0x0102030405060708ull;
  Summaries.Epoch = 9;
  CumulativeOverflowFinding Overflowing;
  Overflowing.AllocSite = 0xabc;
  Overflowing.LogBayesFactor = 3.5;
  Overflowing.LogThreshold = 1.25;
  Overflowing.PadBytes = 24;
  Overflowing.TrialCount = 7;
  Overflowing.ObservedCount = 6;
  Summaries.Diagnosis.Overflows.push_back(Overflowing);
  CumulativeDanglingFinding Dangling;
  Dangling.AllocSite = 0x123;
  Dangling.FreeSite = 0x456;
  Dangling.LogBayesFactor = -0.75;
  Dangling.LogThreshold = 2.0;
  Dangling.DeferralTicks = 512;
  Dangling.TrialCount = 4;
  Dangling.ObservedCount = 4;
  Summaries.Diagnosis.Danglings.push_back(Dangling);

  PatchesReply Modified;
  Modified.Instance = 0xfeedull;
  Modified.Epoch = 3;
  Modified.Modified = true;
  Modified.Patches = Patches;
  PatchesReply Unmodified = Modified;
  Unmodified.Modified = false;

  StatsReply Samples;
  Samples.Instance = 5;
  Samples.Epoch = 6;
  Samples.Format = StatsFormat::Samples;
  Samples.Samples.push_back({"xterm_ingest_images_total", "", 12.0,
                             SampleKind::Counter});
  Samples.Samples.push_back(
      {"xterm_active_patches", "kind=\"pad\"", 1.0, SampleKind::Gauge});
  StatsReply Text;
  Text.Instance = 5;
  Text.Epoch = 6;
  Text.Format = StatsFormat::Text;
  Text.Text = "xterm_active_patches{kind=\"pad\"} 1\n";

  expectGoldenBytes({
      {"SubmitImages", encodeSubmitImages(Evidence), 0xb77da71cc86868ccull,
       3107},
      {"SubmitSummary",
       encodeSubmitSummary(Summary, 3, 0xdeadbeefcafef00dull),
       0x64bf0baf2cedeb4cull, 99},
      {"FetchPatches", encodeFetchPatches(41, 0x0a0b0c0d0e0f1011ull),
       0x5c5d1f8ea75a919cull, 16},
      {"StatsRequest", encodeStatsRequest(StatsFormat::Text),
       0xaf63bc4c8601b62cull, 1},
      {"SubmitImagesReply", encodeImagesReply(Images), 0xdb942ecf809e2d82ull,
       19},
      {"SubmitSummaryReply", encodeSummaryReply(Summaries),
       0x41f2932a4c7f6565ull, 90},
      {"PatchesReply modified", encodePatchesReply(Modified),
       0x9e24aa64769f090full, 106},
      {"PatchesReply unmodified", encodePatchesReply(Unmodified),
       0x00f519b2465c6f93ull, 17},
      {"ErrorReply", encodeErrorReply("oversized declared expansion"),
       0xd13cf21e391336a7ull, 29},
      {"StatsReply samples", encodeStatsReply(Samples), 0x047c1d17172eebdcull,
       95},
      {"StatsReply text", encodeStatsReply(Text), 0x2fcb517040c73b5dull, 53},
  });
}
