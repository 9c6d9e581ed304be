//===- bench/exp_collaborative.cpp - §6.4 collaborative correction --------------===//
//
// Regenerates the §6.4 collaborative-correction scenario: different users
// hit different bugs in the same application; each produces a runtime
// patch file; the merge utility max-combines them into one patch file
// covering every observed error, which then fixes all bugs for everyone.
//
// The paper also reports patch file sizes ("the size of the runtime
// patches ... for injected errors in espresso was just 130K, and shrinks
// to 17K compressed"); we report our (binary, already compact) sizes.
//
// PR 3 extends this with the patch exchange: the same collaboration as a
// client/server service.  The bench measures the exchange's ingest
// throughput over the deterministic loopback transport (image
// submissions and summary submissions per second, full frame encode →
// decode → diagnose per item) and the ImageBundle saving (one
// cross-image site dictionary vs N independent v2 images).
//
// The observability-plane overhead measurement submits one summary
// stream over loopback into a fresh server, once bare and once with a
// MetricsRegistry attached (plus one scrape), in alternating timed
// blocks.  Each side reports its *best* block (noise and scheduler
// interference only ever slow a block down, so best-of is the robust
// comparator), and a non-smoke run exits nonzero when the overhead
// exceeds the 2% target.
//
// PR 10 also adds the codec section: the LZ block codec's compression
// ratio and encode/decode throughput over a representative evidence
// stream (replicated espresso dumps as concatenated independent v2
// images — the kind of bytes the wire, the state dir, and the bundle
// container all route through codec/), and the bundle comparison: the
// delta-encoded bundle against the same images as independent v2 files.
//
// --json FILE writes BENCH_exchange.json (schema in ROADMAP.md):
//   schema_version        6
//   config                {smoke, hardware_threads, cpu_model,
//                          images_per_submission, image_rounds,
//                          summary_rounds}
//   ingest[]              {kind, items, seconds, per_sec} for
//                         kind ∈ {image-submission, image, summary}
//   bundle                {images, bundle_bytes, independent_bytes,
//                          ratio}
//   codec                 {raw_bytes, compressed_bytes, ratio,
//                          encode_mb_per_sec, decode_mb_per_sec}
//   collaboration         {users, pads_merged, all_protected}
//   stats_overhead        {rounds, summaries_per_round, base_per_sec,
//                          instrumented_per_sec, overhead_pct,
//                          target_pct}
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "codec/BlockCodec.h"
#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "heapimage/HeapImageIO.h"
#include "observe/MetricsRegistry.h"
#include "heapimage/ImageBundle.h"
#include "patch/PatchIO.h"
#include "patch/PatchMerge.h"
#include "runtime/IterativeDriver.h"
#include "workload/EspressoWorkload.h"
#include "workload/ScriptedBugs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace exterminator;
using namespace benchreport;


int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: exp_collaborative [--smoke] [--json FILE]\n");
      return 2;
    }
  }

  heading("Sec 6.4: collaborative bug correction");
  note("three users, each hitting a different injected overflow; patches "
       "merge by maximum");

  struct UserBug {
    uint64_t Trigger;
    uint32_t Bytes;
  };
  const UserBug Bugs[3] = {{320, 8}, {430, 24}, {540, 36}};

  Table UsersTable({"user", "bug (alloc#, size)", "isolated", "pads",
                    "patch file (B)"});
  std::vector<PatchSet> UserPatches;
  std::vector<ExterminatorConfig> UserConfigs;

  for (unsigned User = 0; User < 3; ++User) {
    EspressoWorkload Work;
    ExterminatorConfig Config;
    Config.MasterSeed = 0xc011ab + User * 811;
    Config.Fault.Kind = FaultKind::BufferOverflow;
    Config.Fault.TriggerAllocation = Bugs[User].Trigger;
    Config.Fault.OverflowBytes = Bugs[User].Bytes;
    Config.Fault.OverflowDelay = 7;
    Config.Fault.PatternSeed = 5000 + User;
    UserConfigs.push_back(Config);

    IterativeDriver Driver(Work, Config);
    const IterativeOutcome Outcome = Driver.run(/*InputSeed=*/5);
    UserPatches.push_back(Outcome.Patches);

    UsersTable.addRow(
        {fmt("%u", User),
         fmt("#%llu, %uB",
             static_cast<unsigned long long>(Bugs[User].Trigger),
             Bugs[User].Bytes),
         Outcome.Corrected ? "yes" : "no",
         fmt("%zu", Outcome.Patches.padCount()),
         fmt("%zu", serializePatchSet(Outcome.Patches).size())});
  }
  UsersTable.print();

  // The community merge, now through the exchange: every user's patches
  // seed one server, every user fetches the merged set.
  PatchServer MergeServer;
  for (const PatchSet &Patches : UserPatches)
    MergeServer.seedPatches(Patches);
  LoopbackTransport MergeTransport(MergeServer);
  PatchClient MergeClient(MergeTransport);
  if (!MergeClient.fetchPatches()) {
    std::fprintf(stderr, "exchange fetch failed\n");
    return 1;
  }
  const PatchSet &Merged = MergeClient.patches();
  note("merged patch (served at epoch %llu): %zu pads, %zu deferrals, "
       "%zu bytes on disk",
       static_cast<unsigned long long>(MergeClient.epoch()),
       Merged.padCount(), Merged.deferralCount(),
       serializePatchSet(Merged).size());

  Table Verify({"user", "own-bug run w/ merged patches", "DieFast signals"});
  unsigned AllFixed = 0;
  for (unsigned User = 0; User < 3; ++User) {
    EspressoWorkload Work;
    const SingleRunResult Run = runWorkloadOnce(
        Work, /*InputSeed=*/5, /*HeapSeed=*/0x4e5e + User,
        UserConfigs[User], Merged);
    const bool Clean = !Run.failed() && !Run.ErrorSignalled;
    AllFixed += Clean;
    Verify.addRow({fmt("%u", User), Clean ? "clean" : "STILL FAILING",
                   fmt("%llu", static_cast<unsigned long long>(
                                   Run.ErrorSignalled ? 1 : 0))});
  }
  Verify.print();
  note("users whose bug the merged patch fixes: %u/3 (paper: patches "
       "compose by construction)",
       AllFixed);

  //===--------------------------------------------------------------------===//
  // Exchange ingest throughput (loopback: deterministic, no socket noise)
  //===--------------------------------------------------------------------===//

  heading("PR 3: patch-exchange ingest throughput (loopback)");

  const unsigned ImagesPerSubmission = 3;
  const unsigned ImageRounds = Smoke ? 5 : 50;
  const unsigned SummaryRounds = Smoke ? 200 : 2000;

  const std::vector<HeapImage> Evidence =
      scriptedEvidenceImages(ImagesPerSubmission, /*OverflowBytes=*/9);
  DiagnosisPipeline Summarizer;
  const RunSummary Summary =
      Summarizer.summarize(Evidence.front(), /*Failed=*/true);

  PatchServer IngestServer;
  LoopbackTransport IngestTransport(IngestServer);
  PatchClient IngestClient(IngestTransport);

  // Image ingest: each submission frames a 3-image bundle, the server
  // decodes it and runs full §4 isolation.
  bool IngestOk = true;
  const double ImageSeconds = timeSeconds([&] {
    for (unsigned I = 0; I < ImageRounds; ++I)
      IngestOk &= IngestClient.submitImages({Evidence, {}});
  });
  const double SubmissionsPerSec = ImageRounds / ImageSeconds;
  const double ImagesPerSec =
      ImageRounds * double(ImagesPerSubmission) / ImageSeconds;

  // Summary ingest: the kilobyte-sized evidence cumulative mode ships.
  const double SummarySeconds = timeSeconds([&] {
    for (unsigned I = 0; I < SummaryRounds; ++I)
      IngestOk &= IngestClient.submitSummary(Summary, 0);
  });
  if (!IngestOk) {
    std::fprintf(stderr, "ingest submissions failed; throughput numbers "
                         "would be bogus\n");
    return 1;
  }
  const double SummariesPerSec = SummaryRounds / SummarySeconds;

  Table Ingest({"kind", "items", "seconds", "per second"});
  Ingest.addRow({"image submission (3-image bundle + isolation)",
                 fmt("%u", ImageRounds), fmt("%.3f", ImageSeconds),
                 fmt("%.0f", SubmissionsPerSec)});
  Ingest.addRow({"image", fmt("%u", ImageRounds * ImagesPerSubmission),
                 fmt("%.3f", ImageSeconds), fmt("%.0f", ImagesPerSec)});
  Ingest.addRow({"summary (+ Bayes classification)",
                 fmt("%u", SummaryRounds), fmt("%.3f", SummarySeconds),
                 fmt("%.0f", SummariesPerSec)});
  Ingest.print();
  const PatchServerStats IngestStats = IngestServer.stats();
  note("server counters: %llu images, %llu summaries, 0 expected "
       "rejects (got %llu)",
       static_cast<unsigned long long>(IngestStats.ImagesIngested),
       static_cast<unsigned long long>(IngestStats.SummariesIngested),
       static_cast<unsigned long long>(IngestStats.FramesRejected));

  //===--------------------------------------------------------------------===//
  // Observability-plane overhead (registry vs no-op)
  //===--------------------------------------------------------------------===//

  heading("PR 8: observability-plane overhead (registry vs no-op)");
  note("same summary stream into a fresh server over loopback, "
       "alternating bare and instrumented blocks, best block per side; "
       "the pull-collector design touches nothing on the ingest path, so "
       "the delta should be noise");

  const unsigned OverheadRounds = Smoke ? 6 : 12;
  // 1,500 summaries keep a block near 0.1 s, long enough that timer and
  // scheduler noise stay well inside the 2% target.
  const unsigned OverheadSummaries = Smoke ? 300 : 1500;

  // One ingest block: a fresh server takes the summary stream over
  // loopback.  When \p Instrumented, the server publishes into a
  // registry and one scrape runs at the end — the steady-state shape of
  // a monitored server.
  auto ingestSeconds = [&](bool Instrumented) -> double {
    MetricsRegistry Registry;
    PatchServer Server;
    if (Instrumented)
      Server.attachMetrics(Registry);
    LoopbackTransport Transport(Server);
    PatchClient Client(Transport);
    bool Ok = true;
    const double Seconds = timeSeconds([&] {
      for (unsigned I = 0; I < OverheadSummaries; ++I)
        Ok &= Client.submitSummary(Summary, 0);
    });
    if (Instrumented && Registry.snapshot().Samples.empty())
      Ok = false; // scrape must actually see the server
    return Ok ? Seconds : -1.0;
  };

  // Alternate bare/instrumented so clock drift and cache warmth hit
  // both sides equally; first pair is a discarded warmup.  Each side
  // reports its *best* block: a summed comparator lets one block that
  // ate a scheduler preemption or page-cache stall manufacture percent-
  // level "overhead" out of thin air (the committed 7.58% artifact),
  // while interference can only ever make a block slower, never faster
  // — so min-of-rounds converges on the true cost from above.
  ingestSeconds(false);
  ingestSeconds(true);
  double BestBase = 0.0, BestInstr = 0.0;
  bool OverheadOk = true;
  for (unsigned Round = 0; Round < OverheadRounds; ++Round) {
    const double Base = ingestSeconds(false);
    const double Instr = ingestSeconds(true);
    OverheadOk &= Base > 0.0 && Instr > 0.0;
    BestBase = Round == 0 ? Base : std::min(BestBase, Base);
    BestInstr = Round == 0 ? Instr : std::min(BestInstr, Instr);
  }
  if (!OverheadOk) {
    std::fprintf(stderr, "overhead measurement ingest failed\n");
    return 1;
  }
  const double OverheadTargetPct = 2.0;
  const double BasePerSec = OverheadSummaries / BestBase;
  const double InstrPerSec = OverheadSummaries / BestInstr;
  const double OverheadPct = (BestInstr / BestBase - 1.0) * 100.0;

  Table Overhead({"server", "summaries/block", "best block (s)",
                  "per second"});
  Overhead.addRow({"bare (no registry)", fmt("%u", OverheadSummaries),
                   fmt("%.3f", BestBase), fmt("%.0f", BasePerSec)});
  Overhead.addRow({"instrumented (registry + scrape)",
                   fmt("%u", OverheadSummaries), fmt("%.3f", BestInstr),
                   fmt("%.0f", InstrPerSec)});
  Overhead.print();
  note("observability overhead: %+.2f%% ingest cost over %u blocks/side "
       "(target: <= %.0f%%)",
       OverheadPct, OverheadRounds, OverheadTargetPct);
  if (!Smoke && OverheadPct > OverheadTargetPct) {
    std::fprintf(stderr,
                 "observability overhead %.2f%% exceeds the %.0f%% target\n",
                 OverheadPct, OverheadTargetPct);
    return 1;
  }

  //===--------------------------------------------------------------------===//
  // Bundle vs independent images
  //===--------------------------------------------------------------------===//

  heading("PR 10: delta ImageBundle vs independent images");
  // Replicated espresso dumps: the site-rich images real deployments
  // ship (the trace evidence above references too few sites to show the
  // shared dictionary off).
  const unsigned BundleImages = Smoke ? 3 : 5;
  std::vector<HeapImage> Dumps;
  for (unsigned I = 0; I < BundleImages; ++I) {
    EspressoWorkload Work;
    ExterminatorConfig Config;
    Dumps.push_back(
        runWorkloadOnce(Work, /*InputSeed=*/5, /*HeapSeed=*/11 + I * 101,
                        Config, PatchSet())
            .FinalImage);
  }
  // The independent images, concatenated, are also the codec section's
  // representative input below.
  std::vector<uint8_t> IndependentImages;
  for (const HeapImage &Image : Dumps) {
    const std::vector<uint8_t> Bytes = serializeHeapImage(Image);
    IndependentImages.insert(IndependentImages.end(), Bytes.begin(),
                             Bytes.end());
  }
  const size_t IndependentBytes = IndependentImages.size();
  const size_t BundleBytes = serializeImageBundle(Dumps).size();
  const double Ratio = double(BundleBytes) / double(IndependentBytes);
  Table Bundles({"encoding", "bytes", "vs independent"});
  Bundles.addRow({"independent v2 images", fmt("%zu", IndependentBytes),
                  "1.000x"});
  Bundles.addRow({"v2 bundle (delta vs first image)",
                  fmt("%zu", BundleBytes), fmt("%.3fx", Ratio)});
  Bundles.print();
  note("%u replicated espresso dumps: delta encoding %.3fx of independent "
       "(target: <= 0.5, pinned by codec_test)",
       BundleImages, Ratio);
  if (Ratio > 0.5) {
    std::fprintf(stderr, "delta bundle ratio %.3f exceeds the 0.5 target\n",
                 Ratio);
    return 1;
  }

  //===--------------------------------------------------------------------===//
  // Block codec ratio and throughput
  //===--------------------------------------------------------------------===//

  heading("PR 10: block codec ratio + throughput");
  note("LZ block codec over independent v2 evidence images — the kind of "
       "byte stream wire frames, snapshots, and the bundle container all "
       "route through");

  // Representative input: the independent v2 images above —
  // varint-packed metadata and repeated slot structure, the evidence
  // the delta bundle and the codec both attack.
  const std::vector<uint8_t> &CodecRaw = IndependentImages;
  std::vector<uint8_t> CodecComp;
  const size_t CodecCompBytes = lzCompress(CodecRaw.data(), CodecRaw.size(),
                                           CodecComp);
  std::vector<uint8_t> CodecOut(CodecRaw.size());
  if (CodecCompBytes == 0 ||
      !lzDecompress(CodecComp.data(), CodecComp.size(), CodecOut.data(),
                    CodecOut.size()) ||
      CodecOut != CodecRaw) {
    std::fprintf(stderr, "codec round trip failed on bundle bytes\n");
    return 1;
  }
  const double CodecRatio = double(CodecCompBytes) / double(CodecRaw.size());

  // Best-of-blocks throughput, same discipline as stats_overhead: each
  // block runs the transform enough times to outlast timer noise.
  const unsigned CodecBlocks = Smoke ? 3 : 8;
  const unsigned CodecReps = Smoke ? 4 : 16;
  double BestEncode = 0.0, BestDecode = 0.0;
  for (unsigned Block = 0; Block < CodecBlocks; ++Block) {
    const double Encode = timeSeconds([&] {
      for (unsigned I = 0; I < CodecReps; ++I)
        lzCompress(CodecRaw.data(), CodecRaw.size(), CodecComp);
    });
    const double Decode = timeSeconds([&] {
      for (unsigned I = 0; I < CodecReps; ++I)
        lzDecompress(CodecComp.data(), CodecComp.size(), CodecOut.data(),
                     CodecOut.size());
    });
    BestEncode = Block == 0 ? Encode : std::min(BestEncode, Encode);
    BestDecode = Block == 0 ? Decode : std::min(BestDecode, Decode);
  }
  const double BlockMb = double(CodecRaw.size()) * CodecReps / 1e6;
  const double EncodeMbPerSec = BlockMb / BestEncode;
  const double DecodeMbPerSec = BlockMb / BestDecode;

  Table Codec({"metric", "value"});
  Codec.addRow({"raw bytes", fmt("%zu", CodecRaw.size())});
  Codec.addRow({"compressed bytes", fmt("%zu", CodecCompBytes)});
  Codec.addRow({"ratio", fmt("%.3f", CodecRatio)});
  Codec.addRow({fmt("encode MB/s (best of %u blocks)", CodecBlocks),
                fmt("%.0f", EncodeMbPerSec)});
  Codec.addRow({fmt("decode MB/s (best of %u blocks)", CodecBlocks),
                fmt("%.0f", DecodeMbPerSec)});
  Codec.print();
  note("paper reference: espresso patches were \"130K, and shrinks to 17K "
       "compressed\" — compression has been part of the story since §6.4");

  //===--------------------------------------------------------------------===//
  // Machine-readable report
  //===--------------------------------------------------------------------===//

  if (!JsonPath.empty()) {
    JsonWriter Json;
    Json.beginObject();
    Json.field("schema_version", 6);
    Json.beginObject("config");
    Json.field("smoke", Smoke);
    Json.field("hardware_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    Json.field("cpu_model", cpuModel());
    Json.field("images_per_submission", int(ImagesPerSubmission));
    Json.field("image_rounds", int(ImageRounds));
    Json.field("summary_rounds", int(SummaryRounds));
    Json.endObject();
    Json.beginArray("ingest");
    Json.beginObject();
    Json.field("kind", "image-submission");
    Json.field("items", uint64_t(ImageRounds));
    Json.field("seconds", ImageSeconds);
    Json.field("per_sec", SubmissionsPerSec);
    Json.endObject();
    Json.beginObject();
    Json.field("kind", "image");
    Json.field("items", uint64_t(ImageRounds) * ImagesPerSubmission);
    Json.field("seconds", ImageSeconds);
    Json.field("per_sec", ImagesPerSec);
    Json.endObject();
    Json.beginObject();
    Json.field("kind", "summary");
    Json.field("items", uint64_t(SummaryRounds));
    Json.field("seconds", SummarySeconds);
    Json.field("per_sec", SummariesPerSec);
    Json.endObject();
    Json.endArray();
    Json.beginObject("bundle");
    Json.field("images", uint64_t(BundleImages));
    Json.field("bundle_bytes", uint64_t(BundleBytes));
    Json.field("independent_bytes", uint64_t(IndependentBytes));
    Json.field("ratio", Ratio);
    Json.endObject();
    Json.beginObject("codec");
    Json.field("raw_bytes", uint64_t(CodecRaw.size()));
    Json.field("compressed_bytes", uint64_t(CodecCompBytes));
    Json.field("ratio", CodecRatio);
    Json.field("encode_mb_per_sec", EncodeMbPerSec);
    Json.field("decode_mb_per_sec", DecodeMbPerSec);
    Json.endObject();
    Json.beginObject("collaboration");
    Json.field("users", 3);
    Json.field("pads_merged", uint64_t(Merged.padCount()));
    Json.field("all_protected", AllFixed == 3);
    Json.endObject();
    Json.beginObject("stats_overhead");
    Json.field("rounds", uint64_t(OverheadRounds));
    Json.field("summaries_per_round", uint64_t(OverheadSummaries));
    Json.field("base_per_sec", BasePerSec);
    Json.field("instrumented_per_sec", InstrPerSec);
    Json.field("overhead_pct", OverheadPct);
    Json.field("target_pct", OverheadTargetPct);
    Json.endObject();
    Json.endObject();
    if (!Json.writeFile(JsonPath)) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    note("wrote %s", JsonPath.c_str());
  }
  return 0;
}
