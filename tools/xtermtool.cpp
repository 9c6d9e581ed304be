//===- tools/xtermtool.cpp - Exterminator patch & image utility -----------------===//
//
// Command-line companion to the Exterminator runtime:
//
//   xtermtool inspect  <file>                  list a patch file's contents;
//                                              images/bundles/snapshots print
//                                              compressed vs raw sizes (PR 10)
//   xtermtool report   <file>                  render a patch file as a bug
//                                              report (§9); other artifacts as
//                                              with inspect
//   xtermtool merge    <out.xpt> <in.xpt>...   collaborative max-merge (§6.4)
//   xtermtool image    <dump.xhi>              summarize a heap image (§3.4)
//   xtermtool diagnose <out.xpt> <dump.xhi>... run isolation over images
//
// Patch-exchange commands (the networked form of §6.4; an endpoint is
// "unix:/path.sock", "tcp:PORT", or "tcp:HOST:PORT"):
//
//   xtermtool serve         <endpoint> [--workers N] [--seed patch.xpt]
//                           [--state-dir DIR] [--snapshot-every N]
//                           [--snapshot-keep K]
//       --workers is the number of connection handlers, 1..64 (default 2).
//       --state-dir makes restarts lossless: the server restores its full
//       diagnostic state (patches, epoch, Bayes trial history) from DIR's
//       snapshot + journal on start, journals every accepted submission,
//       and snapshots every N submissions (default 64) and on shutdown.
//       The last K snapshot generations are retained (default 2), so a
//       torn head snapshot falls back to the previous one.
//       With both --state-dir and --seed, the state dir is authoritative
//       (it keeps its epoch); the seed max-merges into the restored set.
//   xtermtool submit        <endpoint> <dump.xhi|summary.xrs>...
//   xtermtool fetch-patches <endpoint> <out.xpt> [--require-nonempty]
//   xtermtool shutdown      <endpoint>
//   xtermtool stats         <endpoint>
//       Scrapes the server's metrics snapshot and prints the text
//       exposition (`name{label="v"} value`) it rendered, prefixed with
//       a `# server` banner.
//   xtermtool watch         <endpoint> [--once] [--interval-ms N]
//       Polls the server's metrics and renders a terse line plus any
//       active threshold alerts (built-in rules: corruption posterior
//       over the classification bar, persist failures, hardware-fault
//       reports — with netdata-style hysteresis so a flapping metric
//       alerts once).
//   xtermtool record        <outdir> [--hardware]  write demo evidence
//       files: scripted-overflow images by default, row-cluster
//       DRAM-fault images with --hardware
//
// The tool is a thin client of the runtime: diagnose feeds images
// straight into the DiagnosisPipeline — the same ingestion point the
// mode drivers use — and submit ships the same evidence to a PatchServer
// wrapping that pipeline on another machine.
//
//===----------------------------------------------------------------------===//

#include "codec/BlockCodec.h"
#include "diagnose/DiagnosisPipeline.h"
#include "diefast/Canary.h"
#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "exchange/SocketTransport.h"
#include "exchange/StateStore.h"
#include "heapimage/HeapImageIO.h"
#include "heapimage/ImageBundle.h"
#include "observe/AlertEngine.h"
#include "observe/MetricsRegistry.h"
#include "patch/PatchIO.h"
#include "patch/PatchMerge.h"
#include "report/PatchReport.h"
#include "runtime/Exterminator.h"
#include "workload/ScriptedBugs.h"

#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace exterminator;

static int usage() {
  std::fprintf(stderr,
               "usage: xtermtool inspect  <file>\n"
               "       xtermtool report   <file>\n"
               "         <file>: patch.xpt (listing / bug report), or a\n"
               "         heap image / bundle / state snapshot (prints\n"
               "         compressed vs raw byte sizes)\n"
               "       xtermtool merge    <out.xpt> <in.xpt>...\n"
               "       xtermtool image    <dump.xhi>\n"
               "       xtermtool diagnose <out.xpt> <dump.xhi>... "
               "[--json]\n"
               "       xtermtool serve    <endpoint> [--workers N] "
               "[--seed patch.xpt]\n"
               "                          [--state-dir DIR] "
               "[--snapshot-every N] [--snapshot-keep K]\n"
               "       xtermtool submit   <endpoint> "
               "<dump.xhi|summary.xrs>...\n"
               "       xtermtool fetch-patches <endpoint> <out.xpt> "
               "[--require-nonempty]\n"
               "       xtermtool shutdown <endpoint>\n"
               "       xtermtool stats    <endpoint>\n"
               "       xtermtool watch    <endpoint> [--once] "
               "[--interval-ms N]\n"
               "       xtermtool record   <outdir> [--hardware]\n"
               "endpoint: unix:/path.sock | tcp:PORT | tcp:HOST:PORT\n"
               "--workers: 1..64\n");
  return 2;
}

static int inspectPatches(const std::string &Path) {
  PatchSet Patches;
  if (!loadPatchSet(Path, Patches)) {
    std::fprintf(stderr, "error: cannot load patch file '%s'\n",
                 Path.c_str());
    return 1;
  }
  std::printf("%s: %zu pad(s), %zu front pad(s), %zu deferral(s), "
              "%zu hardware page(s)\n",
              Path.c_str(), Patches.padCount(), Patches.frontPadCount(),
              Patches.deferralCount(), Patches.hardwareReportCount());
  for (const PadPatch &Pad : Patches.pads())
    std::printf("  pad      site=0x%08x  bytes=%u\n", Pad.AllocSite,
                Pad.PadBytes);
  for (const FrontPadPatch &Pad : Patches.frontPads())
    std::printf("  frontpad site=0x%08x  bytes=%u\n", Pad.AllocSite,
                Pad.PadBytes);
  for (const DeferralPatch &Deferral : Patches.deferrals())
    std::printf("  deferral alloc=0x%08x free=0x%08x  ticks=%llu\n",
                Deferral.AllocSite, Deferral.FreeSite,
                static_cast<unsigned long long>(Deferral.DeferTicks));
  for (const HardwareFaultReport &Report : Patches.hardwareReports())
    std::printf("  hardware page=0x%012llx kinds=0x%x regions=%llu\n",
                static_cast<unsigned long long>(Report.PageAddress),
                Report.KindMask,
                static_cast<unsigned long long>(Report.EvidenceRegions));
  return 0;
}

static int reportPatches(const std::string &Path) {
  PatchSet Patches;
  if (!loadPatchSet(Path, Patches)) {
    std::fprintf(stderr, "error: cannot load patch file '%s'\n",
                 Path.c_str());
    return 1;
  }
  std::fputs(generatePatchReport(Patches).c_str(), stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Codec-size inspection (PR 10)
//===----------------------------------------------------------------------===//

// File magics the inspect dispatcher sniffs.  Each format owns its
// constant inside its own module; these mirror them for routing only.
static constexpr uint32_t SniffPatchV2 = 0x58505432;  // "XPT2"
static constexpr uint32_t SniffPatchV3 = 0x58505433;  // "XPT3"
static constexpr uint32_t SniffImageV2 = 0x58484932;  // "XHI2"
static constexpr uint32_t SniffSnapshot = 0x58535431; // "XST1"

/// One "raw vs compressed" line — the operator-visible proof the codec
/// layer is earning its keep.
static void printSizeLine(const char *What, uint64_t RawBytes,
                          uint64_t StoredBytes) {
  const double Pct =
      RawBytes ? 100.0 * double(StoredBytes) / double(RawBytes) : 100.0;
  std::printf("  %-22s %10llu B  (%.1f%% of raw)\n", What,
              static_cast<unsigned long long>(StoredBytes), Pct);
}

static int inspectImageSizes(const std::string &Path,
                             const std::vector<uint8_t> &FileBytes) {
  HeapImage Image;
  if (!loadHeapImage(Path, Image)) {
    std::fprintf(stderr, "error: cannot load heap image '%s'\n",
                 Path.c_str());
    return 1;
  }
  const std::vector<uint8_t> RawV2 = serializeHeapImage(Image);
  const std::vector<uint8_t> Envelope = encodeCodecBlock(RawV2);
  std::printf("%s: heap image (format v%u, %zu miniheap(s), %zu slot(s))\n",
              Path.c_str(), HeapImageFormatV2, Image.miniheapCount(),
              Image.totalSlots());
  std::printf("  %-22s %10llu B\n", "raw (v2 columnar)",
              static_cast<unsigned long long>(RawV2.size()));
  printSizeLine("compressed (codec)", RawV2.size(), Envelope.size());
  printSizeLine("on-disk", RawV2.size(), FileBytes.size());
  return 0;
}

static int inspectBundleSizes(const std::string &Path,
                              const std::vector<uint8_t> &FileBytes) {
  std::vector<HeapImage> Images;
  if (!loadImageBundle(Path, Images)) {
    std::fprintf(stderr, "error: cannot load image bundle '%s'\n",
                 Path.c_str());
    return 1;
  }
  // The baseline is what the bundle replaces: every image shipped as
  // its own v2 file.
  size_t Independent = 0;
  for (const HeapImage &Image : Images)
    Independent += serializeHeapImage(Image).size();
  const size_t Delta = serializeImageBundle(Images).size();
  std::printf("%s: image bundle, %zu image(s)\n", Path.c_str(),
              Images.size());
  std::printf("  %-22s %10llu B\n", "raw (independent v2)",
              static_cast<unsigned long long>(Independent));
  printSizeLine("delta-encoded (v2)", Independent, Delta);
  printSizeLine("on-disk (compressed)", Independent, FileBytes.size());
  return 0;
}

static int inspectSnapshotSizes(const std::string &Path,
                                const std::vector<uint8_t> &Bytes) {
  StateStore::SnapshotContents Snapshot;
  if (!StateStore::parseSnapshot(Bytes, Snapshot)) {
    std::fprintf(stderr,
                 "error: cannot parse snapshot '%s': corrupt, truncated, "
                 "or not snapshot version %u\n",
                 Path.c_str(), unsigned(StateStore::SnapshotVersion));
    return 1;
  }
  const uint64_t Raw = Snapshot.State.size();
  std::printf("%s: state snapshot v%u, generation %llu\n", Path.c_str(),
              unsigned(StateStore::SnapshotVersion),
              static_cast<unsigned long long>(Snapshot.Generation));
  std::printf("  %-22s %10llu B\n", "raw state blob",
              static_cast<unsigned long long>(Raw));
  printSizeLine("stored blob", Raw, Snapshot.StoredStateBytes);
  printSizeLine("on-disk", Raw, Bytes.size());
  return 0;
}

/// inspect/report accept any repo artifact, routed by leading magic.
/// Patch files keep their classic listings; images, bundles, and
/// snapshots print compressed-vs-raw sizes (PR 10).
static int inspectFile(const std::string &Path, bool Report) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes) || Bytes.size() < 4) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return 1;
  }
  ByteReader Sniff(Bytes.data(), Bytes.size());
  switch (Sniff.readU32()) {
  case SniffPatchV2:
  case SniffPatchV3:
    return Report ? reportPatches(Path) : inspectPatches(Path);
  case SniffImageV2:
    return inspectImageSizes(Path, Bytes);
  case CompressedBundleMagic:
    return inspectBundleSizes(Path, Bytes);
  case SniffSnapshot:
    return inspectSnapshotSizes(Path, Bytes);
  }
  std::fprintf(stderr,
               "error: '%s' is not a patch, image, bundle, or snapshot "
               "file\n",
               Path.c_str());
  return 1;
}

static int mergePatches(const std::string &Out,
                        const std::vector<std::string> &Inputs) {
  if (!mergePatchFiles(Inputs, Out)) {
    std::fprintf(stderr, "error: merge failed (missing or malformed "
                         "input, or unwritable output)\n");
    return 1;
  }
  PatchSet Merged;
  loadPatchSet(Out, Merged);
  std::printf("merged %zu file(s) -> %s (%zu pads, %zu deferrals)\n",
              Inputs.size(), Out.c_str(), Merged.padCount(),
              Merged.deferralCount());
  return 0;
}

static int summarizeImage(const std::string &Path) {
  HeapImage Image;
  if (!loadHeapImage(Path, Image)) {
    std::fprintf(stderr, "error: cannot load heap image '%s'\n",
                 Path.c_str());
    return 1;
  }
  std::printf("%s: format v%u, allocation time %llu, canary 0x%08x, "
              "M = %.1f, p = %.2f\n",
              Path.c_str(), HeapImageFormatV2,
              static_cast<unsigned long long>(Image.AllocationTime),
              Image.CanaryValue, Image.Multiplier,
              Image.CanaryFillProbability);

  const Canary HeapCanary = Canary::fromValue(Image.CanaryValue);
  size_t Live = 0, Freed = 0, Canaried = 0, Bad = 0, Corrupt = 0;
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    for (uint32_t S = 0; S < Mini.NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      const uint8_t Flags = Image.slotFlags(Loc);
      if (Flags & SlotFlagBad)
        ++Bad;
      else if (Flags & SlotFlagAllocated)
        ++Live;
      else if (Image.objectId(Loc))
        ++Freed;
      if (!(Flags & SlotFlagCanaried) ||
          ((Flags & SlotFlagAllocated) && !(Flags & SlotFlagBad)))
        continue;
      ++Canaried;
      if (Image.contents(Loc).findCorruption(HeapCanary)) {
        ++Corrupt;
        std::printf("  CORRUPT slot: miniheap objsize=%llu slot=%u "
                    "object=%llu alloc-site=0x%08x free-site=0x%08x\n",
                    static_cast<unsigned long long>(Mini.ObjectSize), S,
                    static_cast<unsigned long long>(Image.objectId(Loc)),
                    Image.allocSite(Loc), Image.freeSite(Loc));
      }
    }
  }
  std::printf("%zu miniheap(s), %zu slot(s): %zu live, %zu freed, "
              "%zu canaried, %zu quarantined, %zu corrupt\n",
              Image.miniheapCount(), Image.totalSlots(), Live, Freed,
              Canaried, Bad, Corrupt);
  return 0;
}

/// One kind-mask rendering shared by the table and the JSON output.
static std::string hardwareKindNames(uint32_t Mask) {
  std::string Names;
  auto Add = [&](const char *Name) {
    if (!Names.empty())
      Names += "|";
    Names += Name;
  };
  if (Mask & HardwareFaultBitFlip)
    Add("bit-flip");
  if (Mask & HardwareFaultStuckAt)
    Add("stuck-at");
  if (Mask & HardwareFaultRowCluster)
    Add("row-cluster");
  if (Names.empty())
    Names = "unknown";
  return Names;
}

static int diagnoseImages(const std::string &Out,
                          const std::vector<std::string> &Inputs,
                          bool Json) {
  ImageEvidence Evidence;
  for (const std::string &Path : Inputs) {
    HeapImage Image;
    if (!loadHeapImage(Path, Image)) {
      std::fprintf(stderr, "error: cannot load heap image '%s'\n",
                   Path.c_str());
      return 1;
    }
    if (!Json)
      std::printf("loaded %s (format v%u, %zu slots, allocation time "
                  "%llu)\n",
                  Path.c_str(), HeapImageFormatV2, Image.totalSlots(),
                  static_cast<unsigned long long>(Image.AllocationTime));
    Evidence.Primary.push_back(std::move(Image));
  }
  if (Evidence.Primary.size() < 2) {
    std::fprintf(stderr, "error: diagnosis needs at least two images of "
                         "differently-randomized heaps\n");
    return 1;
  }

  DiagnosisPipeline Pipeline;
  const IsolationResult Result = Pipeline.submitImages(Evidence);
  const PatchSet &Patches = Pipeline.patches();

  if (Json) {
    // Machine-readable summary for CI smoke checks: flat keys first so a
    // plain grep can assert on them, findings after.
    std::printf("{\"overflows\":%zu,\"danglings\":%zu,"
                "\"hardware_faults\":%zu,\"pads\":%zu,\"front_pads\":%zu,"
                "\"deferrals\":%zu,\"hardware_pages\":%zu,\"findings\":[",
                Result.Overflows.size(), Result.Danglings.size(),
                Result.HardwareFaults.size(), Patches.padCount(),
                Patches.frontPadCount(), Patches.deferralCount(),
                Patches.hardwareReportCount());
    bool First = true;
    auto Comma = [&]() {
      if (!First)
        std::printf(",");
      First = false;
    };
    for (const OverflowCandidate &Candidate : Result.Overflows) {
      Comma();
      const bool Patched =
          Patches.padFor(Candidate.CulpritAllocSite) > 0 ||
          Patches.frontPadFor(Candidate.CulpritAllocSite) > 0;
      std::printf("{\"origin\":\"%s\",\"kind\":\"overflow\","
                  "\"site\":\"0x%08x\",\"pad\":%u,\"front_pad\":%u,"
                  "\"score\":%.6f}",
                  Patched ? "software-site" : "unclassified",
                  Candidate.CulpritAllocSite, Candidate.PadBytes,
                  Candidate.FrontPadBytes, Candidate.Score);
    }
    for (const DanglingFinding &Finding : Result.Danglings) {
      Comma();
      std::printf("{\"origin\":\"software-site\",\"kind\":\"dangling\","
                  "\"alloc\":\"0x%08x\",\"free\":\"0x%08x\","
                  "\"defer\":%llu}",
                  Finding.AllocSite, Finding.FreeSite,
                  static_cast<unsigned long long>(Finding.DeferralTicks));
    }
    for (const HardwareFinding &Finding : Result.HardwareFaults) {
      Comma();
      std::printf("{\"origin\":\"hardware-page\",\"kind\":\"%s\","
                  "\"page\":\"0x%012llx\",\"regions\":%llu}",
                  hardwareKindNames(Finding.KindMask).c_str(),
                  static_cast<unsigned long long>(Finding.PageAddress),
                  static_cast<unsigned long long>(Finding.EvidenceRegions));
    }
    std::printf("]}\n");
  } else {
    std::printf("%zu overflow candidate(s), %zu dangling finding(s), "
                "%zu hardware fault(s)\n",
                Result.Overflows.size(), Result.Danglings.size(),
                Result.HardwareFaults.size());
    // Origin table: every finding with its classified origin.
    std::printf("%-14s %-10s %s\n", "origin", "kind", "where");
    for (const OverflowCandidate &Candidate : Result.Overflows) {
      const bool Patched =
          Patches.padFor(Candidate.CulpritAllocSite) > 0 ||
          Patches.frontPadFor(Candidate.CulpritAllocSite) > 0;
      std::printf("%-14s %-10s site 0x%08x (pad %u, score %.3f)\n",
                  Patched ? "software-site" : "unclassified", "overflow",
                  Candidate.CulpritAllocSite, Candidate.PadBytes,
                  Candidate.Score);
    }
    for (const DanglingFinding &Finding : Result.Danglings)
      std::printf("%-14s %-10s alloc 0x%08x free 0x%08x (defer %llu)\n",
                  "software-site", "dangling", Finding.AllocSite,
                  Finding.FreeSite,
                  static_cast<unsigned long long>(Finding.DeferralTicks));
    for (const HardwareFinding &Finding : Result.HardwareFaults)
      std::printf("%-14s %-10s page 0x%012llx (%llu region(s))\n",
                  "hardware-page", hardwareKindNames(Finding.KindMask).c_str(),
                  static_cast<unsigned long long>(Finding.PageAddress),
                  static_cast<unsigned long long>(Finding.EvidenceRegions));
    std::fputs(Pipeline.report().c_str(), stdout);
  }
  if (!savePatchSet(Patches, Out)) {
    std::fprintf(stderr, "error: cannot write patch file '%s'\n",
                 Out.c_str());
    return 1;
  }
  if (!Json)
    std::printf("wrote %s (%zu pads, %zu front pads, %zu deferrals, "
                "%zu hardware pages)\n",
                Out.c_str(), Patches.padCount(), Patches.frontPadCount(),
                Patches.deferralCount(), Patches.hardwareReportCount());
  return 0;
}

//===----------------------------------------------------------------------===//
// Patch-exchange commands
//===----------------------------------------------------------------------===//

static bool parseEndpointArg(const std::string &Spec, Endpoint &Out) {
  if (!parseEndpoint(Spec, Out)) {
    std::fprintf(stderr,
                 "error: bad endpoint '%s' (want unix:/path.sock, "
                 "tcp:PORT, or tcp:HOST:PORT)\n",
                 Spec.c_str());
    return false;
  }
  return true;
}

/// Parses \p Text as a whole decimal number in [Min, Max]: digits only,
/// so a sign, a blank, a suffix or an overflowing value is an error
/// rather than whatever strtoul would make of it.
static bool parseCountArg(const char *Option, const std::string &Text,
                          unsigned Min, unsigned Max, unsigned &Out) {
  unsigned long long Value = 0;
  const char *End = Text.data() + Text.size();
  const auto [Ptr, Error] = std::from_chars(Text.data(), End, Value);
  if (Text.empty() || Error != std::errc() || Ptr != End || Value < Min ||
      Value > Max) {
    std::fprintf(stderr, "error: %s wants a whole number in %u..%u, got "
                 "'%s'\n",
                 Option, Min, Max, Text.c_str());
    return false;
  }
  Out = static_cast<unsigned>(Value);
  return true;
}

/// Most connection handlers `serve --workers` accepts.  SocketPatchServer
/// runs one thread per handler plus the acceptor for the whole serve, so
/// an unchecked count starts that many threads (and UINT_MAX wraps the
/// thread count to 0).  The default is 2, and the end-to-end benchmark
/// serves with 2; 64 leaves ample room above that.
static constexpr unsigned MaxServeWorkers = 64;

static int serveCommand(const std::string &Spec,
                        const std::vector<std::string> &Options) {
  unsigned Workers = 2;
  std::string SeedFile;
  std::string StateDir;
  unsigned SnapshotEvery = 64;
  unsigned SnapshotKeep = 2;
  for (size_t I = 0; I < Options.size(); ++I) {
    if (Options[I] == "--workers" && I + 1 < Options.size()) {
      if (!parseCountArg("--workers", Options[++I], 1, MaxServeWorkers,
                         Workers))
        return 2;
    } else if (Options[I] == "--seed" && I + 1 < Options.size()) {
      SeedFile = Options[++I];
    } else if (Options[I] == "--state-dir" && I + 1 < Options.size()) {
      StateDir = Options[++I];
    } else if (Options[I] == "--snapshot-every" && I + 1 < Options.size()) {
      if (!parseCountArg("--snapshot-every", Options[++I], 0, UINT_MAX,
                         SnapshotEvery))
        return 2;
    } else if (Options[I] == "--snapshot-keep" && I + 1 < Options.size()) {
      if (!parseCountArg("--snapshot-keep", Options[++I], 0, UINT_MAX,
                         SnapshotKeep))
        return 2;
    } else {
      return usage();
    }
  }

  Endpoint Ep;
  if (!parseEndpointArg(Spec, Ep))
    return 1;

  // One registry for every subsystem this process runs: the live Stats
  // endpoint and the exit report below both render the same snapshot,
  // so they can never disagree.
  MetricsRegistry Registry;
  registerCodecMetrics(Registry);
  PatchServer Server;
  Server.attachMetrics(Registry);

  // Durable state restores first: the state directory is authoritative
  // (it keeps its epoch and the accumulated Bayes history), and a --seed
  // file then max-merges *into* the restored state — seeding can only
  // add or widen patches, never roll restored state back.
  std::unique_ptr<StateStore> Store;
  if (!StateDir.empty()) {
    Store = std::make_unique<StateStore>(StateDir);
    Store->setSnapshotKeep(SnapshotKeep);
    Store->attachMetrics(Registry);
    std::string Error;
    if (!Server.attachState(*Store, SnapshotEvery, &Error)) {
      std::fprintf(stderr, "error: cannot restore state from '%s': %s\n",
                   StateDir.c_str(), Error.c_str());
      return 1;
    }
    const PatchSnapshot Restored = Server.snapshot();
    std::printf("restored state from %s: epoch %llu, %zu pad(s), %zu "
                "front pad(s), %zu deferral(s), %llu accumulated run(s)\n",
                StateDir.c_str(), (unsigned long long)Restored.Epoch,
                Restored.Patches.padCount(),
                Restored.Patches.frontPadCount(),
                Restored.Patches.deferralCount(),
                (unsigned long long)Server.cumulativeRuns());
  }
  if (!SeedFile.empty()) {
    PatchSet Seed;
    if (!loadPatchSet(SeedFile, Seed)) {
      std::fprintf(stderr, "error: cannot load seed patch file '%s'\n",
                   SeedFile.c_str());
      return 1;
    }
    Server.seedPatches(Seed);
  }

  SocketPatchServer Front(Server, Workers);
  Front.attachMetrics(Registry);
  if (!Front.listen(Ep)) {
    std::fprintf(stderr, "error: cannot listen on %s\n", Spec.c_str());
    return 1;
  }
  std::printf("patch server listening on %s (%u worker(s)); stop with "
              "`xtermtool shutdown %s`\n",
              endpointToString(Front.endpoint()).c_str(), Workers,
              endpointToString(Front.endpoint()).c_str());
  std::fflush(stdout);
  Front.serve();

  // Snapshot-on-shutdown: fold the journal into one fresh snapshot so
  // the next start replays nothing.
  if (Store && !Server.persistNow())
    std::fprintf(stderr, "warning: final snapshot to '%s' failed\n",
                 StateDir.c_str());

  // Exit report = the same registry snapshot the live Stats endpoint
  // serves (the ad-hoc per-struct printing this replaces could drift
  // from what a scrape saw; one snapshot path cannot).
  std::printf("exit stats (registry snapshot):\n%s",
              MetricsRegistry::renderText(Registry.snapshot()).c_str());
  return 0;
}

static int submitEvidence(const std::string &Spec,
                          const std::vector<std::string> &Inputs) {
  Endpoint Ep;
  if (!parseEndpointArg(Spec, Ep))
    return 1;

  // Images group into one evidence set (isolation needs the whole set);
  // each summary is its own submission.
  ImageEvidence Evidence;
  std::vector<RunSummary> Summaries;
  for (const std::string &Path : Inputs) {
    std::vector<uint8_t> Bytes;
    if (!readFileBytes(Path, Bytes)) {
      std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
      return 1;
    }
    RunSummary Summary;
    if (deserializeRunSummary(Bytes, Summary)) {
      Summaries.push_back(std::move(Summary));
      continue;
    }
    HeapImage Image;
    if (!deserializeHeapImage(Bytes, Image)) {
      std::fprintf(stderr,
                   "error: '%s' is neither a heap image nor a run "
                   "summary\n",
                   Path.c_str());
      return 1;
    }
    Evidence.Primary.push_back(std::move(Image));
  }

  SocketClientTransport Transport(Ep);
  PatchClient Client(Transport);
  if (!Evidence.Primary.empty() && !Client.queueImages(Evidence)) {
    std::fprintf(stderr,
                 "error: evidence set exceeds the %u MiB frame limit; "
                 "submit fewer images per invocation\n",
                 MaxFramePayload >> 20);
    return 1;
  }
  for (const RunSummary &Summary : Summaries)
    Client.queueSummary(Summary, /*CleanStreak=*/0);
  if (!Client.flush()) {
    std::fprintf(stderr, "error: submission to %s failed: %s\n",
                 Spec.c_str(), Transport.lastError().c_str());
    return 1;
  }
  std::printf("submitted %zu image(s), %zu summarie(s) to %s\n",
              Evidence.Primary.size(), Summaries.size(), Spec.c_str());
  return 0;
}

static int fetchPatchesCommand(const std::string &Spec,
                               const std::string &Out,
                               bool RequireNonEmpty) {
  Endpoint Ep;
  if (!parseEndpointArg(Spec, Ep))
    return 1;
  SocketClientTransport Transport(Ep);
  PatchClient Client(Transport);
  if (!Client.fetchPatches()) {
    std::fprintf(stderr, "error: fetch from %s failed: %s\n", Spec.c_str(),
                 Transport.lastError().c_str());
    return 1;
  }
  if (!savePatchSet(Client.patches(), Out)) {
    std::fprintf(stderr, "error: cannot write patch file '%s'\n",
                 Out.c_str());
    return 1;
  }
  std::printf("fetched epoch %llu -> %s (%zu pads, %zu front pads, %zu "
              "deferrals)\n",
              (unsigned long long)Client.epoch(), Out.c_str(),
              Client.patches().padCount(), Client.patches().frontPadCount(),
              Client.patches().deferralCount());
  if (RequireNonEmpty && Client.patches().empty()) {
    std::fprintf(stderr, "error: fetched patch set is empty\n");
    return 1;
  }
  return 0;
}

static int shutdownCommand(const std::string &Spec) {
  Endpoint Ep;
  if (!parseEndpointArg(Spec, Ep))
    return 1;
  SocketClientTransport Transport(Ep);
  PatchClient Client(Transport);
  if (!Client.shutdownServer()) {
    std::fprintf(stderr, "error: shutdown of %s failed: %s\n",
                 endpointToString(Ep).c_str(), Transport.lastError().c_str());
    return 1;
  }
  std::printf("server at %s shutting down\n", endpointToString(Ep).c_str());
  return 0;
}

/// One Stats exchange with one server.  Returns false (with stderr
/// noise) on transport failure, a rejected frame, or a malformed reply.
static bool fetchStats(const Endpoint &Ep, StatsFormat Format,
                       StatsReply &Out) {
  SocketClientTransport Transport(Ep);
  const std::vector<std::vector<uint8_t>> Requests = {
      encodeFrame(MessageType::Stats, encodeStatsRequest(Format))};
  std::vector<std::vector<uint8_t>> Responses;
  if (!Transport.exchange(Requests, Responses) || Responses.size() != 1) {
    std::fprintf(stderr, "error: stats exchange with %s failed: %s\n",
                 endpointToString(Ep).c_str(),
                 Transport.lastError().c_str());
    return false;
  }
  Frame Reply;
  size_t Consumed = 0;
  if (decodeFrame(Responses[0].data(), Responses[0].size(), Reply,
                  Consumed) != FrameError::None ||
      Reply.Type != MessageType::StatsReply ||
      !decodeStatsReply(Reply.Payload, Out)) {
    std::fprintf(stderr, "error: malformed stats reply from %s\n",
                 endpointToString(Ep).c_str());
    return false;
  }
  return true;
}

static int statsCommand(const std::string &Spec) {
  Endpoint Ep;
  if (!parseEndpointArg(Spec, Ep))
    return 1;
  StatsReply Stats;
  if (!fetchStats(Ep, StatsFormat::Text, Stats))
    return 1;
  std::printf("# server %s instance=%016llx epoch=%llu\n%s",
              endpointToString(Ep).c_str(),
              (unsigned long long)Stats.Instance,
              (unsigned long long)Stats.Epoch, Stats.Text.c_str());
  return 0;
}

static int watchCommand(const std::string &Spec,
                        const std::vector<std::string> &Options) {
  Endpoint Ep;
  if (!parseEndpointArg(Spec, Ep))
    return 1;
  bool Once = false;
  unsigned IntervalMs = 1000;
  for (size_t I = 0; I < Options.size(); ++I) {
    if (Options[I] == "--once") {
      Once = true;
    } else if (Options[I] == "--interval-ms" && I + 1 < Options.size()) {
      if (!parseCountArg("--interval-ms", Options[++I], 0, UINT_MAX,
                         IntervalMs))
        return 2;
    } else {
      std::fprintf(stderr, "error: unknown watch option '%s'\n",
                   Options[I].c_str());
      return usage();
    }
  }

  // One engine, persistent across rounds: hysteresis state (pending
  // de-escalations, raise counts) lives in the engine, so a fresh
  // engine each round would re-raise every alert every tick.
  AlertEngine Engine;
  Engine.addBuiltinRules();

  for (uint64_t Round = 0;; ++Round) {
    StatsReply Stats;
    // On a missed scrape the engine holds its state until the next.
    if (fetchStats(Ep, StatsFormat::Samples, Stats)) {
      MetricsSnapshot Snap;
      Snap.Samples = std::move(Stats.Samples);
      Engine.evaluate(Snap, Round);
      const auto Summaries = Snap.find("xterm_ingest_summaries_total");
      const auto Posterior = Snap.maxValue("xterm_site_posterior");
      std::printf("[%llu] %s epoch=%llu summaries=%.0f top_posterior=%s "
                  "active_alerts=%zu\n",
                  (unsigned long long)Round, endpointToString(Ep).c_str(),
                  (unsigned long long)Stats.Epoch,
                  Summaries ? Summaries->Value : 0.0,
                  Posterior ? std::to_string(*Posterior).c_str() : "n/a",
                  Engine.active().size());
      const std::string Alerts = Engine.renderText();
      if (!Alerts.empty())
        std::printf("%s", Alerts.c_str());
    }
    std::fflush(stdout);
    if (Once)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        IntervalMs ? IntervalMs : 1));
  }
  return 0;
}

/// Writes demo evidence: three heap images of the canonical scripted
/// overflow (workload/ScriptedBugs.h) under different heap seeds
/// (enough for §4 isolation) plus one failed-run summary.  Exists so
/// the exchange can be exercised end-to-end from a clean checkout
/// (CI's collaborative smoke step).  With \p Hardware the images carry
/// an injected row-cluster DRAM fault over a bug-free trace instead —
/// evidence that must classify as a hardware-page report, never a site
/// patch (CI's hardware-fault smoke step).
static int recordEvidence(const std::string &OutDir, bool Hardware) {
  std::vector<HeapImage> Images;
  if (Hardware) {
    FaultPlan Fault;
    Fault.Kind = FaultKind::RowCluster;
    Fault.TriggerAllocation = 150;
    Fault.PatternSeed = 17;
    Images = scriptedHardwareEvidenceImages(/*Count=*/3, Fault);
  } else {
    Images = scriptedEvidenceImages(/*Count=*/3, /*OverflowBytes=*/9);
  }
  for (unsigned I = 0; I < Images.size(); ++I) {
    const std::string ImagePath =
        OutDir + "/run" + std::to_string(I) + ".xhi";
    if (!saveHeapImage(Images[I], ImagePath)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", ImagePath.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu slots)\n", ImagePath.c_str(),
                Images[I].totalSlots());
  }
  // The same evidence as one compressed bundle container (delta-encoded
  // members + LZ stream, PR 10) — what a deployment would actually ship
  // or archive, and what CI's size-regression step budgets.
  const std::string BundlePath = OutDir + "/evidence.xib";
  if (!saveImageBundle(Images, BundlePath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", BundlePath.c_str());
    return 1;
  }
  std::vector<uint8_t> BundleBytes;
  readFileBytes(BundlePath, BundleBytes);
  std::printf("wrote %s (%zu images, %zu bytes compressed)\n",
              BundlePath.c_str(), Images.size(), BundleBytes.size());
  DiagnosisPipeline Pipeline;
  const RunSummary Summary =
      Pipeline.summarize(Images.front(), /*Failed=*/true);
  const std::string SummaryPath = OutDir + "/run0.xrs";
  if (!writeFileBytes(SummaryPath, serializeRunSummary(Summary))) {
    std::fprintf(stderr, "error: cannot write '%s'\n", SummaryPath.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu overflow trial(s), %zu dangling trial(s))\n",
              SummaryPath.c_str(), Summary.OverflowTrials.size(),
              Summary.DanglingTrials.size());
  return 0;
}

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  const std::string Command = Argv[1];
  if (Command == "inspect")
    return inspectFile(Argv[2], /*Report=*/false);
  if (Command == "report")
    return inspectFile(Argv[2], /*Report=*/true);
  if (Command == "image")
    return summarizeImage(Argv[2]);
  if (Command == "merge" || Command == "diagnose") {
    if (Argc < 4)
      return usage();
    std::vector<std::string> Inputs;
    bool Json = false;
    for (int I = 3; I < Argc; ++I) {
      if (Command == "diagnose" && std::strcmp(Argv[I], "--json") == 0)
        Json = true;
      else
        Inputs.push_back(Argv[I]);
    }
    if (Inputs.empty())
      return usage();
    return Command == "merge" ? mergePatches(Argv[2], Inputs)
                              : diagnoseImages(Argv[2], Inputs, Json);
  }
  if (Command == "serve") {
    std::vector<std::string> Options;
    for (int I = 3; I < Argc; ++I)
      Options.push_back(Argv[I]);
    return serveCommand(Argv[2], Options);
  }
  if (Command == "submit") {
    if (Argc < 4)
      return usage();
    std::vector<std::string> Inputs;
    for (int I = 3; I < Argc; ++I)
      Inputs.push_back(Argv[I]);
    return submitEvidence(Argv[2], Inputs);
  }
  if (Command == "fetch-patches") {
    if (Argc < 4)
      return usage();
    bool RequireNonEmpty = false;
    for (int I = 4; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--require-nonempty") == 0)
        RequireNonEmpty = true;
      else
        return usage();
    }
    return fetchPatchesCommand(Argv[2], Argv[3], RequireNonEmpty);
  }
  if (Command == "shutdown")
    return shutdownCommand(Argv[2]);
  if (Command == "stats")
    return statsCommand(Argv[2]);
  if (Command == "watch") {
    std::vector<std::string> Options;
    for (int I = 3; I < Argc; ++I)
      Options.push_back(Argv[I]);
    return watchCommand(Argv[2], Options);
  }
  if (Command == "record") {
    bool Hardware = false;
    for (int I = 3; I < Argc; ++I)
      if (std::strcmp(Argv[I], "--hardware") == 0)
        Hardware = true;
    return recordEvidence(Argv[2], Hardware);
  }
  return usage();
}
