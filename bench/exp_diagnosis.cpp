//===- bench/exp_diagnosis.cpp - Evidence-path throughput -----------------===//
//
// Per-stage throughput of the diagnosis half of the system: each stage
// an image passes through between a failing run and a derived patch.
// Each stage runs its work in three timed blocks and keeps the best, so
// a noisy neighbour mid-run costs one block, not the figure.  Absolute
// numbers move with the host (its core count and CPU model are in the
// JSON's config); compare a change against an earlier commit by running
// both builds on one host.
//
//   capture     MB/s of captureHeapImage over live post-run heaps
//               (espresso, squid) and two synthetic resident heaps.
//   view-build  ns/image to index a HeapImageView (flat id index).
//   isolate     §4 isolation throughput (images/s) over the canonical
//               scripted-overflow evidence, views rebuilt per episode
//               the way a server sees fresh submissions.
//   ingest      patch-server image submissions/s over loopback (full
//               frame encode → decode → diagnose), one bundle submitted
//               repeatedly, its views rebuilt for every submission.
//
// Before timing isolation the bench checks that isolation derives a
// non-empty patch set, and exits 1 when it does not.
//
// --json FILE writes BENCH_diagnosis.json (schema in ROADMAP.md).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "diagnose/DiagnosisPipeline.h"
#include "diefast/DieFastHeap.h"
#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "heapimage/HeapImageIO.h"
#include "runtime/LiveRun.h"
#include "support/RandomGenerator.h"
#include "workload/EspressoWorkload.h"
#include "workload/ScriptedBugs.h"
#include "workload/SquidWorkload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace exterminator;
using namespace benchreport;

namespace {

/// One stage's throughput plus everything the JSON needs.
struct Measurement {
  std::string Metric;
  std::string Name;
  uint64_t Items = 0; ///< work items per block (images, builds…)
  double Seconds = 0; ///< the best block
  double PerSec = 0;
  double Extra = 0; ///< metric-specific (MB/s, ns/image)
  const char *ExtraKey = nullptr;
};

/// Times \p Body in \p Blocks blocks and keeps the best one.
template <typename FnT>
Measurement measure(const std::string &Metric, const std::string &Name,
                    uint64_t Items, FnT Body, unsigned Blocks = 3) {
  Measurement M;
  M.Metric = Metric;
  M.Name = Name;
  M.Items = Items;
  M.Seconds = 1e300;
  for (unsigned Block = 0; Block < Blocks; ++Block)
    M.Seconds = std::min(M.Seconds, timeSeconds([&] { Body(); }));
  M.PerSec = Items / M.Seconds;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: exp_diagnosis [--smoke] [--json FILE]\n");
      return 2;
    }
  }

  std::vector<Measurement> Results;

  //===--------------------------------------------------------------------===//
  // Capture throughput
  //===--------------------------------------------------------------------===//

  heading("Heap-image capture throughput");
  {
    // Four heap shapes: two real post-run workload heaps (tiny slabs —
    // per-slot cost dominates), plus two synthetic *resident* services:
    // 4 KiB objects, a quarter carrying live literal data, a third
    // freed (canaried) — the uniform-dominated population a DieHard
    // heap converges to.  "hot" fits in L2, so throughput measures the
    // encoder; "cold" spills to L3/DRAM, where it is bound by memory
    // bandwidth (the same hot/resident distinction the hot-path bench
    // documents).
    struct CaptureCase {
      const char *Name;
      unsigned Rounds;
      std::unique_ptr<LiveHeapRun> Workload; // either a workload heap...
      std::unique_ptr<DieFastHeap> Resident; // ...or a synthetic one
      uint64_t Bytes = 0;
      const DieFastHeap &heap() const {
        return Workload ? Workload->diefast() : *Resident;
      }
    };
    auto Resident = [](unsigned Objects, unsigned LiteralEvery) {
      DieFastConfig Config;
      Config.Heap.Seed = 0x4e5;
      Config.Heap.InitialSlots = 64;
      auto Heap = std::make_unique<DieFastHeap>(Config);
      RandomGenerator Rng(7);
      std::vector<void *> Ptrs;
      for (unsigned I = 0; I < Objects; ++I) {
        void *P = Heap->allocate(4096);
        if (LiteralEvery && (I % LiteralEvery) == 0) {
          uint64_t *W = static_cast<uint64_t *>(P);
          for (size_t J = 0; J < 4096 / 8; ++J)
            W[J] = Rng.next();
        }
        Ptrs.push_back(P);
      }
      for (size_t I = 0; I < Ptrs.size(); I += 3)
        Heap->deallocate(Ptrs[I]);
      return Heap;
    };

    std::vector<CaptureCase> Cases;
    EspressoWorkload Espresso;
    Cases.push_back({"espresso", Smoke ? 20u : 5000u,
                     std::make_unique<LiveHeapRun>(
                         runWorkloadKeepHeap(Espresso, 5, 11)),
                     nullptr});
    SquidWorkload Squid;
    Cases.push_back({"squid", Smoke ? 20u : 5000u,
                     std::make_unique<LiveHeapRun>(
                         runWorkloadKeepHeap(Squid, 1, 13)),
                     nullptr});
    Cases.push_back(
        {"resident-hot", Smoke ? 20u : 2000u, nullptr, Resident(60, 4)});
    Cases.push_back(
        {"resident-cold", Smoke ? 3u : 60u, nullptr, Resident(3000, 4)});
    for (CaptureCase &Case : Cases) {
      if (Case.Workload)
        Case.Bytes = Case.Workload->slabBytes();
      else
        Case.Resident->heap().forEachMiniheap(
            [&](unsigned, unsigned, const Miniheap &Mini) {
              Case.Bytes += Mini.numSlots() * Mini.objectSize();
            });
    }

    Table CaptureTable({"heap", "slab MB", "captures/s", "MB/s"});
    for (CaptureCase &Case : Cases) {
      // No explicit warmup: the best of three timed blocks is kept, so
      // the cold first block is discarded anyway and every timed block
      // performs exactly Rounds captures.
      Measurement M = measure("capture", Case.Name, Case.Rounds, [&] {
        for (unsigned I = 0; I < Case.Rounds; ++I) {
          const HeapImage Image = captureHeapImage(Case.heap());
          if (Image.totalSlots() == 0)
            std::abort(); // keep the capture observable
        }
      });
      M.ExtraKey = "mb_per_sec";
      M.Extra = (double(Case.Bytes) * Case.Rounds) / M.Seconds / 1e6;
      CaptureTable.addRow({Case.Name, fmt("%.2f", Case.Bytes / 1e6),
                           fmt("%.1f", M.PerSec), fmt("%.1f", M.Extra)});
      Results.push_back(std::move(M));
    }
    CaptureTable.print();
    note("the encoder settles uniform slots (virgin, canaried, "
         "zero-filled) with one SIMD sweep and scans literal stretches "
         "at vector width");
  }

  //===--------------------------------------------------------------------===//
  // View build
  //===--------------------------------------------------------------------===//

  heading("HeapImageView build (flat id index)");
  const unsigned ViewRounds = Smoke ? 50 : 5000;
  {
    EspressoWorkload Espresso;
    LiveHeapRun Run = runWorkloadKeepHeap(Espresso, 5, 17);
    const HeapImage Image = captureHeapImage(Run.diefast());

    // The most recent allocation's id (== the allocation clock) is
    // always still indexed; probing it keeps the build observable.
    const uint64_t NewestId = Image.AllocationTime;
    Measurement M = measure("view-build", "espresso", ViewRounds, [&] {
      for (unsigned I = 0; I < ViewRounds; ++I) {
        const HeapImageView View(Image);
        if (!View.findById(NewestId))
          std::abort();
      }
    });
    M.ExtraKey = "ns_per_image";
    M.Extra = M.Seconds / ViewRounds * 1e9;
    Table ViewTable({"image", "slots", "builds/s", "ns/image"});
    ViewTable.addRow({"espresso", fmt("%zu", Image.totalSlots()),
                      fmt("%.0f", M.PerSec), fmt("%.0f", M.Extra)});
    Results.push_back(std::move(M));
    ViewTable.print();
  }

  //===--------------------------------------------------------------------===//
  // §4 isolation throughput
  //===--------------------------------------------------------------------===//

  heading("Error-isolation throughput (full Sec 4 pipeline)");
  const unsigned IsolateRounds = Smoke ? 3 : 2000;
  const unsigned ImagesPerSet = 3;
  {
    const std::vector<HeapImage> Evidence =
        scriptedEvidenceImages(ImagesPerSet, /*OverflowBytes=*/9);

    // Sanity: the evidence must diagnose.
    if (isolateErrors(Evidence).Patches.empty()) {
      std::fprintf(stderr, "isolation found nothing; refusing to report "
                           "bogus throughput\n");
      return 1;
    }

    Measurement M = measure("isolate", "scripted-overflow",
                            uint64_t(IsolateRounds) * ImagesPerSet, [&] {
                              for (unsigned I = 0; I < IsolateRounds; ++I) {
                                const IsolationResult Result =
                                    isolateErrors(Evidence);
                                if (Result.Patches.empty())
                                  std::abort();
                              }
                            });
    Table IsolateTable({"evidence", "images/s", "episodes/s"});
    IsolateTable.addRow({fmt("%u x scripted overflow", ImagesPerSet),
                         fmt("%.1f", M.PerSec),
                         fmt("%.1f", M.PerSec / ImagesPerSet)});
    Results.push_back(std::move(M));
    IsolateTable.print();
    note("views are rebuilt per episode, as a server sees fresh "
         "submissions");
  }

  //===--------------------------------------------------------------------===//
  // Server ingest
  //===--------------------------------------------------------------------===//

  heading("Patch-server image ingest (loopback)");
  const unsigned IngestRounds = Smoke ? 5 : 500;
  {
    const std::vector<HeapImage> Evidence =
        scriptedEvidenceImages(ImagesPerSet, /*OverflowBytes=*/9);

    Measurement M = measure("ingest", "image-submission", IngestRounds, [&] {
      PatchServer Server;
      LoopbackTransport Transport(Server);
      PatchClient Client(Transport);
      for (unsigned I = 0; I < IngestRounds; ++I)
        if (!Client.submitImages({Evidence, {}}))
          std::abort();
    });
    Table IngestTable({"kind", "submissions/s"});
    IngestTable.addRow(
        {"3-image bundle + isolation", fmt("%.1f", M.PerSec)});
    Results.push_back(std::move(M));
    IngestTable.print();
    note("repeated submissions of one bundle; every submission decodes "
         "and isolates anew");
  }

  //===--------------------------------------------------------------------===//
  // JSON
  //===--------------------------------------------------------------------===//

  if (!JsonPath.empty()) {
    JsonWriter Json;
    Json.beginObject();
    Json.field("schema_version", 3);
    Json.beginObject("config");
    Json.field("smoke", Smoke);
    Json.field("canary_dispatch", canary_dispatch::activeName());
    Json.field("hardware_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    Json.field("cpu_model", cpuModel());
    Json.field("view_rounds", int(ViewRounds));
    Json.field("isolate_rounds", int(IsolateRounds));
    Json.field("ingest_rounds", int(IngestRounds));
    Json.endObject();
    Json.beginArray("results");
    for (const Measurement &M : Results) {
      Json.beginObject();
      Json.field("metric", M.Metric);
      Json.field("name", M.Name);
      Json.field("items", M.Items);
      Json.field("seconds", M.Seconds);
      Json.field("per_sec", M.PerSec);
      if (M.ExtraKey)
        Json.field(M.ExtraKey, M.Extra);
      Json.endObject();
    }
    Json.endArray();
    Json.endObject();
    if (!Json.writeFile(JsonPath)) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    note("wrote %s", JsonPath.c_str());
  }
  return 0;
}
