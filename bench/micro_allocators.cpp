//===- bench/micro_allocators.cpp - allocator microbenchmarks -------------------===//
//
// Malloc/free hot-path microbenchmarks of the allocator stack: baseline
// (GNU-libc stand-in), DieHard, DieFast, and the correcting allocator
// with a loaded patch table.  These are the per-operation costs
// underlying Figure 7's whole-program overheads, so every randomized
// heap is reported as a ratio to the baseline rows of the same scenario
// in the same run — the paper's comparator.  Compare a change against
// an earlier commit by running both builds, not within one binary.
//
// Scenarios:
//  * hot-pairs      — immediate malloc/free pairs on an empty heap, the
//                     shape of tight allocation loops (all state cached).
//  * resident-churn — 20k-object resident heap, each pair frees and
//                     replaces a pseudo-random resident object: the
//                     long-running-server shape.  Random placement makes
//                     this DRAM-bound, which bounds any algorithmic win.
//  * large-pairs    — 2-8 KiB objects: big enough that §3.3's
//                     per-malloc/per-free canary sweeps dominate, small
//                     enough to stay cache-resident — the SIMD kernels'
//                     scenario.  (Past ~32 KiB both kernels saturate
//                     DRAM bandwidth and converge.)
//  * op:*           — isolated hot-path operations (pointer lookup,
//                     placement, canary fill/verify) for the per-op cost
//                     trajectory.  The canary rows time both kernels
//                     that ship: the scalar one and the one dispatched
//                     from the CPU at startup.
//
// Every scenario runs on one thread: each heap serves one thread, as
// every run and every replica does.
//
// Usage:
//   micro_allocators [--json FILE] [--smoke]
//
// --json writes the BENCH_hotpath.json document (schema documented in
// ROADMAP.md); --smoke shrinks the workload for CI smoke runs.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "alloc/BaselineAllocator.h"
#include "correct/CorrectingHeap.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace exterminator;
using namespace benchreport;

namespace {

struct Options {
  uint64_t Scale = 1; // divides every iteration count (--smoke: 16)
  std::string JsonPath;
};

const std::vector<size_t> MixedSizes = {16, 24,  32,  48,  64, 96,
                                        128, 192, 256, 512, 1024};
const std::vector<size_t> LargeSizes = {2048, 4096, 8192};

struct Measurement {
  std::string Scenario;
  std::string Name;
  double NsPerOp = 0;
  double OpsPerSec = 0;
};

/// Best-of-5 wall time for \p Fn, normalized per \p Ops operations
/// (minimum over repetitions rejects scheduler noise).
template <typename FnT> double bestNsPerOp(uint64_t Ops, FnT Fn) {
  double Best = 1e30;
  for (int Rep = 0; Rep < 5; ++Rep)
    Best = std::min(Best, timeSeconds(Fn));
  return Best * 1e9 / static_cast<double>(Ops);
}

/// Immediate malloc/free pairs (tight-loop shape).
double hotPairs(Allocator &Heap, const std::vector<size_t> &Sizes,
                uint64_t Ops) {
  return bestNsPerOp(Ops, [&] {
    for (uint64_t It = 0; It < Ops; ++It) {
      void *Ptr = Heap.allocate(Sizes[It % Sizes.size()]);
      Heap.deallocate(Ptr);
    }
  });
}

/// Free-and-replace over a resident live set (server shape).
double residentChurn(Allocator &Heap, const std::vector<size_t> &Sizes,
                     size_t LiveTarget, uint64_t Ops) {
  std::vector<void *> Live;
  Live.reserve(LiveTarget);
  for (size_t I = 0; Live.size() < LiveTarget; ++I)
    if (void *Ptr = Heap.allocate(Sizes[I % Sizes.size()]))
      Live.push_back(Ptr);
  const double Ns = bestNsPerOp(Ops, [&] {
    for (uint64_t It = 0; It < Ops; ++It) {
      const size_t Idx = (It * 0x9E3779B97F4A7C15ull) % Live.size();
      Heap.deallocate(Live[Idx]);
      Live[Idx] = Heap.allocate(Sizes[It % Sizes.size()]);
    }
  });
  for (void *Ptr : Live)
    Heap.deallocate(Ptr);
  return Ns;
}

PatchSet loadedPatches() {
  // A populated patch table: lookups must still be O(1).
  PatchSet Patches;
  for (SiteId Site = 1; Site <= 500; ++Site) {
    Patches.addPad(Site, Site % 64);
    Patches.addDeferral(Site, Site + 1, Site % 128);
  }
  return Patches;
}

DieHardConfig heapConfig() {
  DieHardConfig Config;
  Config.Seed = 1;
  return Config;
}

/// Runs \p Scenario for the named allocator.
Measurement runScenario(const std::string &Scenario, const std::string &Name,
                        const Options &Opts) {
  const std::vector<size_t> &Sizes =
      Scenario == "large-pairs" ? LargeSizes : MixedSizes;
  uint64_t Ops = Scenario == "large-pairs"      ? 300000
                 : Scenario == "resident-churn" ? 400000
                                                : 1000000;
  Ops /= Opts.Scale;
  const size_t LiveTarget = 20000 / (Scenario == "resident-churn"
                                         ? static_cast<size_t>(Opts.Scale)
                                         : 1);

  auto Measure = [&](Allocator &Heap) {
    return Scenario == "resident-churn"
               ? residentChurn(Heap, Sizes, LiveTarget, Ops)
               : hotPairs(Heap, Sizes, Ops);
  };

  double Ns = 0;
  if (Name == "baseline") {
    BaselineAllocator Heap;
    Ns = Measure(Heap);
  } else if (Name == "diehard") {
    DieHardHeap Heap(heapConfig());
    Ns = Measure(Heap);
  } else if (Name == "diefast") {
    DieFastConfig Config;
    Config.Heap = heapConfig();
    DieFastHeap Heap(Config);
    Ns = Measure(Heap);
  } else if (Name == "diefast-cumulative") {
    DieFastConfig Config;
    Config.Heap = heapConfig();
    Config.CanaryFillProbability = 0.5;
    DieFastHeap Heap(Config);
    Ns = Measure(Heap);
  } else if (Name == "correcting-patched") {
    CallContext Context;
    DieFastConfig Config;
    Config.Heap = heapConfig();
    CorrectingHeap Heap(Config, &Context);
    Heap.setPatches(loadedPatches());
    Ns = Measure(Heap);
    Heap.flushDeferrals();
  } else {
    std::fprintf(stderr, "unknown allocator %s\n", Name.c_str());
    std::abort();
  }
  return Measurement{Scenario, Name, Ns, 1e9 / Ns};
}

/// Isolated hot-path operations, ns/op each.
std::vector<Measurement> runOpBenches(const Options &Opts) {
  std::vector<Measurement> Out;
  const uint64_t Ops = 2000000 / Opts.Scale;
  const size_t LiveTarget = 20000 / static_cast<size_t>(Opts.Scale);

  auto Record = [&](const std::string &Scenario, const std::string &Name,
                    double Ns) {
    Out.push_back(Measurement{Scenario, Name, Ns, 1e9 / Ns});
  };

  // Pointer lookup (free-path resolution) over a resident heap: one
  // page-directory probe per pointer.
  {
    DieHardHeap Heap(heapConfig());
    std::vector<void *> Live;
    for (size_t I = 0; Live.size() < LiveTarget; ++I)
      if (void *Ptr = Heap.allocate(MixedSizes[I % MixedSizes.size()]))
        Live.push_back(Ptr);
    volatile size_t Sink = 0;
    const double Ns = bestNsPerOp(Ops, [&] {
      size_t Acc = 0;
      for (uint64_t It = 0; It < Ops; ++It) {
        const size_t Idx = (It * 0x9E3779B97F4A7C15ull) % Live.size();
        Acc += Heap.findObject(Live[Idx])->SlotIndex;
      }
      Sink = Sink + Acc;
    });
    Record("op:pointer-lookup", "diehard", Ns);
  }

  // Placement (reserve + resolved free): offset-table resolve over a
  // grown multi-slab heap.
  {
    DieHardHeap Heap(heapConfig());
    std::vector<void *> Live;
    for (size_t I = 0; Live.size() < LiveTarget; ++I)
      if (void *Ptr = Heap.allocate(MixedSizes[I % MixedSizes.size()]))
        Live.push_back(Ptr);
    const double Ns = bestNsPerOp(Ops, [&] {
      for (uint64_t It = 0; It < Ops; ++It) {
        const ObjectRef Ref =
            Heap.reserveSlot(static_cast<unsigned>(It % 8));
        Heap.deallocateResolved(Ref);
      }
    });
    Record("op:placement", "diehard", Ns);
  }

  // Canary kernels on cached buffers: the scalar kernel and the one
  // dispatched from the CPU (both ship; the rows are named after the
  // kernel).
  for (size_t Size : {size_t(256), size_t(4096)}) {
    RandomGenerator Rng(7);
    const Canary C = Canary::random(Rng);
    std::vector<uint8_t> Buffer(Size);
    const uint64_t KernelOps = Ops * 256 / Size;
    for (canary_dispatch::Mode Mode :
         {canary_dispatch::Mode::Auto, canary_dispatch::Mode::Scalar}) {
      canary_dispatch::force(Mode);
      volatile bool Sink = false;
      const double FillNs = bestNsPerOp(KernelOps, [&] {
        for (uint64_t It = 0; It < KernelOps; ++It)
          C.fill(Buffer.data(), Size);
      });
      const double VerifyNs = bestNsPerOp(KernelOps, [&] {
        bool Ok = true;
        for (uint64_t It = 0; It < KernelOps; ++It)
          Ok &= C.verify(Buffer.data(), Size);
        Sink = Ok;
      });
      const std::string Kernel = canary_dispatch::activeName();
      Record(fmt("op:canary-fill-%zu", Size), Kernel, FillNs);
      Record(fmt("op:canary-verify-%zu", Size), Kernel, VerifyNs);
    }
    canary_dispatch::force(canary_dispatch::Mode::Auto);
  }
  return Out;
}

/// One heap's ns/op over the baseline allocator's in one scenario.
struct BaselineRatio {
  std::string Scenario;
  std::string Name;
  double Ratio = 0;
};

/// Each randomized heap's ratio to the baseline row of its scenario
/// (Figure 7's normalization, per operation).
std::vector<BaselineRatio>
baselineRatios(const std::vector<Measurement> &Results) {
  std::vector<BaselineRatio> Out;
  for (const Measurement &Baseline : Results) {
    if (Baseline.Name != "baseline")
      continue;
    for (const Measurement &M : Results)
      if (M.Scenario == Baseline.Scenario && M.Name != "baseline")
        Out.push_back({M.Scenario, M.Name, M.NsPerOp / Baseline.NsPerOp});
  }
  return Out;
}

/// Scalar ns / dispatched ns for each canary op row pair.
std::vector<std::pair<std::string, double>>
kernelSpeedups(const std::vector<Measurement> &OpResults) {
  std::vector<std::pair<std::string, double>> Out;
  for (const Measurement &Dispatched : OpResults) {
    if (Dispatched.Scenario.rfind("op:canary", 0) != 0 ||
        Dispatched.Name == "scalar")
      continue;
    for (const Measurement &Scalar : OpResults)
      if (Scalar.Scenario == Dispatched.Scenario && Scalar.Name == "scalar") {
        Out.emplace_back(Dispatched.Scenario,
                         Scalar.NsPerOp / Dispatched.NsPerOp);
        break;
      }
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      Opts.JsonPath = Argv[++I];
    } else if (Arg == "--smoke") {
      Opts.Scale = 16;
    } else {
      std::fprintf(stderr, "usage: micro_allocators [--json FILE] [--smoke]\n");
      return 2;
    }
  }

  heading("Hot-path microbenchmarks (ns per malloc/free pair)");
  note("canary dispatch (auto): %s", canary_dispatch::activeName());

  const char *Scenarios[] = {"hot-pairs", "resident-churn", "large-pairs"};
  const char *Heaps[] = {"baseline", "diehard", "diefast",
                         "diefast-cumulative", "correcting-patched"};

  std::vector<Measurement> Results;
  for (const char *Scenario : Scenarios)
    for (const char *Name : Heaps)
      Results.push_back(runScenario(Scenario, Name, Opts));
  const std::vector<BaselineRatio> Ratios = baselineRatios(Results);

  std::vector<Measurement> OpResults = runOpBenches(Opts);
  const std::vector<std::pair<std::string, double>> KernelSpeedups =
      kernelSpeedups(OpResults);

  Table Report({"scenario", "allocator", "ns/op", "Mops/s"});
  for (const std::vector<Measurement> *Set : {&Results, &OpResults})
    for (const Measurement &M : *Set)
      Report.addRow({M.Scenario, M.Name, fmt("%.1f", M.NsPerOp),
                     fmt("%.2f", M.OpsPerSec / 1e6)});
  Report.print();

  heading("Per-operation cost relative to the baseline allocator");
  Table RatioTable({"scenario", "allocator", "x baseline"});
  for (const BaselineRatio &R : Ratios)
    RatioTable.addRow({R.Scenario, R.Name, fmt("%.2fx", R.Ratio)});
  RatioTable.print();
  note("resident-churn is DRAM-bound by design (random placement defeats "
       "locality), so its ratios are memory-limited");
  Table KernelTable({"scenario", "scalar vs dispatched kernel"});
  for (const auto &[Scenario, Speedup] : KernelSpeedups)
    KernelTable.addRow({Scenario, fmt("%.2fx", Speedup)});
  KernelTable.print();

  if (!Opts.JsonPath.empty()) {
    JsonWriter Json;
    Json.beginObject();
    Json.field("bench", "hotpath");
    Json.field("schema_version", 6);
    Json.beginObject("config");
    Json.field("scale_divisor", Opts.Scale);
    Json.field("canary_dispatch_auto", canary_dispatch::activeName());
    Json.field("hardware_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    Json.field("cpu_model", cpuModel());
    Json.endObject();
    Json.beginArray("results");
    for (const std::vector<Measurement> *Set : {&Results, &OpResults})
      for (const Measurement &M : *Set) {
        Json.beginObject();
        Json.field("scenario", M.Scenario);
        Json.field("name", M.Name);
        Json.field("ns_per_op", M.NsPerOp);
        Json.field("ops_per_sec", M.OpsPerSec);
        Json.endObject();
      }
    Json.endArray();
    Json.beginArray("baseline_ratios");
    for (const BaselineRatio &R : Ratios) {
      Json.beginObject();
      Json.field("scenario", R.Scenario);
      Json.field("name", R.Name);
      Json.field("ratio", R.Ratio);
      Json.endObject();
    }
    Json.endArray();
    Json.beginArray("kernel_speedups");
    for (const auto &[Scenario, Speedup] : KernelSpeedups) {
      Json.beginObject();
      Json.field("scenario", Scenario);
      Json.field("speedup", Speedup);
      Json.endObject();
    }
    Json.endArray();
    Json.endObject();
    if (!Json.writeFile(Opts.JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", Opts.JsonPath.c_str());
      return 1;
    }
    note("wrote %s", Opts.JsonPath.c_str());
  }
  return 0;
}
