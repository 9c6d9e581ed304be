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
//  * mt-hot-pairs   — N threads of immediate malloc/free pairs with
//  * mt-churn         cross-thread frees, through the PR-7 concurrent
//                     front-end ("cached": per-thread magazines) and
//                     through this file's comparator ("global-lock": one
//                     DieHardHeap behind one mutex, the pre-PR-7
//                     design).  Each (scenario, threads) point runs as
//                     alternating cached/global-lock pairs and reports
//                     each mode's median and quartiles plus the pairs
//                     cached won, so one noisy run cannot flip the
//                     comparison.  Alongside wall time the run records
//                     lock acquisitions per operation — the
//                     machine-independent decontention witness, since
//                     wall-clock scaling saturates at the host's core
//                     count (recorded in the JSON as hardware_threads).
//
// Usage:
//   micro_allocators [--json FILE] [--smoke]
//
// --json writes the BENCH_hotpath.json document (schema documented in
// ROADMAP.md); --smoke shrinks the workload (and runs one contended pair
// per point) for CI smoke runs.  The contended runs stamp and verify
// every object, so the exit status is 1 when any of them saw a pattern
// fault (two threads sharing a slot).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "alloc/BaselineAllocator.h"
#include "alloc/ConcurrentAllocator.h"
#include "correct/CorrectingHeap.h"
#include "runtime/ConcurrentStress.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace exterminator;
using namespace benchreport;

namespace {

struct Options {
  uint64_t Scale = 1; // divides every iteration count (--smoke: 16)
  unsigned MtPairs = 5; // cached/global-lock pairs per point (--smoke: 1)
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

//===----------------------------------------------------------------------===//
// Contended scenarios (PR 7)
//===----------------------------------------------------------------------===//

/// The contended runs' comparator: the pre-PR-7 "just lock it"
/// front-end, one DieHardHeap behind one mutex that every operation
/// takes.  It counts its acquisitions the way ConcurrentAllocator counts
/// its backend's, so locks/op reads exactly 1.
class GlobalLockAllocator : public Allocator {
public:
  explicit GlobalLockAllocator(const DieHardConfig &Config) : Heap(Config) {}

  void *allocate(size_t Size) override {
    std::lock_guard<std::mutex> Guard(Lock);
    ++LockAcquires;
    return Heap.allocate(Size);
  }
  void deallocate(void *Ptr) override {
    if (!Ptr)
      return;
    std::lock_guard<std::mutex> Guard(Lock);
    ++LockAcquires;
    Heap.deallocate(Ptr);
  }
  const char *name() const override { return "diehard-global-lock"; }

  /// Read after the workers joined.
  uint64_t lockAcquires() const { return LockAcquires; }

private:
  std::mutex Lock;
  DieHardHeap Heap;
  uint64_t LockAcquires = 0;
};

/// One timed contended run of one mode.
struct MtRun {
  double NsPerOp = 0;
  double LockAcquiresPerOp = 0;
  uint64_t PatternFaults = 0;
};

/// One mode at one (scenario, threads) point, summarized over its runs.
struct MtMeasurement {
  std::string Scenario; // "mt-hot-pairs" or "mt-churn"
  unsigned Threads = 1;
  std::string Mode; // "cached" or "global-lock"
  /// Median and quartiles of ns/op over the runs.
  double NsPerOp = 0;
  double NsPerOpQ1 = 0;
  double NsPerOpQ3 = 0;
  double OpsPerSec = 0;
  /// Median backend lock acquisitions per operation: ~2/MagazineSize
  /// for the cached mode, exactly 1 for global-lock.
  double LockAcquiresPerOp = 0;
  /// Header-stamp mismatches over all runs (must be 0: the bench
  /// doubles as a memory-integrity check).
  uint64_t PatternFaults = 0;
  unsigned Runs = 0;
};

/// The cached-vs-global-lock verdict at one (scenario, threads) point.
struct MtSpeedup {
  std::string Key; // "<scenario>/<threads>t"
  /// Median global-lock ns / median cached ns.
  double Speedup = 0;
  unsigned Pairs = 0;
  /// Pairs whose cached run beat its global-lock run.
  unsigned CachedWins = 0;
};

/// Linear-interpolated quantile of \p Values (sorted in place).
double quantile(std::vector<double> &Values, double Q) {
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

/// One contended run: N workers over a fresh ConcurrentAllocator (or,
/// with \p GlobalLock, a fresh comparator) via runConcurrentStress.
MtRun runMtOnce(const ConcurrentStressConfig &Stress, bool GlobalLock) {
  DieHardConfig Heap;
  Heap.Seed = 1;
  MtRun Run;
  auto Record = [&](const ConcurrentStressResult &R, uint64_t Locks) {
    // Allocate + free for every allocation: 2 ops each.
    const double Ops = 2.0 * static_cast<double>(R.Allocations);
    Run.NsPerOp = R.Seconds * 1e9 / Ops;
    Run.LockAcquiresPerOp = static_cast<double>(Locks) / Ops;
    Run.PatternFaults = R.PatternFaults;
  };
  if (GlobalLock) {
    GlobalLockAllocator Alloc(Heap);
    const ConcurrentStressResult R = runConcurrentStress(Alloc, Stress);
    Record(R, Alloc.lockAcquires());
  } else {
    ConcurrentAllocatorConfig Cfg;
    Cfg.Heap = Heap;
    Cfg.MagazineSize = 32;
    ConcurrentAllocator Alloc(Cfg);
    const ConcurrentStressResult R = runConcurrentStress(Alloc, Stress);
    Record(R, Alloc.backendLockAcquires()); // before the flush at teardown
  }
  return Run;
}

/// Both modes at one (scenario, threads) point: Opts.MtPairs pairs of
/// runs, alternating which mode goes first so drift on a shared host
/// falls on both sides.
void runMtPoint(const std::string &Scenario, unsigned Threads,
                const Options &Opts, std::vector<MtMeasurement> &Out,
                std::vector<MtSpeedup> &Speedups) {
  ConcurrentStressConfig Stress;
  Stress.Threads = Threads;
  Stress.OpsPerThread =
      (Scenario == "mt-churn" ? 100000 : 200000) / Opts.Scale;
  Stress.ResidentPerThread =
      Scenario == "mt-churn" ? 2000 / static_cast<size_t>(Opts.Scale) : 0;
  Stress.CrossFreeFraction = 0.25;
  Stress.Seed = 1;

  std::vector<MtRun> Runs[2]; // [0] cached, [1] global-lock
  MtSpeedup Verdict;
  Verdict.Key = fmt("%s/%ut", Scenario.c_str(), Threads);
  for (unsigned Pair = 0; Pair < Opts.MtPairs; ++Pair) {
    const bool LockFirst = Pair % 2 == 1;
    for (const bool GlobalLock : {LockFirst, !LockFirst})
      Runs[GlobalLock].push_back(runMtOnce(Stress, GlobalLock));
    ++Verdict.Pairs;
    if (Runs[0].back().NsPerOp < Runs[1].back().NsPerOp)
      ++Verdict.CachedWins;
  }

  double Median[2] = {0, 0};
  for (const bool GlobalLock : {false, true}) {
    std::vector<double> Ns, Locks;
    MtMeasurement M;
    M.Scenario = Scenario;
    M.Threads = Threads;
    M.Mode = GlobalLock ? "global-lock" : "cached";
    for (const MtRun &Run : Runs[GlobalLock]) {
      Ns.push_back(Run.NsPerOp);
      Locks.push_back(Run.LockAcquiresPerOp);
      M.PatternFaults += Run.PatternFaults;
    }
    M.Runs = static_cast<unsigned>(Ns.size());
    M.NsPerOp = quantile(Ns, 0.5);
    M.NsPerOpQ1 = quantile(Ns, 0.25);
    M.NsPerOpQ3 = quantile(Ns, 0.75);
    M.OpsPerSec = 1e9 / M.NsPerOp;
    M.LockAcquiresPerOp = quantile(Locks, 0.5);
    Median[GlobalLock] = M.NsPerOp;
    Out.push_back(M);
  }
  Verdict.Speedup = Median[1] / Median[0];
  Speedups.push_back(Verdict);
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
      Opts.MtPairs = 1;
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

  std::vector<MtMeasurement> MtResults;
  std::vector<MtSpeedup> MtSpeedups;
  for (const char *Scenario : {"mt-hot-pairs", "mt-churn"})
    for (unsigned Threads : {1u, 2u, 4u, 8u})
      runMtPoint(Scenario, Threads, Opts, MtResults, MtSpeedups);
  heading("Contended scenarios: per-thread caches vs global lock");
  note("hardware threads on this host: %u (wall-clock scaling saturates "
       "here; lock acquisitions per op do not); %u alternating "
       "cached/global-lock pair(s) per point",
       std::thread::hardware_concurrency(), Opts.MtPairs);
  Table MtTable({"scenario", "threads", "mode", "ns/op p50", "p25", "p75",
                 "Mops/s", "locks/op"});
  uint64_t MtFaults = 0;
  for (const MtMeasurement &M : MtResults) {
    MtTable.addRow({M.Scenario, fmt("%u", M.Threads), M.Mode,
                    fmt("%.1f", M.NsPerOp), fmt("%.1f", M.NsPerOpQ1),
                    fmt("%.1f", M.NsPerOpQ3), fmt("%.2f", M.OpsPerSec / 1e6),
                    fmt("%.4f", M.LockAcquiresPerOp)});
    MtFaults += M.PatternFaults;
  }
  MtTable.print();
  Table MtSpeedupTable(
      {"scenario/threads", "cached vs global-lock (p50)", "cached won"});
  double MtHeadline = 0;
  for (const MtSpeedup &S : MtSpeedups) {
    MtSpeedupTable.addRow({S.Key, fmt("%.2fx", S.Speedup),
                           fmt("%u/%u", S.CachedWins, S.Pairs)});
    if (S.Key == "mt-hot-pairs/4t")
      MtHeadline = S.Speedup;
  }
  MtSpeedupTable.print();
  note("mt headline (mt-hot-pairs, 4 threads, cached vs global-lock): "
       "%.2fx; pattern faults across all runs: %llu",
       MtHeadline, static_cast<unsigned long long>(MtFaults));

  if (!Opts.JsonPath.empty()) {
    JsonWriter Json;
    Json.beginObject();
    Json.field("bench", "hotpath");
    Json.field("schema_version", 5);
    Json.beginObject("config");
    Json.field("scale_divisor", Opts.Scale);
    Json.field("mt_pairs", static_cast<uint64_t>(Opts.MtPairs));
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
    Json.beginArray("mt_results");
    for (const MtMeasurement &M : MtResults) {
      Json.beginObject();
      Json.field("scenario", M.Scenario);
      Json.field("threads", static_cast<uint64_t>(M.Threads));
      Json.field("mode", M.Mode);
      Json.field("runs", static_cast<uint64_t>(M.Runs));
      Json.field("ns_per_op", M.NsPerOp);
      Json.field("ns_per_op_p25", M.NsPerOpQ1);
      Json.field("ns_per_op_p75", M.NsPerOpQ3);
      Json.field("ops_per_sec", M.OpsPerSec);
      Json.field("lock_acquires_per_op", M.LockAcquiresPerOp);
      Json.field("pattern_faults", M.PatternFaults);
      Json.endObject();
    }
    Json.endArray();
    Json.beginArray("mt_speedups");
    for (const MtSpeedup &S : MtSpeedups) {
      Json.beginObject();
      Json.field("scenario", S.Key);
      Json.field("speedup", S.Speedup);
      Json.field("pairs", static_cast<uint64_t>(S.Pairs));
      Json.field("cached_wins", static_cast<uint64_t>(S.CachedWins));
      Json.endObject();
    }
    Json.endArray();
    Json.field("mt_headline_scenario", "mt-hot-pairs/4t cached vs global-lock");
    Json.field("mt_headline_speedup", MtHeadline);
    Json.endObject();
    if (!Json.writeFile(Opts.JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", Opts.JsonPath.c_str());
      return 1;
    }
    note("wrote %s", Opts.JsonPath.c_str());
  }
  if (MtFaults != 0) {
    std::fprintf(stderr,
                 "memory-integrity check failed: %llu pattern fault(s) in "
                 "the contended runs\n",
                 static_cast<unsigned long long>(MtFaults));
    return 1;
  }
  return 0;
}
