//===- bench/fig7_overhead.cpp - Figure 7 --------------------------------------===//
//
// Regenerates Figure 7: runtime overhead of Exterminator (DieFast plus
// the correcting allocator, non-replicated mode) normalized to the GNU
// libc allocator, across the allocation-intensive suite and the
// SPECint2000-like suite.
//
// The paper reports: 0% (186.crafty) to 132% (cfrac) overhead, geometric
// mean 25.1% overall, 81.2% on the allocation-intensive suite, 7.2% on
// SPECint.  Absolute times differ from the paper's 2007 Xeon; the shape —
// allocation-intensive programs pay heavily, compute-bound programs pay
// little — is the reproduction target, and the exit status gates it: 1
// when the allocation-intensive geomean does not exceed the SPECint one.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "alloc/BaselineAllocator.h"
#include "correct/CorrectingHeap.h"
#include "support/Statistics.h"
#include "workload/SyntheticSuite.h"

#include <cstdio>
#include <string>

using namespace exterminator;
using namespace benchreport;

namespace {

/// Median-of-N wall time for one workload over one allocator stack.
double measure(SyntheticWorkload &Work, bool UseExterminator,
               uint64_t Seed) {
  constexpr int Repeats = 3;
  double Best = 1e30;
  for (int R = 0; R < Repeats; ++R) {
    double Seconds = timeSeconds([&] {
      CallContext Context;
      if (UseExterminator) {
        DieFastConfig Config;
        Config.Heap.Seed = Seed + R;
        CorrectingHeap Heap(Config, &Context);
        AllocatorHandle Handle(Heap, Context, &Heap.diefast().heap());
        Work.run(Handle, /*InputSeed=*/42);
      } else {
        BaselineAllocator Heap;
        AllocatorHandle Handle(Heap, Context, nullptr);
        Work.run(Handle, /*InputSeed=*/42);
      }
    });
    if (Seconds < Best)
      Best = Seconds;
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: fig7_overhead [--json FILE]\n");
      return 2;
    }
  }

  heading("Figure 7: Exterminator runtime overhead vs GNU libc allocator");
  note("normalized execution time (1.00 = baseline allocator)");

  Table Out({"benchmark", "suite", "baseline(s)", "exterminator(s)",
             "normalized"});
  std::vector<double> AllocIntensive, SpecLike, All;
  JsonWriter Json;
  Json.beginObject();
  Json.field("bench", "fig7_overhead");
  Json.field("schema_version", 1);
  Json.beginArray("results");

  for (const SyntheticProfile &Profile : figure7Profiles()) {
    SyntheticWorkload Work(Profile);
    const double Base = measure(Work, /*UseExterminator=*/false, 101);
    const double Ext = measure(Work, /*UseExterminator=*/true, 101);
    const double Normalized = Ext / Base;
    (Profile.AllocationIntensive ? AllocIntensive : SpecLike)
        .push_back(Normalized);
    All.push_back(Normalized);
    Out.addRow({Profile.Name,
                Profile.AllocationIntensive ? "alloc-intensive" : "SPECint",
                fmt("%.4f", Base), fmt("%.4f", Ext),
                fmt("%.2f", Normalized)});
    Json.beginObject();
    Json.field("name", Profile.Name);
    Json.field("suite",
               Profile.AllocationIntensive ? "alloc-intensive" : "SPECint");
    Json.field("baseline_seconds", Base);
    Json.field("exterminator_seconds", Ext);
    Json.field("normalized", Normalized);
    Json.endObject();
  }
  Json.endArray();
  Out.print();

  const double GeoAlloc = geometricMean(AllocIntensive);
  const double GeoSpec = geometricMean(SpecLike);
  const double GeoAll = geometricMean(All);
  note("geomean normalized: alloc-intensive %.2f (paper 1.81), "
       "SPECint %.2f (paper 1.07), overall %.2f (paper 1.25)",
       GeoAlloc, GeoSpec, GeoAll);
  const bool ShapeHolds = GeoAlloc > GeoSpec;
  note("shape check: alloc-intensive overhead %s SPECint overhead",
       ShapeHolds ? "exceeds" : "DOES NOT exceed");

  Json.field("geomean_alloc_intensive", GeoAlloc);
  Json.field("geomean_specint", GeoSpec);
  Json.field("geomean_overall", GeoAll);
  Json.endObject();
  if (!JsonPath.empty()) {
    if (!Json.writeFile(JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", JsonPath.c_str());
      return 1;
    }
    note("wrote %s", JsonPath.c_str());
  }
  if (!ShapeHolds) {
    std::fprintf(stderr, "Figure 7 shape check failed: alloc-intensive "
                         "geomean %.2f <= SPECint geomean %.2f\n",
                 GeoAlloc, GeoSpec);
    return 1;
  }
  return 0;
}
