//===- runtime/Exterminator.cpp - Runtime facade ----------------------------===//

#include "runtime/Exterminator.h"

#include "inject/FaultInjector.h"

#include <memory>

using namespace exterminator;

namespace {

/// Captures a heap image the moment the allocation clock reaches a malloc
/// breakpoint (§3.4: "Exterminator reads the allocation time from the
/// initial heap image to abort execution at that point").  Execution then
/// continues — the image, not the abort, is what isolation needs.
///
/// The capture happens at the *entry* of the first allocation after the
/// clock reaches the breakpoint: failures are detected between allocation
/// T and T+1 (a corrupting write followed by a checking free, or a crash),
/// so the image must include everything the program did in that window.
class BreakpointWatcher : public Allocator {
public:
  BreakpointWatcher(CorrectingHeap &Inner, uint64_t BreakAt)
      : Inner(Inner), BreakAt(BreakAt) {}

  void *allocate(size_t Size) override {
    if (!Captured &&
        Inner.diefast().heap().allocationClock() >= BreakAt) {
      Image = captureHeapImage(Inner.diefast());
      Captured = true;
    }
    return Inner.allocate(Size);
  }

  void deallocate(void *Ptr) override { Inner.deallocate(Ptr); }

  const char *name() const override { return "breakpoint-watcher"; }

  const AllocatorStats &stats() const override { return Inner.stats(); }

  bool captured() const { return Captured; }
  HeapImage takeImage() { return std::move(Image); }

private:
  CorrectingHeap &Inner;
  uint64_t BreakAt;
  bool Captured = false;
  HeapImage Image;
};

} // namespace

SingleRunResult exterminator::runWorkloadOnce(
    Workload &Work, uint64_t InputSeed, uint64_t HeapSeed,
    const ExterminatorConfig &Config, const PatchSet &Patches,
    std::optional<uint64_t> BreakpointAt) {
  SingleRunResult Run;

  CallContext Context;
  DieFastConfig HeapConfig;
  HeapConfig.Heap = Config.Heap;
  HeapConfig.Heap.Seed = HeapSeed;
  HeapConfig.CanaryFillProbability = Config.CanaryFillProbability;

  CorrectingHeap Heap(HeapConfig, &Context);
  Heap.setPatches(Patches);

  // Replay runs ignore DieFast signals before the breakpoint (§3.4); a
  // discovery run records the allocation time of the first signal, which
  // its replays use as their malloc breakpoint.
  if (!BreakpointAt) {
    Heap.diefast().setErrorHandler([&](const ErrorSignal &Signal) {
      if (Run.ErrorSignalled)
        return;
      Run.ErrorSignalled = true;
      Run.FirstSignalTime = Signal.DetectionTime;
    });
  }

  // Assemble the stack: workload → (injector) → (watcher) → correcting.
  Allocator *Top = &Heap;
  std::unique_ptr<BreakpointWatcher> Watcher;
  if (BreakpointAt) {
    Watcher = std::make_unique<BreakpointWatcher>(Heap, *BreakpointAt);
    Top = Watcher.get();
  }
  std::unique_ptr<FaultInjector> Injector;
  if (Config.Fault.Kind != FaultKind::None) {
    Injector = std::make_unique<FaultInjector>(*Top, Config.Fault);
    // Hardware fault models key victims to slab-relative placement, so
    // they strike this replica's physical layout, not its logical
    // allocation order.
    Injector->attachHeap(&Heap.diefast().heap());
    Top = Injector.get();
  }

  AllocatorHandle Handle(*Top, Context, &Heap.diefast().heap());
  Run.Result = Work.run(Handle, InputSeed);

  Run.EndTime = Heap.diefast().heap().allocationClock();
  Run.FinalImage = captureHeapImage(Heap.diefast());
  if (Watcher && Watcher->captured())
    Run.BreakpointImage = Watcher->takeImage();
  Run.Alloc = Heap.stats();
  Run.Correction = Heap.correctionStats();
  Run.FaultFired = Injector && Injector->faultFired();
  return Run;
}
