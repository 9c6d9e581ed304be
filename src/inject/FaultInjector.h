//===- inject/FaultInjector.h - Fault injection ----------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An allocator decorator that injects memory errors into an otherwise
/// correct program (§7.2).  It interposes between the workload and the
/// heap stack, so an injected bug behaves exactly like an application
/// bug:
///
///  * BufferOverflow — remembers the pointer returned for the trigger
///    allocation and later writes a deterministic byte string past the
///    *requested* end of that buffer (forward overflow, §2.1).  When a
///    runtime patch pads the allocation site, the same write lands inside
///    the enlarged allocation and the bug is corrected.
///
///  * PrematureFree — at the trigger allocation, frees one of the
///    program's oldest live objects behind its back.  The program's own
///    eventual free becomes a benign double free; its continued use of
///    the object becomes a dangling-pointer error.  When a runtime patch
///    defers frees at that site pair, the hidden free is delayed past the
///    program's last use and the bug is corrected.
///
/// The hardware fault models (PR 9) behave like failing DRAM rather than
/// a buggy call site.  A software bug is keyed to allocation order, so it
/// strikes the *same logical object* in every differently-randomized
/// replica; a hardware fault is keyed to a physical location, so across
/// replicas it strikes whatever object randomization placed there.  The
/// injector reproduces that distinction by selecting hardware victims
/// through their *slab-relative placement* (via an attached DieHardHeap):
/// replaying one heap seed re-corrupts bit-identical locations, while
/// replicas with different seeds corrupt unrelated objects — exactly the
/// decorrelation the origin classifier recognizes.
///
///  * BitFlip — flips FlipBits seeded bits in the chosen victim cell.
///    Victims are preferentially drawn from recently-freed (canary-
///    filled) slots, where DieFast's sweeps surface the damage.
///
///  * StuckAt — picks one bit of the victim cell and a stuck value; the
///    cell is re-forced on every subsequent heap operation, so every
///    rewrite (canary refill, reallocation) is re-corrupted.
///
///  * RowCluster — flips one seeded bit in every tracked object
///    overlapping the simulated DRAM row (RowBytes, slab-aligned)
///    containing the victim: spatially-clustered multi-slot damage.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_INJECT_FAULTINJECTOR_H
#define EXTERMINATOR_INJECT_FAULTINJECTOR_H

#include "alloc/Allocator.h"
#include "inject/FaultPlan.h"
#include "support/RandomGenerator.h"

#include <cstdint>
#include <vector>

namespace exterminator {

class DieHardHeap;

/// Injection-side accounting, exported through the observability plane
/// (registerInjectorMetrics) so injected-fault counts are scrapeable
/// next to heap stats.
struct FaultInjectorStats {
  /// Software faults fired (overflow string written or victim freed).
  uint64_t SoftwareFaultsFired = 0;
  /// Hardware trigger events fired (any hardware kind).
  uint64_t HardwareFaultEvents = 0;
  /// Individual bits flipped by BitFlip and RowCluster faults.
  uint64_t BitsFlipped = 0;
  /// Times the stuck-at cell was forced back to its stuck value after
  /// something rewrote it (the first corruption counts too).
  uint64_t StuckAtRewrites = 0;
  /// Objects corrupted by the row-cluster fault.
  uint64_t RowObjectsCorrupted = 0;
};

/// Wraps an allocator and injects the faults described by a plan.
class FaultInjector : public Allocator {
public:
  FaultInjector(Allocator &Inner, const FaultPlan &Plan);
  ~FaultInjector() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  const char *name() const override { return "fault-injector"; }

  /// Counters live in the wrapped allocator; forwarding keeps the
  /// per-operation stats copy off the hot path.
  const AllocatorStats &stats() const override { return Inner.stats(); }

  /// Attaches the backing DieHard heap so hardware victims can be keyed
  /// to slab-relative placement (deterministic per heap seed, unrelated
  /// across seeds).  Without a heap the injector falls back to
  /// allocation-order keying, which is replayable but — like a software
  /// bug — correlated across replicas.
  void attachHeap(const DieHardHeap *Heap) { Backend = Heap; }

  /// Whether the fault has fired this run.
  bool faultFired() const { return Fired; }

  /// The pointer prematurely freed (PrematureFree) or the hardware
  /// victim cell's object start, for tests.
  const void *injectedVictim() const { return Victim; }

  /// Injection accounting (see FaultInjectorStats).
  const FaultInjectorStats &injectorStats() const { return IStats; }

  /// The corruption the hardware fault wrote, for replay-determinism
  /// tests: (object allocation index, byte offset within the object,
  /// XOR mask applied), in the order applied.
  struct InjectedFlip {
    uint64_t AllocIndex;
    uint32_t ByteOffset;
    uint8_t Mask;
  };
  const std::vector<InjectedFlip> &injectedFlips() const { return Flips; }

private:
  struct TrackedObject {
    void *Ptr;
    size_t Size;
    uint64_t AllocIndex;
    bool FreedCanaried; // freed behind us: candidate canaried cell
  };

  void fireOverflowIfDue(bool Force = false);
  void fireHardwareIfDue();
  void enforceStuckAt();

  /// Placement key for hardware victim choice: deterministic per heap
  /// seed, decorrelated across seeds (see attachHeap).
  uint64_t placementKey(const TrackedObject &Object) const;

  void flipBit(const TrackedObject &Object, uint64_t KeyBits,
               uint32_t FlipIndex);

  Allocator &Inner;
  FaultPlan Plan;
  const DieHardHeap *Backend = nullptr;
  uint64_t AllocCount = 0;
  bool Fired = false;
  FaultInjectorStats IStats;

  // BufferOverflow state.
  void *OverflowTarget = nullptr;
  size_t OverflowTargetSize = 0;
  uint64_t OverflowDueAt = 0;

  // PrematureFree state: live objects in allocation order.
  struct LiveObject {
    void *Ptr;
    uint64_t AllocIndex;
  };
  std::vector<LiveObject> Live;
  void *Victim = nullptr;

  // Hardware state: live and recently-freed objects in allocation order.
  std::vector<TrackedObject> Tracked;
  std::vector<InjectedFlip> Flips;
  /// Bound on retained freed entries (oldest evicted first).
  static constexpr size_t MaxFreedTracked = 64;
  size_t FreedTracked = 0;

  // StuckAt state: the stuck cell, valid once the fault fired.
  uint8_t *StuckByte = nullptr;
  uint8_t StuckMask = 0;
  uint8_t StuckValue = 0; // the stuck bit's value under StuckMask
  uint64_t StuckAllocIndex = 0;
  uint32_t StuckOffset = 0;
};

} // namespace exterminator

#endif // EXTERMINATOR_INJECT_FAULTINJECTOR_H
