//===- diefast/DieFastHeap.h - Probabilistic debugging allocator -*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DieFast (paper §3.3, Figure 4): DieHard's randomized heap extended to
/// *detect and expose* memory errors rather than merely tolerate them.
///
/// On every allocation, the memory about to be returned is checked: if it
/// was canary-filled when freed and the canary is no longer intact, the
/// slot is quarantined (bad-object isolation preserves its contents and
/// its previous owner's metadata for the error isolator), an error is
/// signalled, and a different slot is chosen.  On every deallocation the
/// freed slot's address-order neighbors are checked the same way, and the
/// freed slot itself is filled with canaries — always in iterative and
/// replicated modes, with probability p in cumulative mode (needed to
/// isolate read-only dangling pointers, §5.2).
///
/// Allocated objects are always zero-filled: Exterminator cannot repair
/// uninitialized reads, so it makes them deterministic instead (§2.1).
/// The zeroing fuses into the canary check.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_DIEFAST_DIEFASTHEAP_H
#define EXTERMINATOR_DIEFAST_DIEFASTHEAP_H

#include "alloc/DieHardHeap.h"
#include "diefast/Canary.h"
#include "diefast/ErrorSignal.h"

#include <cstdint>

namespace exterminator {

/// Tuning knobs for DieFast.
struct DieFastConfig {
  /// The underlying DieHard heap configuration.
  DieHardConfig Heap;
  /// Probability p of filling a freed object with canaries.  Iterative
  /// and replicated modes use 1.0 ("Exterminator always fills freed
  /// objects with canaries when not running in cumulative mode"); the
  /// cumulative mode uses p = 1/2 (§5.2).
  double CanaryFillProbability = 1.0;
};

/// The DieFast probabilistic debugging allocator.
class DieFastHeap : public Allocator {
public:
  explicit DieFastHeap(const DieFastConfig &Config = DieFastConfig(),
                       const CallContext *Context = nullptr);
  ~DieFastHeap() override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  const char *name() const override { return "diefast"; }

  /// Counters live in the underlying DieHard heap; forwarding keeps the
  /// per-operation stats copy off the hot path.
  const AllocatorStats &stats() const override { return Heap.stats(); }

  /// Like \c deallocate but records \p FreeSite instead of sampling the
  /// call context (deferred frees keep their original site, §6.3).
  void deallocateWithSite(void *Ptr, SiteId FreeSite);

  /// Frees an already-resolved live slot (single pointer lookup across
  /// the whole correcting/DieFast/DieHard stack).
  void deallocateResolved(const ObjectRef &Ref, SiteId FreeSite);

  /// Installs the handler invoked on each detected corruption.
  void setErrorHandler(ErrorSignalHandler Handler) {
    OnError = std::move(Handler);
  }

  /// Number of corruptions signalled so far.
  uint64_t errorsSignalled() const { return ErrorsSignalled; }

  const Canary &canary() const { return HeapCanary; }

  /// The underlying randomized heap (heap-image capture, queries).
  DieHardHeap &heap() { return Heap; }
  const DieHardHeap &heap() const { return Heap; }

  double canaryFillProbability() const {
    return Config.CanaryFillProbability;
  }

private:
  void deallocateImpl(void *Ptr, std::optional<SiteId> SiteOverride);

  /// Neighbor canary checks plus probabilistic canary fill of the slot
  /// that was just freed (the Figure 4 post-free work).
  void afterFree(const ObjectRef &Ref);

  void signalError(ErrorSignalKind Kind, const ObjectRef &Where);

  DieFastConfig Config;
  DieHardHeap Heap;
  RandomGenerator Rng;
  Canary HeapCanary;
  ErrorSignalHandler OnError;
  uint64_t ErrorsSignalled = 0;
};

} // namespace exterminator

#endif // EXTERMINATOR_DIEFAST_DIEFASTHEAP_H
