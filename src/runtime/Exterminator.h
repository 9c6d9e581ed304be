//===- runtime/Exterminator.h - Runtime facade -----------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Exterminator runtime: configuration shared by the three modes of
/// operation (§3.4) and the single-run harness they are built from.
///
/// One *run* executes a workload over the full heap stack —
/// workload → (fault injector) → correcting allocator → DieFast →
/// DieHard — with a fresh heap seed, recording the allocation time of the
/// first DieFast error signal and capturing heap images at an optional
/// *malloc breakpoint* (replay runs) and at the end of the run.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_RUNTIME_EXTERMINATOR_H
#define EXTERMINATOR_RUNTIME_EXTERMINATOR_H

#include "correct/CorrectingHeap.h"
#include "cumulative/CumulativeIsolator.h"
#include "heapimage/HeapImage.h"
#include "inject/FaultPlan.h"
#include "isolate/ErrorIsolator.h"
#include "workload/Workload.h"

#include <cstdint>
#include <optional>

namespace exterminator {

/// Configuration for the Exterminator runtime, shared by every mode.
struct ExterminatorConfig {
  /// The DieHard substrate (multiplier M, initial slab size).  The
  /// per-run seed is filled in by the drivers.
  DieHardConfig Heap;
  /// Canary fill probability p: 1.0 for iterative/replicated, 1/2 for
  /// cumulative (§3.3, §5.2).
  double CanaryFillProbability = 1.0;
  /// Iterative/replicated isolation tuning (§4).
  IsolationConfig Isolation;
  /// Cumulative-mode tuning (§5).
  CumulativeConfig Cumulative;
  /// Optional injected fault (§7.2); FaultKind::None for real bugs.
  FaultPlan Fault;
  /// Seed from which all per-run heap seeds derive.
  uint64_t MasterSeed = 0x0ddba11;
  /// Discovery runs an iterative session may try before concluding the
  /// program is error-free: a probabilistic detector can miss a bug in
  /// any one run (an overflow landing on a virgin slot is invisible), so
  /// discovery re-runs with fresh seeds like a tester would.
  unsigned DiscoveryAttempts = 5;
  /// Minimum images before attempting isolation (the paper's espresso
  /// experiments converge with 3 in every case, §7.2).
  unsigned MinImages = 3;
  /// Give up gathering images for one error after this many.
  unsigned MaxImages = 8;
  /// Maximum correct-and-retry episodes per session (each episode fixes
  /// one error or doubles a deferral, §6.2).
  unsigned MaxEpisodes = 10;
};

/// Everything one run produced.
struct SingleRunResult {
  WorkloadResult Result;
  /// DieFast signalled at least one corruption.
  bool ErrorSignalled = false;
  /// Allocation clock at the first signal.
  uint64_t FirstSignalTime = 0;
  /// Image captured at the malloc breakpoint, when one was requested.
  std::optional<HeapImage> BreakpointImage;
  /// Image captured when the run ended (success, crash, or abort).
  HeapImage FinalImage;
  /// Allocation clock at the end of the run.
  uint64_t EndTime = 0;
  /// Allocator + correction statistics for overhead reporting.
  AllocatorStats Alloc;
  CorrectionStats Correction;
  /// The injected fault fired during this run.
  bool FaultFired = false;

  bool failed() const {
    return Result.Status != RunStatusKind::Success;
  }
};

/// Executes \p Work once over the full heap stack.
///
/// \param InputSeed the program input (identical inputs replay
///        identically).
/// \param HeapSeed the heap randomization seed (fresh per run).
/// \param Patches runtime patches the correcting allocator applies.
/// \param BreakpointAt when set, capture an image as the allocation clock
///        reaches this value (the malloc breakpoint) and ignore DieFast
///        signals, per the §3.4 replay protocol.
SingleRunResult runWorkloadOnce(Workload &Work, uint64_t InputSeed,
                                uint64_t HeapSeed,
                                const ExterminatorConfig &Config,
                                const PatchSet &Patches,
                                std::optional<uint64_t> BreakpointAt =
                                    std::nullopt);

} // namespace exterminator

#endif // EXTERMINATOR_RUNTIME_EXTERMINATOR_H
