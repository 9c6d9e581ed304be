//===- perfbench/src/Triage.h - Iterative triage from public calls -*- C++ -*-===//
//
// Part of the Exterminator reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3.4 iterative mode for one bug, composed from the library's public
/// calls in the order runtime/IterativeDriver.cpp makes them — discovery
/// runWorkloadOnce, replays at the malloc breakpoint under fresh heap
/// seeds, DiagnosisPipeline::isolateImages once MinImages exist (adding
/// images up to MaxImages), absorbIsolation, and a patched verification
/// run — so that each call can be timed on its own.  The test in
/// test/triage_loop_test.cpp holds it to IterativeDriver::run's results.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRIAGE_H
#define PERFBENCH_TRIAGE_H

#include "runtime/Exterminator.h"

#include <cstdint>
#include <vector>

namespace perfbench {

struct TriageOutcome {
  /// A patched verification run ended clean after at least one episode.
  bool Corrected = false;
  /// No error manifested in the first discovery attempts.
  bool ErrorFree = false;
  /// Images used by each episode (IterativeEpisode::ImagesUsed).
  std::vector<unsigned> ImagesPerEpisode;
  /// Images in the first evidence set that yielded patches; 0 if none.
  unsigned ImagesToIsolate = 0;
  /// runWorkloadOnce calls: discovery, replays and verification.
  unsigned Runs = 0;
  /// isolateImages calls, and those that yielded patches.
  unsigned EvidenceSets = 0;
  unsigned UsefulSets = 0;
  /// Wall time from the first discovery run to the end of the last
  /// verification run.
  uint64_t FixNs = 0;
  uint64_t MaxIsolateNs = 0;
  /// Heap images submitted as evidence and their summed slot counts.
  uint64_t ImagesSubmitted = 0;
  uint64_t ImageSlots = 0;
  /// Pipeline view-cache counters at the end of the bug.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Allocator counters summed over every run.
  exterminator::AllocatorStats Alloc;
};

/// Adds \p Run's counters to \p Sum.
void addAllocStats(exterminator::AllocatorStats &Sum,
                   const exterminator::AllocatorStats &Run);

/// Runs iterative mode for one workload and input, exactly as
/// IterativeDriver::run does, recording spans when the thread traces.
TriageOutcome triage(exterminator::Workload &Work, uint64_t InputSeed,
                     const exterminator::ExterminatorConfig &Config);

} // namespace perfbench

#endif // PERFBENCH_TRIAGE_H
