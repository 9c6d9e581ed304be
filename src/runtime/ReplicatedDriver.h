//===- runtime/ReplicatedDriver.h - Replicated mode ------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replicated mode (§3.4, Figure 5): several replicas with independently
/// randomized DieFast heaps process the same broadcast input; a voter
/// compares their outputs.  A DieFast signal, a crash, or divergent
/// output triggers a heap-image dump from every replica at the same
/// allocation time, error isolation runs over those images through the
/// DiagnosisPipeline, and the resulting patches are reloaded into the
/// correcting allocators so subsequent allocations are patched
/// on-the-fly.
///
/// As in the paper, replicas run *concurrently*: each round runs the N
/// replicas on N threads through parallelFor (each replica owns its
/// heap, its call context, and its fault injector, so they share
/// nothing), and the join barrier doubles as the lockstep dump barrier —
/// isolation starts only after every replica has produced its image at
/// the common allocation time.  Replicas are deterministic in (input,
/// heap seed), so the dump at the common failure time is reproduced by an
/// exact replay instead of pausing live replicas at that time, as the
/// paper does.
///
/// The Sequential toggle runs the identical round protocol on the
/// calling thread alone.  Because results are committed per replica
/// index either way, a concurrent session is bit-identical to a
/// sequential one with the same seeds — which is what makes concurrency
/// testable.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_RUNTIME_REPLICATEDDRIVER_H
#define EXTERMINATOR_RUNTIME_REPLICATEDDRIVER_H

#include "diagnose/DiagnosisPipeline.h"
#include "runtime/Exterminator.h"
#include "runtime/Voter.h"

#include <vector>

namespace exterminator {

/// One round of replicated execution.
struct ReplicatedRound {
  VoteResult Vote;
  /// Any replica signalled, crashed, aborted, or diverged.
  bool ErrorDetected = false;
  /// Allocation time of the earliest failure (the dump time).
  uint64_t DumpTime = 0;
  IsolationResult Result;
};

/// Outcome of a replicated session.
struct ReplicatedOutcome {
  /// The final round's replicas agreed unanimously under the patches.
  bool Corrected = false;
  /// No round ever detected an error.
  bool ErrorFree = false;
  std::vector<ReplicatedRound> Rounds;
  PatchSet Patches;
  /// The voted output of the final round.
  std::vector<uint8_t> Output;
};

/// Drives N replicas with voting and on-the-fly patch reload.
class ReplicatedDriver {
public:
  /// \param Sequential run replicas one after another on the calling
  ///        thread instead of concurrently (determinism baseline).
  ReplicatedDriver(Workload &Work, const ExterminatorConfig &Config,
                   unsigned NumReplicas = 3, bool Sequential = false)
      : Work(Work), Config(Config), NumReplicas(NumReplicas),
        Sequential(Sequential) {}

  ReplicatedOutcome run(uint64_t InputSeed,
                        const PatchSet &InitialPatches = PatchSet());

private:
  Workload &Work;
  ExterminatorConfig Config;
  unsigned NumReplicas;
  bool Sequential;
};

} // namespace exterminator

#endif // EXTERMINATOR_RUNTIME_REPLICATEDDRIVER_H
