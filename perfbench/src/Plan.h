//===- perfbench/src/Plan.h - Seeded benchmark inputs ----------*- C++ -*-===//
//
// Part of the Exterminator reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a benchmark run feeds the library, generated from one seed:
/// deploy's program inputs, heap seeds and patch set, the triage bug
/// list, and the community bug-session plan.  The library sees only
/// these generated inputs, never the seed.
///
/// Bug lists are stratified: the seed draws every bug's parameters, but
/// the count of bugs of each kind is fixed by the list length, so two
/// seeds differ in which bugs they draw and not in their mix.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PLAN_H
#define PERFBENCH_PLAN_H

#include "patch/RuntimePatch.h"
#include "runtime/Exterminator.h"
#include "workload/EspressoWorkload.h"
#include "workload/SyntheticSuite.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The espresso inputs the bugs live in: the default live set and one
/// about ten times larger.
enum class LiveSet : uint8_t { Default, Large };
exterminator::EspressoParams espressoParams(LiveSet Live);
const char *liveSetName(LiveSet Live);

/// One Exterminator run of a deploy program, paired with a glibc run of
/// the same input.
struct DeployPair {
  unsigned Program = 0;
  uint64_t InputSeed = 0;
  uint64_t HeapSeed = 0;
  /// Which side of the pair runs first (alternates, so drift and warm
  /// caches favour neither allocator).
  bool BaselineFirst = false;
};

struct DeployPlan {
  /// The five allocation-intensive Figure 7 programs, then 164.gzip and
  /// 256.bzip2.
  std::vector<exterminator::SyntheticProfile> Programs;
  /// Round-robin over programs, so every program sees the same drift.
  std::vector<DeployPair> Pairs;
  /// Pads and deferrals on seeded random sites, which the programs' own
  /// sites miss (runDeploy counts any hit): the lookups run on every
  /// call, the patches never fire.
  exterminator::PatchSet Patches;
};

/// One injected espresso bug for iterative triage.
struct TriageBug {
  unsigned Index = 0;
  LiveSet Live = LiveSet::Default;
  exterminator::FaultPlan Fault;
  uint64_t MasterSeed = 0;
  uint64_t InputSeed = 0;

  /// Default ExterminatorConfig with this bug's fault and master seed.
  exterminator::ExterminatorConfig config() const;
  /// "overflow 20B live=default trigger=420 pattern=7013 master=0x..."
  std::string describe() const;
};

/// One community bug session: runs of one buggy program by deployed
/// clients until the exchange's patches correct it.
struct CommunitySession {
  unsigned Index = 0;
  /// Outer call frame of this session's program, so each bug lives in
  /// its own module and one bug's patch cannot fix the next.
  uint32_t ModuleFrame = 0;
  exterminator::FaultPlan Fault;
  uint64_t MasterSeed = 0;
  uint64_t InputSeed = 0;

  /// Cumulative-mode configuration: canary fill probability 1/2 (§5.2).
  exterminator::ExterminatorConfig config() const;
};

/// Triage bugs per cycle through the strata (each stratum once), and
/// community sessions per cycle through the §7.2 premature frees: lists
/// of whole cycles hold the same mix for every seed.
inline constexpr unsigned TriageCycleBugs = 32;
inline constexpr unsigned CommunityCycleSessions = 10;

/// How much work each use does in one run.
struct PlanSizes {
  unsigned DeployPairsPerProgram = 0;
  unsigned TriageBugs = 0;
  unsigned CommunitySessions = 0;
};

struct Plan {
  DeployPlan Deploy;
  std::vector<TriageBug> Triage;
  std::vector<CommunitySession> Community;
  /// Warm-up inputs (set-up only, never timed).
  std::vector<DeployPair> WarmupPairs;
  std::vector<CommunitySession> WarmupSessions;
};

/// Client runs a community session may take before it counts as not
/// corrected (the §7.2 cumulative experiment's budget).
inline constexpr unsigned CommunityRunBudget = 120;
/// Clean patched runs that end a session (CumulativeDriver's rule).
inline constexpr unsigned CommunityVerifyRuns = 3;

Plan makePlan(uint64_t Seed, const PlanSizes &Sizes);

/// The §7.2 lists: the 30 overflows of exp_injected_overflow and the 10
/// premature frees of exp_injected_dangling, with their parameters.
std::vector<TriageBug> section72Bugs();

} // namespace perfbench

#endif // PERFBENCH_PLAN_H
