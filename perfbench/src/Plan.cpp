//===- perfbench/src/Plan.cpp - Seeded benchmark inputs ---------------------===//

#include "Plan.h"

#include "support/RandomGenerator.h"

#include <cstdio>

using namespace exterminator;
using namespace perfbench;

EspressoParams perfbench::espressoParams(LiveSet Live) {
  EspressoParams Params;
  if (Live == LiveSet::Large) {
    // Ten times the live cap, and enough rounds to fill it and churn.
    Params.MaxLive = 960;
    Params.Rounds = 120;
  }
  return Params;
}

const char *perfbench::liveSetName(LiveSet Live) {
  return Live == LiveSet::Large ? "large" : "default";
}

ExterminatorConfig TriageBug::config() const {
  ExterminatorConfig Config;
  Config.Fault = Fault;
  Config.MasterSeed = MasterSeed;
  return Config;
}

std::string TriageBug::describe() const {
  char Buf[200];
  if (Fault.Kind == FaultKind::BufferOverflow)
    std::snprintf(Buf, sizeof(Buf),
                  "overflow %uB live=%s trigger=%llu delay=%llu pattern=%llu "
                  "master=0x%llx input=%llu",
                  Fault.OverflowBytes, liveSetName(Live),
                  static_cast<unsigned long long>(Fault.TriggerAllocation),
                  static_cast<unsigned long long>(Fault.OverflowDelay),
                  static_cast<unsigned long long>(Fault.PatternSeed),
                  static_cast<unsigned long long>(MasterSeed),
                  static_cast<unsigned long long>(InputSeed));
  else
    std::snprintf(Buf, sizeof(Buf),
                  "premature-free live=%s trigger=%llu pattern=%llu "
                  "master=0x%llx input=%llu",
                  liveSetName(Live),
                  static_cast<unsigned long long>(Fault.TriggerAllocation),
                  static_cast<unsigned long long>(Fault.PatternSeed),
                  static_cast<unsigned long long>(MasterSeed),
                  static_cast<unsigned long long>(InputSeed));
  return Buf;
}

ExterminatorConfig CommunitySession::config() const {
  ExterminatorConfig Config;
  Config.CanaryFillProbability = 0.5;
  Config.Fault = Fault;
  Config.MasterSeed = MasterSeed;
  return Config;
}

namespace {

/// Triage strata, cycled by bug index.  Per cycle: eight overflows of
/// each size and three premature frees over the default live set, one
/// overflow of each size and two premature frees over the large one.
/// Overflows far outnumber frees so that the fixed bugs, whose times give
/// fix_x, are mostly overflows: the few frees iterative mode fixes then
/// sit above the p90 rather than on it, and the p90 has enough samples
/// to hold still from seed to seed.
struct Stratum {
  LiveSet Live;
  FaultKind Kind;
  uint32_t OverflowBytes;
};
constexpr Stratum Overflow4 = {LiveSet::Default, FaultKind::BufferOverflow, 4};
constexpr Stratum Overflow20 = {LiveSet::Default, FaultKind::BufferOverflow,
                                20};
constexpr Stratum Overflow36 = {LiveSet::Default, FaultKind::BufferOverflow,
                                36};
constexpr Stratum Free = {LiveSet::Default, FaultKind::PrematureFree, 0};
constexpr Stratum LargeFree = {LiveSet::Large, FaultKind::PrematureFree, 0};
constexpr Stratum TriageStrata[] = {
    Overflow4, Overflow20, Overflow36, Free,      Overflow4, Overflow20,
    Overflow36, Overflow4, Overflow20, Overflow36,
    {LiveSet::Large, FaultKind::BufferOverflow, 4},
    {LiveSet::Large, FaultKind::BufferOverflow, 20},
    {LiveSet::Large, FaultKind::BufferOverflow, 36},
    LargeFree, Overflow4, Overflow20, Overflow36, Free, Overflow4, Overflow20,
    Overflow36, Overflow4, Overflow20, Overflow36, LargeFree, Overflow4,
    Overflow20, Overflow36, Free, Overflow4, Overflow20, Overflow36,
};
static_assert(sizeof(TriageStrata) / sizeof(TriageStrata[0]) ==
              TriageCycleBugs);

/// A trigger allocation in [Lo, Hi].
uint64_t pick(RandomGenerator &Rng, uint64_t Lo, uint64_t Hi) {
  return Lo + Rng.nextBelow(Hi - Lo + 1);
}

TriageBug makeTriageBug(RandomGenerator &Rng, unsigned Index) {
  const Stratum &S = TriageStrata[Index % TriageCycleBugs];
  TriageBug Bug;
  Bug.Index = Index;
  Bug.Live = S.Live;
  Bug.Fault.Kind = S.Kind;
  // Mature-heap trigger points: §7.2's range for the default live set,
  // past the point where the large live set has filled.
  Bug.Fault.TriggerAllocation =
      S.Live == LiveSet::Default ? pick(Rng, 250, 450) : pick(Rng, 1000, 1300);
  if (S.Kind == FaultKind::BufferOverflow) {
    Bug.Fault.OverflowBytes = S.OverflowBytes;
    Bug.Fault.OverflowDelay = pick(Rng, 5, 15);
    Bug.Fault.PatternSeed = pick(Rng, 7000, 7999);
  } else {
    Bug.Fault.PatternSeed = pick(Rng, 100, 1099);
  }
  Bug.MasterSeed = Rng.next32();
  Bug.InputSeed = pick(Rng, 1, 1000);
  return Bug;
}

CommunitySession makeSession(RandomGenerator &Rng, unsigned Index,
                             uint32_t ModuleFrame, const FaultPlan &Fault) {
  CommunitySession Session;
  Session.Index = Index;
  Session.ModuleFrame = ModuleFrame;
  Session.Fault = Fault;
  Session.MasterSeed = Rng.next32();
  Session.InputSeed = Fault.Kind == FaultKind::None ? pick(Rng, 1, 1000) : 5;
  return Session;
}

} // namespace

Plan perfbench::makePlan(uint64_t Seed, const PlanSizes &Sizes) {
  Plan Out;
  // One stream per use, so one use's size never shifts another's inputs.
  RandomGenerator DeployRng(Seed ^ 0xde91011a5eed0001ULL);
  RandomGenerator TriageRng(Seed ^ 0x7a1a6e5eed000002ULL);
  RandomGenerator CommunityRng(Seed ^ 0xc0331a5eed000003ULL);

  // --- deploy ---------------------------------------------------------
  for (const SyntheticProfile &Profile : figure7Profiles()) {
    const std::string Name = Profile.Name;
    if (Profile.AllocationIntensive || Name == "164.gzip" ||
        Name == "256.bzip2")
      Out.Deploy.Programs.push_back(Profile);
  }
  const unsigned NumPrograms =
      static_cast<unsigned>(Out.Deploy.Programs.size());
  // Random sites: a program's two sites are hit with odds near 1e-8, and
  // runDeploy counts any hit (the PatchHits check).
  for (unsigned I = 0; I < 32; ++I)
    Out.Deploy.Patches.addPad(DeployRng.next32(),
                              static_cast<uint32_t>(pick(DeployRng, 8, 64)));
  for (unsigned I = 0; I < 16; ++I)
    Out.Deploy.Patches.addDeferral(DeployRng.next32(), DeployRng.next32(),
                                   pick(DeployRng, 16, 256));
  for (unsigned P = 0; P < NumPrograms; ++P)
    Out.WarmupPairs.push_back(
        {P, DeployRng.next(), DeployRng.next(), P % 2 == 0});
  for (unsigned Round = 0; Round < Sizes.DeployPairsPerProgram; ++Round)
    for (unsigned P = 0; P < NumPrograms; ++P)
      Out.Deploy.Pairs.push_back(
          {P, DeployRng.next(), DeployRng.next(), (Round + P) % 2 == 0});

  // --- triage ---------------------------------------------------------
  for (unsigned I = 0; I < Sizes.TriageBugs; ++I)
    Out.Triage.push_back(makeTriageBug(TriageRng, I));

  // --- community ------------------------------------------------------
  // Warm-up sessions run a clean program; bug sessions take the §7.2
  // cumulative-mode premature frees in list order, each with seeded heap
  // seeds and its own module.  A fixed order gives both clients the same
  // share of the two bugs cumulative mode cannot correct, for any seed.
  for (unsigned I = 0; I < 2; ++I)
    Out.WarmupSessions.push_back(
        makeSession(CommunityRng, I, 0x6f00 + I, FaultPlan()));
  std::vector<FaultPlan> Bugs;
  for (const TriageBug &Bug : section72Bugs())
    if (Bug.Fault.Kind == FaultKind::PrematureFree)
      Bugs.push_back(Bug.Fault);
  for (unsigned I = 0; I < Sizes.CommunitySessions; ++I)
    Out.Community.push_back(
        makeSession(CommunityRng, I, 0x7000 + I, Bugs[I % Bugs.size()]));
  return Out;
}

std::vector<TriageBug> perfbench::section72Bugs() {
  std::vector<TriageBug> Bugs;
  // bench/exp_injected_overflow.cpp's list.
  for (uint32_t Size : {4u, 20u, 36u})
    for (unsigned Fault = 0; Fault < 10; ++Fault) {
      TriageBug Bug;
      Bug.Index = static_cast<unsigned>(Bugs.size());
      Bug.Fault.Kind = FaultKind::BufferOverflow;
      Bug.Fault.TriggerAllocation = 300 + Fault * 40;
      Bug.Fault.OverflowBytes = Size;
      Bug.Fault.OverflowDelay = 5 + Fault;
      Bug.Fault.PatternSeed = 7000 + Fault;
      Bug.MasterSeed = 0xbeef00 + Fault * 131 + Size;
      Bug.InputSeed = 5;
      Bugs.push_back(Bug);
    }
  // bench/exp_injected_dangling.cpp's iterative-mode list.
  for (unsigned Fault = 0; Fault < 10; ++Fault) {
    TriageBug Bug;
    Bug.Index = static_cast<unsigned>(Bugs.size());
    Bug.Fault.Kind = FaultKind::PrematureFree;
    Bug.Fault.TriggerAllocation = 250 + Fault * 35;
    Bug.Fault.PatternSeed = 100 + Fault;
    Bug.MasterSeed = 0xdead00 + Fault * 977;
    Bug.InputSeed = 5;
    Bugs.push_back(Bug);
  }
  return Bugs;
}
