//===- perfbench/src/main.cpp - End-to-end benchmark driver -----------------===//
//
// Part of the Exterminator reproduction's end-to-end benchmark.
//
//   perfbench --workload deploy|triage|community --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Every run sets up its inputs, one exchange (patch server and state
// directory) per community round and a triage worker process several
// times (setup_s is the median), then drives the three uses at the same
// size whatever the workload, in parts taken in turn: patched deploy,
// iterative triage (in the worker), community exchange.  Every run thus
// reports every end-to-end metric; the workload only picks the use that
// attempted, failed and fail_ratio count.  With --trace 1 the run is
// repeated with spans recorded around every library call, and the
// per-layer metrics come from that traced pass.  With --triage-worker 1
// the binary is a triage worker (TriageWorker in Uses.h).
//
// Report lines go to stdout; the last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A broken output invariant prints correct=false and exits 1.
//
//===----------------------------------------------------------------------===//

#include "Plan.h"
#include "Trace.h"
#include "Uses.h"

#include "codec/BlockCodec.h"
#include "patch/PatchIO.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <sys/vfs.h>
#include <thread>
#include <unistd.h>

using namespace exterminator;
using namespace perfbench;

namespace {

enum class Use { Deploy, Triage, Community };

struct Options {
  Use Primary = Use::Deploy;
  std::string WorkloadName;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  bool Trace = false;
  std::string OutDir = ".bench_build";
  /// Serve triage requests for a parent run (TriageWorker in Uses.h).
  bool TriageWorker = false;
  /// The command line, which a triage worker is started with.
  std::vector<std::string> Arguments;
};

bool parseOptions(int Argc, char **Argv, Options &Out) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      HaveWorkload = true;
      Out.WorkloadName = Value;
      if (Value == "deploy")
        Out.Primary = Use::Deploy;
      else if (Value == "triage")
        Out.Primary = Use::Triage;
      else if (Value == "community")
        Out.Primary = Use::Community;
      else
        return false;
    } else if (Key == "--seed") {
      HaveSeed = true;
      Out.Seed = std::strtoull(Value.c_str(), &End, 0);
      if (*End)
        return false;
    } else if (Key == "--seconds") {
      HaveSeconds = true;
      const unsigned long Seconds = std::strtoul(Value.c_str(), &End, 0);
      if (*End || Seconds < 1 || Seconds > 600)
        return false;
      Out.Seconds = static_cast<unsigned>(Seconds);
    } else if (Key == "--trace") {
      HaveTrace = true;
      if (Value != "0" && Value != "1")
        return false;
      Out.Trace = Value == "1";
    } else if (Key == "--out-dir") {
      Out.OutDir = Value;
    } else if (Key == "--triage-worker") {
      if (Value != "1")
        return false;
      Out.TriageWorker = true;
    } else {
      return false;
    }
  }
  Out.Arguments.assign(Argv, Argv + Argc);
  return Argc % 2 == 1 && HaveWorkload && HaveSeed && HaveSeconds &&
         HaveTrace;
}

//===----------------------------------------------------------------------===//
// Sizing: equal work for equal arguments, never scaled by measured speed.
//===----------------------------------------------------------------------===//

/// Work per second of --seconds for each use, in whole cycles: a deploy
/// round runs one pair per program, a triage cycle 32 bugs (Plan.cpp), a
/// community cycle one session per §7.2 premature free.  Every workload
/// runs all three uses at these sizes, so that every run reports every
/// end-to-end metric from the same amount of work.  At --seconds 20 a run
/// takes 17-44 s on a 4-core x86-64 KVM guest, set-up included, depending
/// on how much CPU time other guests steal and on how many triage bugs
/// overrun the deadline.
constexpr double DeployRoundsPerSecond = 0.75;
constexpr double TriageCyclesPerSecond = 0.9;
constexpr double CommunityCyclesPerSecond = 0.3;
/// Each use runs in this many parts, the three uses in turn.  Each
/// community part is a round on an exchange of its own, so the rounds
/// do equal work from equal state.  At --seconds 20 a deploy part is
/// 17-18 pairs, a triage part 96 bugs and a community round one cycle.
constexpr unsigned Parts = 6;
/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupRepetitions = 5;
/// Community client threads (each holds one connection at a time).
constexpr unsigned CommunityClients = 2;
/// Warm-up: client runs per warm-up session.
constexpr unsigned WarmupClientRuns = 4;

unsigned cycles(double PerSecond, unsigned Seconds) {
  return std::max(1u, static_cast<unsigned>(std::lround(PerSecond * Seconds)));
}

PlanSizes sizesFor(const Options &Opts) {
  PlanSizes Sizes;
  Sizes.DeployPairsPerProgram = cycles(DeployRoundsPerSecond, Opts.Seconds);
  Sizes.TriageBugs =
      TriageCycleBugs * cycles(TriageCyclesPerSecond, Opts.Seconds);
  Sizes.CommunitySessions =
      CommunityCycleSessions * cycles(CommunityCyclesPerSecond, Opts.Seconds);
  return Sizes;
}

/// Host CPU time from /proc/stat: stolen by other guests, and in total.
struct CpuTicks {
  uint64_t Steal = 0;
  uint64_t Total = 0;
};

CpuTicks cpuTicks() {
  CpuTicks Out;
  std::FILE *Stat = std::fopen("/proc/stat", "r");
  if (!Stat)
    return Out;
  unsigned long long F[8] = {};
  if (std::fscanf(Stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &F[0],
                  &F[1], &F[2], &F[3], &F[4], &F[5], &F[6], &F[7]) == 8) {
    Out.Steal = F[7];
    for (unsigned long long Field : F)
      Out.Total += Field;
  }
  std::fclose(Stat);
  return Out;
}

//===----------------------------------------------------------------------===//
// One pass: set-up repetitions, then the three uses.
//===----------------------------------------------------------------------===//

struct Setup {
  Plan Inputs;
  /// One exchange per community round, each warmed up alike.
  std::vector<std::unique_ptr<Exchange>> Exchanges;
  std::vector<uint64_t> WarmupAcknowledged;
  std::unique_ptr<TriageWorker> Worker;
  std::string Error;
};

std::unique_ptr<Setup> setUp(const Options &Opts, const PlanSizes &Sizes,
                             MetricsRegistry *Registry, unsigned Rep) {
  auto S = std::make_unique<Setup>();
  S->Inputs = makePlan(Opts.Seed, Sizes);
  for (unsigned Round = 0; Round < Parts; ++Round) {
    const std::string Tag = std::to_string(getpid()) + "-" +
                            std::to_string(Rep) + "-" + std::to_string(Round);
    // The registry follows the first round's server and store only.
    auto Ex = std::make_unique<Exchange>(Opts.OutDir + "/state-" + Tag,
                                         Opts.OutDir + "/x-" + Tag + ".sock",
                                         Round == 0 ? Registry : nullptr);
    if (!Ex->ok()) {
      S->Error = Ex->error();
      return S;
    }
    // Warm-up of a fixed count: a few client runs of a clean program.
    S->WarmupAcknowledged.push_back(
        warmUpCommunity(*Ex, S->Inputs.WarmupSessions, WarmupClientRuns));
    S->Exchanges.push_back(std::move(Ex));
  }
  // And every deploy program once under each allocator.
  DeployResult Ignored;
  runDeploy(S->Inputs.Deploy, S->Inputs.WarmupPairs, Ignored);
  std::vector<std::string> WorkerArguments = Opts.Arguments;
  WorkerArguments.insert(WorkerArguments.end(), {"--triage-worker", "1"});
  S->Worker = std::make_unique<TriageWorker>(std::move(WorkerArguments));
  if (!S->Worker->ok())
    S->Error = S->Worker->error();
  return S;
}

/// One community round and the exchange it ran on.
struct RoundResult {
  CommunityResult Community;
  uint64_t WarmupAcknowledged = 0;
  PatchServerStats Server;
  PatchSet FinalPatches;
  bool Durable = false;
};

struct PassResult {
  bool SetupOk = true;
  std::string SetupError;
  /// Set when the triage worker failed (not when a bug overran).
  std::string TriageError;
  std::vector<double> SetupSeconds;
  Plan Inputs;
  DeployResult Deploy;
  std::vector<TriageRecord> Triage;
  std::vector<RoundResult> Rounds;
  /// Every round's community counts and samples together.
  CommunityResult Community;
  /// Codec input and output bytes over the community use.
  uint64_t CodecInBytes = 0, CodecOutBytes = 0;
  /// The attached registry, read while the first round's server is
  /// still alive.
  MetricsSnapshot Metrics;
  /// Share of the host's CPU time stolen by other guests during the uses.
  double StealShare = 0;
  /// Deploy pairs of the first part, which run before any other use.
  size_t FirstPartPairs = 0;
  /// Wall time of each use, and of the three together.
  double DeploySeconds = 0, TriageSeconds = 0, CommunitySeconds = 0;
  double UseSeconds = 0;
};

/// Part \p Index of \p Parts near-equal consecutive parts of \p All.
template <typename T>
std::span<T> part(std::vector<T> &All, unsigned Index) {
  const size_t From = All.size() * Index / Parts;
  const size_t To = All.size() * (Index + 1) / Parts;
  return std::span<T>(All.data() + From, To - From);
}

/// Runs one pass.  \p Skip lists bugs recorded as timed out without
/// running them: the traced pass skips those the untraced one stopped.
PassResult runPass(const Options &Opts, const PlanSizes &Sizes,
                   Tracer *Trace, MetricsRegistry *Registry,
                   const std::vector<unsigned> &Skip) {
  PassResult Out;
  std::unique_ptr<Setup> S;
  for (unsigned Rep = 0; Rep < SetupRepetitions; ++Rep) {
    S.reset();
    const uint64_t Start = nowNs();
    S = setUp(Opts, Sizes, Rep + 1 == SetupRepetitions ? Registry : nullptr,
              Rep);
    Out.SetupSeconds.push_back(double(nowNs() - Start) / 1e9);
    if (!S->Error.empty()) {
      Out.SetupOk = false;
      Out.SetupError = S->Error;
      return Out;
    }
  }

  SpanLog *MainLog = Trace ? &Trace->newLog() : nullptr;
  const auto seconds = [](uint64_t From, uint64_t To) {
    return double(To - From) / 1e9;
  };
  // The uses run in parts, in turn, so that each of their figures samples
  // the whole run: on a shared host the CPU time other guests steal comes
  // in bursts of a few seconds, and the correcting stack's speed relative
  // to glibc drifts by up to 10% from one few-second stretch to the next.
  const auto runDeployPart = [&](unsigned Index) {
    releaseFreedMemory();
    const uint64_t From = nowNs();
    ThreadLogScope Logging(MainLog);
    runDeploy(S->Inputs.Deploy, part(S->Inputs.Deploy.Pairs, Index),
              Out.Deploy);
    Out.DeploySeconds += seconds(From, nowNs());
    if (Index == 0)
      Out.FirstPartPairs = Out.Deploy.PeakRssMb.size();
  };
  Out.Triage.resize(S->Inputs.Triage.size());
  const auto runTriagePart = [&](unsigned Index) {
    const uint64_t From = nowNs();
    std::span<TriageRecord> Records = part(Out.Triage, Index);
    std::span<const TriageBug> Bugs = part(S->Inputs.Triage, Index);
    for (size_t I = 0; I < Bugs.size() && Out.TriageError.empty(); ++I) {
      if (std::find(Skip.begin(), Skip.end(), Bugs[I].Index) != Skip.end())
        Records[I].TimedOut = true;
      else if (!S->Worker->triage(Bugs[I].Index, TriageBugDeadline, Trace,
                                  Records[I]))
        Out.TriageError = S->Worker->error();
    }
    Out.TriageSeconds += seconds(From, nowNs());
  };
  const auto runCommunityRound = [&](unsigned Index) {
    releaseFreedMemory();
    const uint64_t From = nowNs();
    const CodecStatsSnapshot Before = codecStats();
    RoundResult Round;
    Round.Community =
        runCommunity(*S->Exchanges[Index], part(S->Inputs.Community, Index),
                     CommunityClients, Trace);
    const CodecStatsSnapshot After = codecStats();
    Out.CodecInBytes += After.CompressInBytes - Before.CompressInBytes;
    Out.CodecOutBytes += After.CompressOutBytes - Before.CompressOutBytes;
    Out.CommunitySeconds += seconds(From, nowNs());
    addCommunity(Out.Community, Round.Community);
    // The round's exchange is done: read it, check it, and free it, so
    // that what it holds does not weigh on the uses that follow.
    Exchange &Ex = *S->Exchanges[Index];
    Round.WarmupAcknowledged = S->WarmupAcknowledged[Index];
    Round.Server = Ex.server().stats();
    Round.FinalPatches = Ex.server().snapshot().Patches;
    if (Index == 0 && Registry)
      Out.Metrics = Registry->snapshot();
    Round.Durable = Ex.stopAndVerifyDurable();
    S->Exchanges[Index].reset();
    Out.Rounds.push_back(std::move(Round));
  };

  const CpuTicks TicksBefore = cpuTicks();
  const uint64_t Start = nowNs();
  for (unsigned Index = 0; Index < Parts; ++Index) {
    runDeployPart(Index);
    runTriagePart(Index);
    runCommunityRound(Index);
  }
  Out.UseSeconds = seconds(Start, nowNs());
  const CpuTicks TicksAfter = cpuTicks();
  if (TicksAfter.Total > TicksBefore.Total)
    Out.StealShare = double(TicksAfter.Steal - TicksBefore.Steal) /
                     double(TicksAfter.Total - TicksBefore.Total);
  Out.Inputs = std::move(S->Inputs);
  return Out;
}

//===----------------------------------------------------------------------===//
// Checks and the run report.
//===----------------------------------------------------------------------===//

struct Checks {
  std::vector<std::string> Broken;
  void require(bool Holds, const std::string &What) {
    if (!Holds)
      Broken.push_back(What);
  }
};

void checkPass(const PassResult &P, Checks &C) {
  C.require(P.TriageError.empty(), "triage: " + P.TriageError);
  C.require(P.Deploy.PatchHits == 0,
            "deploy: the carried patch set touched a program allocation");
  for (size_t I = 0; I < P.Rounds.size(); ++I) {
    const RoundResult &R = P.Rounds[I];
    const std::string Round = "community round " + std::to_string(I) + ": ";
    // Every acknowledged submission is either ingested or dropped as a
    // duplicate; dropped ones are counted as failed client runs.
    const uint64_t Acknowledged =
        R.Community.Acknowledged + R.WarmupAcknowledged;
    C.require(Acknowledged ==
                  R.Server.SummariesIngested + R.Server.DuplicatesSuppressed,
              Round + "acknowledged submissions (" +
                  std::to_string(Acknowledged) +
                  ") != ingested + duplicates suppressed (" +
                  std::to_string(R.Server.SummariesIngested) + " + " +
                  std::to_string(R.Server.DuplicatesSuppressed) + ")");
    // A snapshot absorbs records still queued for the journal, so appends
    // may trail ingested summaries; durability is checked by restoring.
    C.require(R.Server.JournalAppends <= R.Server.SummariesIngested,
              Round + "more journal appends than ingested summaries");
    C.require(R.Durable, Round + "the state directory, restored, does not "
                                 "reproduce the server's state");
    C.require(R.Server.FramesRejected == 0, Round + "server rejected frames");
    C.require(R.Community.FinalFetchesMatch,
              Round + "a client's last fetch differs from the server's "
                      "final patch set");
  }
}

/// Every round's server counts together.
PatchServerStats serverTotals(const PassResult &P) {
  PatchServerStats Sum;
  for (const RoundResult &R : P.Rounds) {
    Sum.SummariesIngested += R.Server.SummariesIngested;
    Sum.DuplicatesSuppressed += R.Server.DuplicatesSuppressed;
    Sum.JournalAppends += R.Server.JournalAppends;
    Sum.SnapshotsWritten += R.Server.SnapshotsWritten;
    Sum.FramesRejected += R.Server.FramesRejected;
  }
  return Sum;
}

/// FNV-1a over per-bug outcomes: equal digests mean identical triage.
uint64_t outcomeDigest(const std::vector<TriageRecord> &Records) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto mix = [&](uint64_t Value) {
    for (int B = 0; B < 8; ++B) {
      Hash ^= (Value >> (8 * B)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  };
  for (const TriageRecord &R : Records) {
    mix(R.Outcome.Corrected | (uint64_t(R.Outcome.ErrorFree) << 1) |
        (uint64_t(R.TimedOut) << 2));
    mix(R.Outcome.ImagesPerEpisode.size());
    for (unsigned Images : R.Outcome.ImagesPerEpisode)
      mix(Images);
  }
  return Hash;
}

const char *fsName(const std::string &Path) {
  struct statfs Info;
  if (statfs(Path.c_str(), &Info) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(Info.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x794c7630:
    return "overlayfs";
  default:
    return "other";
  }
}

void report(const Options &Opts, const PassResult &P) {
  std::printf("host: %u hardware threads; state dir on %s; %.1f%% of CPU "
              "time stolen by other guests during the uses\n",
              std::thread::hardware_concurrency(), fsName(Opts.OutDir),
              P.StealShare * 100);
  std::printf("setup: %zu repetitions, median %.4f s\n", P.SetupSeconds.size(),
              median(P.SetupSeconds));

  const DeployResult &D = P.Deploy;
  std::printf("deploy: %.2f s, %u pairs, %u failed, overhead %.3fx (",
              P.DeploySeconds, D.Attempted, D.Failed, D.overheadX());
  for (size_t I = 0; I < D.Ratios.size(); ++I)
    std::printf("%s%s %.2fx", I ? ", " : "",
                P.Inputs.Deploy.Programs[I].Name, median(D.Ratios[I]));
  std::printf(")\n");

  unsigned Fixed = 0, ErrorFree = 0, TimedOut = 0, Unfixed[2] = {0, 0};
  size_t Slowest = 0, SlowestIsolate = 0;
  for (size_t I = 0; I < P.Triage.size(); ++I) {
    if (P.Triage[I].TimedOut) {
      std::printf("triage: timed out (over %lld s; not fixed): %s\n",
                  static_cast<long long>(TriageBugDeadline.count()),
                  P.Inputs.Triage[I].describe().c_str());
      ++TimedOut;
      continue;
    }
    const TriageOutcome &O = P.Triage[I].Outcome;
    const bool Dangling =
        P.Inputs.Triage[I].Fault.Kind == FaultKind::PrematureFree;
    if (O.Corrected)
      ++Fixed;
    else if (O.ErrorFree)
      ++ErrorFree;
    else
      ++Unfixed[Dangling];
    if (O.FixNs > P.Triage[Slowest].Outcome.FixNs)
      Slowest = I;
    if (O.MaxIsolateNs > P.Triage[SlowestIsolate].Outcome.MaxIsolateNs)
      SlowestIsolate = I;
  }
  std::printf("triage: %.2f s, %zu bugs, %u fixed, %u never manifested, %u "
              "timed out, not isolated: %u overflow + %u premature-free\n",
              P.TriageSeconds, P.Triage.size(), Fixed, ErrorFree, TimedOut,
              Unfixed[0], Unfixed[1]);
  if (!P.Triage.empty()) {
    const TriageRecord &S = P.Triage[Slowest];
    std::printf("triage slowest bug: %.3f ms (%.1fx glibc, %s, %u runs): %s\n",
                double(S.Outcome.FixNs) / 1e6,
                double(S.Outcome.FixNs) / double(S.BaselineNs),
                S.Outcome.Corrected ? "fixed" : "not fixed", S.Outcome.Runs,
                P.Inputs.Triage[Slowest].describe().c_str());
    std::printf("triage slowest isolateImages: %.3f ms: %s\n",
                double(P.Triage[SlowestIsolate].Outcome.MaxIsolateNs) / 1e6,
                P.Inputs.Triage[SlowestIsolate].describe().c_str());
    std::printf("triage outcome digest: %016" PRIx64 "\n",
                outcomeDigest(P.Triage));
  }

  const CommunityResult &C = P.Community;
  const PatchServerStats Server = serverTotals(P);
  std::printf("community: %.2f s, %zu rounds, %u sessions, %u not corrected, "
              "%u client runs, %u failed; servers: %" PRIu64
              " summaries, %" PRIu64 " journal appends, %" PRIu64
              " snapshots\n",
              P.CommunitySeconds, P.Rounds.size(), C.Sessions, C.Uncorrected,
              C.ClientRuns, C.FailedRuns, Server.SummariesIngested,
              Server.JournalAppends, Server.SnapshotsWritten);
  std::printf("community per round, fetch/submit p50/submit p90 ms:");
  for (const RoundResult &R : P.Rounds)
    std::printf(" %.3f/%.3f/%.3f", quantile(R.Community.FetchMs, 0.5),
                quantile(R.Community.SubmitMs, 0.5),
                quantile(R.Community.SubmitMs, 0.9));
  std::printf("\n");
  if (Server.DuplicatesSuppressed)
    std::printf("community: %" PRIu64 " acknowledged submissions dropped by "
                "the server as duplicates (two clients drew the same "
                "submission token)\n",
                Server.DuplicatesSuppressed);

  std::vector<double> TriagePeaks;
  for (const TriageRecord &R : P.Triage)
    TriagePeaks.push_back(R.PeakRssMb);
  std::printf("peak rss per operation, median/max MB: deploy %.1f/%.1f, "
              "triage %.1f/%.1f, community %.1f/%.1f\n",
              median(D.PeakRssMb), quantile(D.PeakRssMb, 1.0),
              median(TriagePeaks), quantile(TriagePeaks, 1.0),
              median(C.PeakRssMb), quantile(C.PeakRssMb, 1.0));
}

//===----------------------------------------------------------------------===//
// Metrics.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// The workload's own use: operations attempted, those that errored (a
/// crash, abort or wrong output in deploy; in community a failed fetch or
/// submit, or an acknowledged submission the server dropped as a
/// duplicate), and those fail_ratio counts: deploy's errors, triage bugs
/// left unfixed, and community's failed fetches and submits plus
/// sessions left uncorrected.
struct OwnCounts {
  uint64_t Attempted = 0;
  uint64_t Errors = 0;
  uint64_t Failed = 0;
};

OwnCounts ownCounts(const Options &Opts, const PassResult &P) {
  OwnCounts Out;
  switch (Opts.Primary) {
  case Use::Deploy:
    Out.Attempted = P.Deploy.Attempted;
    Out.Errors = Out.Failed = P.Deploy.Failed;
    break;
  case Use::Triage:
    Out.Attempted = P.Triage.size();
    for (const TriageRecord &R : P.Triage)
      Out.Failed += !R.Outcome.Corrected;
    break;
  case Use::Community:
    Out.Attempted = P.Community.ClientRuns + P.Community.Sessions;
    Out.Errors =
        P.Community.FailedRuns + serverTotals(P).DuplicatesSuppressed;
    Out.Failed = P.Community.FailedRuns + P.Community.Uncorrected;
    break;
  }
  return Out;
}

double mean(const std::vector<double> &Values) {
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Values.empty() ? 0.0 : Sum / double(Values.size());
}

std::vector<Metric> endToEnd(const Options &Opts, const PassResult &P) {
  const OwnCounts Own = ownCounts(Opts, P);
  std::vector<double> FixX, Images;
  for (const TriageRecord &R : P.Triage) {
    if (!R.Outcome.Corrected)
      continue;
    FixX.push_back(double(R.FixCpuNs) / double(R.BaselineCpuNs));
    if (R.Outcome.ImagesToIsolate)
      Images.push_back(R.Outcome.ImagesToIsolate);
  }
  // Community figures come from the quietest round: each is the lowest
  // of the rounds' values.  The rounds do equal work from equal state,
  // and on a shared host other guests' load comes and goes over seconds
  // and only ever lengthens requests (the same reasoning as best-of-N
  // timing).
  const auto quietestRound = [&](auto Statistic) {
    double Lowest = INFINITY;
    for (const RoundResult &R : P.Rounds)
      Lowest = std::min(Lowest, Statistic(R.Community));
    return Lowest;
  };
  return {
      {"setup_s", median(P.SetupSeconds), "s"},
      // A deployed program run's footprint, from the pairs that run
      // before any other use: after the first community round the process
      // keeps some 15 MB more resident, which would swamp the reading.
      {"peak_rss_mb",
       median(std::vector<double>(P.Deploy.PeakRssMb.begin(),
                                  P.Deploy.PeakRssMb.begin() +
                                      ptrdiff_t(P.FirstPartPairs))),
       "MB"},
      // Add-one smoothed, so a run without failures reports
      // 1/(attempted+1) rather than 0.
      {"fail_ratio", double(Own.Failed + 1) / double(Own.Attempted + 1),
       "ratio"},
      {"overhead_x", P.Deploy.overheadX(), "x"},
      {"fix_x_p50", quantile(FixX, 0.5), "x"},
      {"fix_x_p90", quantile(FixX, 0.9), "x"},
      {"images_per_fix", mean(Images), "images"},
      {"run_x_p50",
       quietestRound([](const CommunityResult &C) { return median(C.RunX); }),
       "x"},
      {"submit_ms_p50", quietestRound([](const CommunityResult &C) {
         return quantile(C.SubmitMs, 0.5);
       }),
       "ms"},
      {"submit_ms_p90", quietestRound([](const CommunityResult &C) {
         return quantile(C.SubmitMs, 0.9);
       }),
       "ms"},
      {"fetch_ms_p50", quietestRound([](const CommunityResult &C) {
         return quantile(C.FetchMs, 0.5);
       }),
       "ms"},
      {"runs_to_fix", mean(P.Community.RunsToFix), "runs"},
  };
}

/// Span durations and self times gathered from every thread's log.
struct SpanIndex {
  std::map<std::string, std::vector<double>> Nanos;
  /// Duration minus the time its child spans cover.
  std::map<std::string, std::vector<double>> SelfNanos;
  /// "parent>child" durations.
  std::map<std::string, std::vector<double>> NanosUnder;
  std::map<std::string, std::vector<double>> Payload0, Payload1;
  /// Per operation, the sum of the named spans (heap init + teardown).
  std::map<uint64_t, double> HeapInitByOp;
  std::vector<double> ProgramSelfNanos;
  std::array<std::vector<double>, NumAllocKinds> AllocSamples;
  double RootNanos = 0, RootUncovered = 0;

  explicit SpanIndex(const Tracer &Trace) {
    for (const auto &Log : Trace.logs()) {
      const std::vector<Span> &Spans = Log->spans();
      std::vector<double> Covered(Spans.size(), 0.0);
      for (const Span &S : Spans)
        if (S.Parent >= 0)
          Covered[size_t(S.Parent)] += double(S.nanos());
      for (size_t I = 0; I < Spans.size(); ++I) {
        const Span &S = Spans[I];
        const double Ns = double(S.nanos());
        Nanos[S.Name].push_back(Ns);
        SelfNanos[S.Name].push_back(Ns - Covered[I]);
        if (S.Parent >= 0)
          NanosUnder[std::string(Spans[size_t(S.Parent)].Name) + ">" + S.Name]
              .push_back(Ns);
        else {
          RootNanos += Ns;
          RootUncovered += Ns - Covered[I];
        }
        if (S.Payload[0] || S.Payload[1]) {
          Payload0[S.Name].push_back(double(S.Payload[0]));
          Payload1[S.Name].push_back(double(S.Payload[1]));
        }
        const std::string Name = S.Name;
        if (Name == "correct.heap_init" || Name == "correct.heap_teardown")
          HeapInitByOp[S.Op] += Ns;
        if (Name == "workload.run" && S.Alloc >= 0)
          ProgramSelfNanos.push_back(
              Ns - double(Log->aggregates()[size_t(S.Alloc)].totalNanos()));
      }
      for (size_t K = 0; K < NumAllocKinds; ++K)
        for (uint32_t Ns : Log->samples(AllocKind(K)))
          AllocSamples[K].push_back(double(Ns));
    }
  }

  const std::vector<double> &of(
      const std::map<std::string, std::vector<double>> &Table,
      const std::string &Key) const {
    static const std::vector<double> Empty;
    auto It = Table.find(Key);
    return It == Table.end() ? Empty : It->second;
  }
};

double sampleValue(const MetricsSnapshot &Snapshot, const char *Name,
                   const std::string &Labels) {
  const MetricSample *Sample = Snapshot.find(Name, Labels);
  return Sample ? Sample->Value : 0.0;
}

std::vector<Metric> perLayer(const PassResult &P, const Tracer &Trace,
                             double UntracedSeconds) {
  const SpanIndex Index(Trace);
  auto p50 = [&](const char *Name) { return median(Index.of(Index.Nanos, Name)); };

  AllocatorStats Alloc = P.Deploy.Alloc;
  addAllocStats(Alloc, P.Community.Alloc);
  uint64_t Fixed = 0, Runs = 0, Sets = 0, Useful = 0,
           Hits = 0, Lookups = 0, Slots = 0, ImagesSubmitted = 0;
  for (const TriageRecord &R : P.Triage) {
    const TriageOutcome &O = R.Outcome;
    Fixed += O.Corrected;
    Runs += O.Runs;
    Sets += O.EvidenceSets;
    Useful += O.UsefulSets;
    Hits += O.CacheHits;
    Lookups += O.CacheHits + O.CacheMisses;
    Slots += O.ImageSlots;
    ImagesSubmitted += O.ImagesSubmitted;
    addAllocStats(Alloc, O.Alloc);
  }
  std::vector<double> HeapInit;
  for (const auto &[Op, Ns] : Index.HeapInitByOp)
    HeapInit.push_back(Ns);
  std::vector<double> ClientCodec = Index.of(Index.SelfNanos, "exchange.submit");

  const double CodecIn = double(P.CodecInBytes);
  const double CodecOut = double(P.CodecOutBytes);
  const PatchServerStats Server = serverTotals(P);
  // Each round's final patch set; patch.* are their means.
  double Active = 0, Bytes = 0;
  for (const RoundResult &R : P.Rounds) {
    const PatchSet &Final = R.FinalPatches;
    Active += double(Final.padCount() + Final.frontPadCount() +
                     Final.deferralCount() + Final.hardwareReportCount());
    Bytes += double(serializePatchSet(Final).size());
  }
  const auto ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const double Rounds = double(P.Rounds.size());

  return {
      {"correct.malloc_small_ns_p50", median(Index.AllocSamples[0]), "ns"},
      {"correct.malloc_large_ns_p50", median(Index.AllocSamples[1]), "ns"},
      {"correct.free_ns_p50", median(Index.AllocSamples[2]), "ns"},
      {"correct.heap_init_us", median(HeapInit) / 1e3, "us"},
      {"correct.ops", double(Alloc.Allocations + Alloc.Deallocations),
       "count"},
      {"alloc.invalid_frees", double(Alloc.InvalidFrees), "count"},
      {"alloc.double_frees", double(Alloc.DoubleFrees), "count"},
      {"workload.self_ms", median(Index.ProgramSelfNanos) / 1e6, "ms"},
      {"workload.glibc_ms", p50("workload.glibc") / 1e6, "ms"},
      {"runtime.run_ms_p50", p50("runtime.run") / 1e6, "ms"},
      {"runtime.runs_per_fix", ratio(double(Runs), double(Fixed)), "runs"},
      {"runtime.nonprogram_ms_p50",
       median(Index.of(Index.SelfNanos, "runtime.run")) / 1e6, "ms"},
      {"heapimage.slots_per_image",
       ratio(double(Slots), double(ImagesSubmitted)), "slots"},
      {"isolate.isolate_ms_p50", p50("isolate.isolateImages") / 1e6, "ms"},
      {"isolate.isolate_ms_max",
       quantile(Index.of(Index.Nanos, "isolate.isolateImages"), 1.0) / 1e6,
       "ms"},
      {"isolate.sets_per_fix", ratio(double(Sets), double(Fixed)), "sets"},
      {"isolate.useful_ratio", ratio(double(Useful), double(Sets)), "ratio"},
      {"isolate.view_cache_hit_ratio", ratio(double(Hits), double(Lookups)),
       "ratio"},
      {"diagnose.absorb_us_p50", p50("diagnose.absorbIsolation") / 1e3, "us"},
      {"cumulative.summarize_us_p50", p50("cumulative.summarize") / 1e3,
       "us"},
      {"exchange.submit_wire_us_p50",
       median(Index.of(Index.NanosUnder, "exchange.submit>exchange.wire")) /
           1e3,
       "us"},
      {"exchange.fetch_wire_us_p50",
       median(Index.of(Index.NanosUnder, "exchange.fetch>exchange.wire")) /
           1e3,
       "us"},
      {"exchange.client_codec_us_p50", median(ClientCodec) / 1e3, "us"},
      {"exchange.request_bytes",
       mean(Index.of(Index.Payload0, "exchange.wire")), "bytes"},
      {"exchange.reply_bytes", mean(Index.of(Index.Payload1, "exchange.wire")),
       "bytes"},
      {"exchange.journal_fsync_us_p50",
       sampleValue(P.Metrics, "xterm_journal_fsync_seconds",
                   "quantile=\"0.5\"") *
           1e6,
       "us"},
      {"exchange.journal_appends", double(Server.JournalAppends), "count"},
      {"exchange.snapshots", double(Server.SnapshotsWritten), "count"},
      {"exchange.frames_rejected", double(Server.FramesRejected), "count"},
      {"codec.wire_ratio", ratio(CodecOut, CodecIn), "ratio"},
      {"patch.active", ratio(Active, Rounds), "count"},
      {"patch.bytes", ratio(Bytes, Rounds), "bytes"},
      {"trace.overhead_pct", (P.UseSeconds / UntracedSeconds - 1.0) * 100.0,
       "%"},
      {"trace.residual_pct", ratio(Index.RootUncovered, Index.RootNanos) * 100,
       "%"},
  };
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(),
                std::isfinite(Metrics[I].Value) ? Metrics[I].Value : -1.0,
                Metrics[I].Unit);
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload deploy|triage|community "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const PlanSizes Sizes = sizesFor(Opts);
  if (Opts.TriageWorker)
    return serveTriage(makePlan(Opts.Seed, Sizes).Triage, Opts.Trace);
  // A triage worker that died must not kill this process on a write.
  std::signal(SIGPIPE, SIG_IGN);
  std::error_code Error;
  std::filesystem::create_directories(Opts.OutDir, Error);
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%u trace=%d; "
              "%u deploy pairs/program, %u triage bugs, %u community "
              "sessions\n",
              Opts.WorkloadName.c_str(), Opts.Seed, Opts.Seconds,
              int(Opts.Trace), Sizes.DeployPairsPerProgram, Sizes.TriageBugs,
              Sizes.CommunitySessions);

  Checks C;
  const PassResult Untraced = runPass(Opts, Sizes, nullptr, nullptr, {});
  if (!Untraced.SetupOk) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 Untraced.SetupError.c_str());
    return 1;
  }
  checkPass(Untraced, C);
  report(Opts, Untraced);

  const OwnCounts Own = ownCounts(Opts, Untraced);
  std::vector<Metric> Metrics;
  if (!Opts.Trace) {
    Metrics = endToEnd(Opts, Untraced);
  } else {
    Tracer Trace;
    MetricsRegistry Registry;
    std::vector<unsigned> TimedOut;
    for (size_t I = 0; I < Untraced.Triage.size(); ++I)
      if (Untraced.Triage[I].TimedOut)
        TimedOut.push_back(Untraced.Inputs.Triage[I].Index);
    const PassResult Traced =
        runPass(Opts, Sizes, &Trace, &Registry, TimedOut);
    if (!Traced.SetupOk) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   Traced.SetupError.c_str());
      return 1;
    }
    checkPass(Traced, C);
    std::printf("traced pass:\n");
    report(Opts, Traced);
    Metrics = perLayer(Traced, Trace, Untraced.UseSeconds);
    const std::string SpanFile = Opts.OutDir + "/trace-" + Opts.WorkloadName +
                                 "-seed" + std::to_string(Opts.Seed) +
                                 ".jsonl";
    C.require(Trace.writeJsonLines(SpanFile), "cannot write " + SpanFile);
    std::printf("spans: %s\n", SpanFile.c_str());
  }

  for (const Metric &M : Metrics)
    C.require(std::isfinite(M.Value), "metric " + M.Name + " is not finite");
  for (const std::string &What : C.Broken)
    std::printf("BROKEN: %s\n", What.c_str());
  printResult(C.Broken.empty(), Own.Attempted, Own.Errors, Metrics);
  std::fflush(stdout);
  return C.Broken.empty() ? 0 : 1;
}
