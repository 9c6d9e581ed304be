//===- perfbench/src/Community.cpp - Community exchange use -----------------===//
//
// Deployed clients sharing one patch server.  Each client run models one
// short-lived deployed process: fetch the patch set on a fresh client,
// run the buggy program once under canary fill probability 1/2, reduce
// the final heap image to a §5 summary, and submit it (a journaled
// write).  A bug's session ends after CommunityVerifyRuns clean patched
// runs, or counts as not corrected after CommunityRunBudget runs.
//
//===----------------------------------------------------------------------===//

#include "Uses.h"

#include "alloc/BaselineAllocator.h"
#include "diagnose/DiagnosisPipeline.h"
#include "exchange/PatchClient.h"
#include "support/RandomGenerator.h"

#include <algorithm>
#include <barrier>
#include <filesystem>
#include <mutex>
#include <thread>

using namespace exterminator;
using namespace perfbench;

Exchange::Exchange(const std::string &StateDir, const std::string &SocketPath,
                   MetricsRegistry *Registry)
    : StateDir(StateDir) {
  std::error_code Ignored;
  std::filesystem::remove_all(StateDir, Ignored);
  std::filesystem::remove(SocketPath, Ignored);
  Store = std::make_unique<StateStore>(StateDir);
  if (Registry)
    Store->attachMetrics(*Registry);
  // The serve command's flush policy: fsync per journal append, a
  // snapshot every 64 appends.
  if (!Server.attachState(*Store, /*SnapshotInterval=*/64, &Error))
    return;
  if (Registry)
    Server.attachMetrics(*Registry);
  Front = std::make_unique<SocketPatchServer>(Server, /*Workers=*/2);
  if (Registry)
    Front->attachMetrics(*Registry);
  Endpoint Ep;
  if (!parseEndpoint("unix:" + SocketPath, Ep) || !Front->listen(Ep) ||
      !Front->start()) {
    Error = "cannot serve on unix:" + SocketPath;
    return;
  }
  Ok = true;
}

bool Exchange::stopAndVerifyDurable() {
  if (Front)
    Front->stop();
  StateStore Reopened(StateDir);
  PatchServer Restored;
  return Restored.attachState(Reopened) &&
         Restored.serializeState() == Server.serializeState();
}

Exchange::~Exchange() {
  if (Front)
    Front->stop();
  Front.reset();
  std::error_code Ignored;
  std::filesystem::remove_all(StateDir, Ignored);
}

namespace {

/// Records the allocation site of every allocate call.
class SiteRecorder : public Allocator {
public:
  explicit SiteRecorder(const CallContext &Context) : Context(Context) {}

  void *allocate(size_t Size) override {
    const SiteId Site = Context.currentSite();
    if (std::find(Sites.begin(), Sites.end(), Site) == Sites.end())
      Sites.push_back(Site);
    return Inner.allocate(Size);
  }
  void deallocate(void *Ptr) override { Inner.deallocate(Ptr); }
  const char *name() const override { return "site-recorder"; }

  std::vector<SiteId> Sites;

private:
  const CallContext &Context;
  BaselineAllocator Inner;
};

std::vector<SiteId> allocationSites(const Workload &Work, uint64_t Input) {
  CallContext Context;
  SiteRecorder Recorder(Context);
  AllocatorHandle Handle(Recorder, Context, nullptr);
  Work.run(Handle, Input);
  return Recorder.Sites;
}

/// True when \p Patches holds a pad or deferral for one of \p Sites.
bool patchesAny(const PatchSet &Patches, const std::vector<SiteId> &Sites) {
  for (SiteId Site : Sites)
    if (Patches.padFor(Site))
      return true;
  for (const DeferralPatch &Deferral : Patches.deferrals())
    if (std::find(Sites.begin(), Sites.end(), Deferral.AllocSite) !=
        Sites.end())
      return true;
  return false;
}

double elapsedMs(uint64_t Start) { return double(nowNs() - Start) / 1e6; }

/// One client thread's side of the community use.
struct Client {
  ClientTransport &Transport;
  const DiagnosisPipeline &Local;
  const Workload &Program;
  /// Held while a summary is queued (see runSession).
  std::mutex &Queueing;
  CommunityResult &Out;

  void runSession(const CommunitySession &Session);
};

void Client::runSession(const CommunitySession &Session) {
  const ModuleWorkload Module(Program, Session.ModuleFrame);
  TimedWorkload Timed(Module);
  const ExterminatorConfig Config = Session.config();
  const std::vector<SiteId> Sites =
      allocationSites(Module, Session.InputSeed);
  const uint64_t OpBase = uint64_t(Session.Index) << 16;

  // The fastest of three glibc runs normalizes this session's runs.
  uint64_t BaselineNs = UINT64_MAX;
  {
    ScopedSpan Op("community.baseline", operationId(3, OpBase | 0xffff));
    for (unsigned I = 0; I < 3; ++I) {
      WorkloadResult Ignored;
      BaselineNs =
          std::min(BaselineNs, runBaseline(Module, Session.InputSeed, Ignored));
    }
  }

  RandomGenerator HeapSeeds(Config.MasterSeed ^ 0xc0a1e5ceULL);
  unsigned CleanStreak = 0, CleanPatched = 0;
  int FirstFailure = -1;
  bool Corrected = false;
  for (unsigned R = 0; R < CommunityRunBudget && !Corrected; ++R) {
    ScopedSpan Op("community.run", operationId(3, OpBase | R));
    const PeakRssWindow Memory;
    const uint64_t Start = nowNs();
    ++Out.ClientRuns;
    PatchClient Fresh(Transport);
    bool Fetched = false;
    {
      ScopedSpan Span("exchange.fetch");
      const uint64_t FetchStart = nowNs();
      Fetched = Fresh.fetchPatches();
      Out.FetchMs.push_back(elapsedMs(FetchStart));
    }
    if (!Fetched) {
      ++Out.FailedRuns;
      continue;
    }
    const bool Patched = patchesAny(Fresh.patches(), Sites);

    SingleRunResult Run;
    {
      ScopedSpan Span("runtime.run");
      Run = runWorkloadOnce(Timed, Session.InputSeed, HeapSeeds.next(),
                            Config, Fresh.patches());
    }
    addAllocStats(Out.Alloc, Run.Alloc);
    const bool Failed = Run.failed();
    CleanStreak = Failed ? 0 : CleanStreak + 1;
    if (Failed && FirstFailure < 0)
      FirstFailure = static_cast<int>(R);

    RunSummary Summary;
    {
      ScopedSpan Span("cumulative.summarize");
      Summary = Local.summarize(Run.FinalImage, Failed);
    }
    bool Submitted = false;
    {
      ScopedSpan Span("exchange.submit");
      const uint64_t SubmitStart = nowNs();
      // PatchClient mints each submission's token from one random
      // generator shared by every thread without a lock, so two clients
      // submitting at once can draw the same token and the server drops
      // one summary as a duplicate.  Queueing mints the token; the clients
      // take turns at that and send concurrently.
      {
        std::lock_guard<std::mutex> Lock(Queueing);
        Submitted = Fresh.queueSummary(Summary, CleanStreak);
      }
      Submitted = Submitted && Fresh.flush();
      Out.SubmitMs.push_back(elapsedMs(SubmitStart));
    }
    if (!Submitted) {
      ++Out.FailedRuns;
      continue;
    }
    ++Out.Acknowledged;
    Out.RunX.push_back(double(nowNs() - Start) / double(BaselineNs));
    Out.PeakRssMb.push_back(Memory.peakMb());

    CleanPatched = Patched && !Failed ? CleanPatched + 1 : 0;
    if (FirstFailure >= 0 && CleanPatched >= CommunityVerifyRuns) {
      Corrected = true;
      Out.RunsToFix.push_back(double(R + 1 - unsigned(FirstFailure)));
    }
  }
  ++Out.Sessions;
  if (!Corrected)
    ++Out.Uncorrected;

}

} // namespace

void perfbench::addCommunity(CommunityResult &Into,
                             const CommunityResult &From) {
  Into.ClientRuns += From.ClientRuns;
  Into.FailedRuns += From.FailedRuns;
  Into.Sessions += From.Sessions;
  Into.Uncorrected += From.Uncorrected;
  Into.Acknowledged += From.Acknowledged;
  Into.FinalFetchesMatch &= From.FinalFetchesMatch;
  auto append = [](std::vector<double> &To, const std::vector<double> &V) {
    To.insert(To.end(), V.begin(), V.end());
  };
  append(Into.RunX, From.RunX);
  append(Into.SubmitMs, From.SubmitMs);
  append(Into.FetchMs, From.FetchMs);
  append(Into.RunsToFix, From.RunsToFix);
  append(Into.PeakRssMb, From.PeakRssMb);
  addAllocStats(Into.Alloc, From.Alloc);
}

uint64_t
perfbench::warmUpCommunity(Exchange &Ex,
                           const std::vector<CommunitySession> &Sessions,
                           unsigned RunsEach) {
  const EspressoWorkload Program(espressoParams(LiveSet::Default));
  const DiagnosisPipeline Local;
  SocketClientTransport Socket(Ex.endpoint());
  uint64_t Acknowledged = 0;
  for (const CommunitySession &Session : Sessions) {
    ModuleWorkload Module(Program, Session.ModuleFrame);
    RandomGenerator HeapSeeds(Session.MasterSeed);
    for (unsigned R = 0; R < RunsEach; ++R) {
      PatchClient Client(Socket);
      if (!Client.fetchPatches())
        continue;
      const SingleRunResult Run =
          runWorkloadOnce(Module, Session.InputSeed, HeapSeeds.next(),
                          Session.config(), Client.patches());
      Acknowledged += Client.submitSummary(
          Local.summarize(Run.FinalImage, Run.failed()),
          Run.failed() ? 0 : R + 1);
    }
  }
  return Acknowledged;
}

CommunityResult perfbench::runCommunity(
    Exchange &Ex, std::span<const CommunitySession> Sessions,
    unsigned Clients, Tracer *Trace) {
  const EspressoWorkload Program(espressoParams(LiveSet::Default));
  // Summaries are computed client-side; summarize() is stateless.
  const DiagnosisPipeline Local;
  std::vector<CommunityResult> Partial(Clients);
  std::mutex Queueing;
  std::barrier Finished(static_cast<std::ptrdiff_t>(Clients));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      ThreadLogScope Logging(Trace ? &Trace->newLog() : nullptr);
      SocketClientTransport Socket(Ex.endpoint());
      TimedTransport TimedSocket(Socket);
      ClientTransport &Transport =
          Trace ? static_cast<ClientTransport &>(TimedSocket) : Socket;
      Client Self{Transport, Local, Program, Queueing, Partial[T]};
      for (size_t S = T; S < Sessions.size(); S += Clients)
        Self.runSession(Sessions[S]);
      // Every submission is in: each client's last fetch must now see
      // the server's final patch set.
      Finished.arrive_and_wait();
      PatchClient Final(Transport);
      Partial[T].FinalFetchesMatch =
          Final.fetchPatches() &&
          Final.patches() == Ex.server().snapshot().Patches;
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  CommunityResult Out;
  for (const CommunityResult &Part : Partial)
    addCommunity(Out, Part);
  return Out;
}
