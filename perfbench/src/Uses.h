//===- perfbench/src/Uses.h - The benchmark's three uses -------*- C++ -*-===//
//
// Part of the Exterminator reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three uses of Exterminator the benchmark drives through the
/// library's public calls: patched deploy (Figure 7 programs under the
/// correcting stack, each paired with a glibc run), iterative triage of
/// injected espresso bugs (Triage.h), and community exchange (deployed
/// clients fetching and submitting through an in-process patch server).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_USES_H
#define PERFBENCH_USES_H

#include "Plan.h"
#include "Trace.h"
#include "Triage.h"

#include "exchange/PatchServer.h"
#include "exchange/SocketTransport.h"
#include "exchange/StateStore.h"
#include "observe/MetricsRegistry.h"
#include "workload/EspressoWorkload.h"
#include "workload/SyntheticSuite.h"

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Operation ids: the use in the top byte, the operation's index below.
inline uint64_t operationId(unsigned Use, uint64_t Index) {
  return (uint64_t(Use) << 56) | Index;
}

/// Median of \p Values (0 when empty); reorders its argument.
double median(std::vector<double> Values);
/// The \p Q quantile (0..1) by linear interpolation (0 when empty).
double quantile(std::vector<double> Values, double Q);

/// Returns freed heap memory to the kernel (malloc_trim), so a following
/// peak reading starts from what is live rather than from what an
/// earlier operation left in the allocator.
void releaseFreedMemory();
/// The process's peak resident set since construction (Linux: the
/// constructor resets the kernel's high-water mark through
/// /proc/self/clear_refs).
class PeakRssWindow {
public:
  PeakRssWindow();
  double peakMb() const;
};

/// A program run by the glibc stand-in (BaselineAllocator); returns the
/// wall time in nanoseconds and stores the result.
uint64_t runBaseline(const exterminator::Workload &Work, uint64_t InputSeed,
                     exterminator::WorkloadResult &ResultOut);

/// A program inside its own module: an outer call frame, so its
/// allocation sites differ from every other module's.
class ModuleWorkload : public exterminator::Workload {
public:
  ModuleWorkload(const exterminator::Workload &Inner, uint32_t Frame)
      : Inner(Inner), Frame(Frame) {}

  const char *name() const override { return Inner.name(); }
  exterminator::WorkloadResult run(exterminator::AllocatorHandle &Handle,
                                   uint64_t InputSeed) const override;

private:
  const exterminator::Workload &Inner;
  uint32_t Frame;
};

//===----------------------------------------------------------------------===//
// deploy
//===----------------------------------------------------------------------===//

struct DeployResult {
  unsigned Attempted = 0;
  /// Runs that crashed, aborted, or whose output differs from the
  /// paired glibc run's.
  unsigned Failed = 0;
  /// Allocations or frees the carried patch set touched (must stay 0:
  /// the plan's random patch sites miss the programs' sites).
  uint64_t PatchHits = 0;
  /// Per program: Exterminator time ÷ paired glibc time, one per pair.
  std::vector<std::vector<double>> Ratios;
  /// Peak resident set of the process while each pair ran.
  std::vector<double> PeakRssMb;
  exterminator::AllocatorStats Alloc;

  /// Figure 7 overhead: geomean over programs of the median pair ratio.
  double overheadX() const;
};

/// Runs every pair of \p Pairs over \p Plan's programs, adding to \p Out.
void runDeploy(const DeployPlan &Plan, std::span<const DeployPair> Pairs,
               DeployResult &Out);

//===----------------------------------------------------------------------===//
// triage
//===----------------------------------------------------------------------===//

struct TriageRecord {
  TriageOutcome Outcome;
  /// Stopped: the bug's triage overran TriageBugDeadline (counted as not
  /// fixed).
  bool TimedOut = false;
  /// Fastest of the glibc runs of the bug's program and input made
  /// right before the bug.
  uint64_t BaselineNs = 0;
  /// BaselineNs and Outcome.FixNs in CPU time of the process, which leaves
  /// out the time other guests of a shared host hold its virtual CPUs
  /// (fix_x).
  uint64_t BaselineCpuNs = 0;
  uint64_t FixCpuNs = 0;
  /// Peak resident set of the worker process while the bug was triaged.
  double PeakRssMb = 0;
};

/// A bug's triage may run this long; a worker that overruns it is
/// stopped.  Bugs that finish take at most about 1.4 s on a 4-core x86-64
/// KVM guest, while the slow bugs README.md lists among the known triage
/// defects run for 20 s and more: the deadline separates the two with
/// room on both sides.
inline constexpr std::chrono::seconds TriageBugDeadline{5};

/// Triages \p Bug in this process: glibc runs of its program and input,
/// then iterative mode, recording spans when the thread traces.
TriageRecord triageBug(const TriageBug &Bug);

/// The triage worker's side: reads bug indices from standard input, one
/// a line, triages each bug of \p Triage and writes its record (and its
/// spans when \p Trace) to standard output.  Returns the exit code.
int serveTriage(const std::vector<TriageBug> &Triage, bool Trace);

/// A worker process that triages bugs one at a time.  Library calls
/// cannot be cancelled, and a few injected premature frees make triage
/// run for minutes while its memory grows, so each bug runs in the
/// worker: a bug that overruns the deadline costs the deadline, the
/// worker is killed and a new one takes the next bug.  The parent waits
/// while a bug runs, so the load still comes from one process at a time.
class TriageWorker {
public:
  /// Starts the worker: this program with \p Arguments (its own, which
  /// name the seed and sizes, so the worker builds the same plan).
  explicit TriageWorker(std::vector<std::string> Arguments);
  /// Closes the worker's input and waits for it to end.
  ~TriageWorker();
  TriageWorker(const TriageWorker &) = delete;
  TriageWorker &operator=(const TriageWorker &) = delete;

  bool ok() const { return Pid > 0; }
  const std::string &error() const { return Error; }

  /// Triages bug \p Index within \p Deadline into \p Out.  On an overrun
  /// kills the worker, starts another and marks \p Out TimedOut.  Spans
  /// the worker recorded go to a new log of \p Trace.  Returns false, with
  /// error() set, if the worker failed otherwise.
  bool triage(unsigned Index, std::chrono::milliseconds Deadline,
              Tracer *Trace, TriageRecord &Out);

private:
  enum class Reply { Complete, Overran, Ended };

  bool start();
  void stop(bool Kill);
  /// Reads lines up to "done" (or "ready"), unless \p Due passes first or
  /// the worker's output ends.
  Reply readReply(std::chrono::steady_clock::time_point Due,
                  std::vector<std::string> &Lines);

  std::vector<std::string> Arguments;
  int Pid = -1;
  int ToWorker = -1, FromWorker = -1;
  std::string Buffered;
  std::string Error;
};

//===----------------------------------------------------------------------===//
// community
//===----------------------------------------------------------------------===//

/// The in-process exchange: a PatchServer journaling into a StateStore
/// directory, served over a Unix socket by a SocketPatchServer with two
/// workers.  The directory and socket are removed on destruction.
class Exchange {
public:
  /// The server starts empty.  \p Registry, when set, is attached to the
  /// server and the store.
  Exchange(const std::string &StateDir, const std::string &SocketPath,
           exterminator::MetricsRegistry *Registry);
  ~Exchange();
  Exchange(const Exchange &) = delete;
  Exchange &operator=(const Exchange &) = delete;

  bool ok() const { return Ok; }
  const std::string &error() const { return Error; }

  /// Stops serving, then restores a fresh server from the state
  /// directory; true when it reproduces this server's state exactly
  /// (every acknowledged submission is durable).
  bool stopAndVerifyDurable();
  const exterminator::Endpoint &endpoint() const { return Front->endpoint(); }
  exterminator::PatchServer &server() { return Server; }

private:
  std::string StateDir;
  bool Ok = false;
  std::string Error;
  exterminator::PatchServer Server;
  std::unique_ptr<exterminator::StateStore> Store;
  std::unique_ptr<exterminator::SocketPatchServer> Front;
};

struct CommunityResult {
  unsigned ClientRuns = 0;
  /// Client runs whose fetch or submit failed.
  unsigned FailedRuns = 0;
  unsigned Sessions = 0;
  /// Sessions not corrected within their run budget.
  unsigned Uncorrected = 0;
  /// Submissions the server acknowledged.
  uint64_t Acknowledged = 0;
  /// Peak resident set of the process during each client run (both
  /// clients share the process, so a reading covers both).
  std::vector<double> PeakRssMb;
  /// Each client's last fetch (made after every client finished) equals
  /// the server's final patch set.
  bool FinalFetchesMatch = true;
  /// Per client run: its wall time ÷ the session's glibc time.
  std::vector<double> RunX;
  std::vector<double> SubmitMs;
  std::vector<double> FetchMs;
  /// Per corrected session: client runs from the first failing run to
  /// the last verifying run.
  std::vector<double> RunsToFix;
  exterminator::AllocatorStats Alloc;
};

/// Adds \p From's counts and samples to \p Into.
void addCommunity(CommunityResult &Into, const CommunityResult &From);

/// Warm-up (set-up, never timed): \p RunsEach client runs of each of
/// \p Sessions; returns the submissions the server acknowledged.
uint64_t warmUpCommunity(Exchange &Ex,
                         const std::vector<CommunitySession> &Sessions,
                         unsigned RunsEach);

/// Runs \p Sessions on \p Clients client threads against \p Ex.  When
/// \p Trace is set each client thread records spans into its own log.
CommunityResult runCommunity(Exchange &Ex,
                             std::span<const CommunitySession> Sessions,
                             unsigned Clients, Tracer *Trace);

} // namespace perfbench

#endif // PERFBENCH_USES_H
