//===- perfbench/src/Uses.cpp - Shared helpers and the triage use ----------===//

#include "Uses.h"

#include "alloc/BaselineAllocator.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace exterminator;
using namespace perfbench;

void perfbench::releaseFreedMemory() { malloc_trim(0); }

namespace {

/// A "Vm...:" field of /proc/self/status, in MB.
double statusMb(const char *Field) {
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return 0.0;
  const size_t FieldLength = std::strlen(Field);
  char Line[256];
  long Kb = 0;
  while (std::fgets(Line, sizeof(Line), Status))
    if (std::strncmp(Line, Field, FieldLength) == 0 &&
        std::sscanf(Line + FieldLength, " %ld kB", &Kb) == 1)
      break;
  std::fclose(Status);
  return double(Kb) / 1024.0;
}

} // namespace

PeakRssWindow::PeakRssWindow() {
  // "5" resets the kernel's resident-set high-water mark (VmHWM).
  if (std::FILE *ClearRefs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", ClearRefs);
    std::fclose(ClearRefs);
  }
}

double PeakRssWindow::peakMb() const { return statusMb("VmHWM:"); }

double perfbench::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Rank = Q * double(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Rank);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Rank - double(Lo)) * (Values[Hi] - Values[Lo]);
}

uint64_t perfbench::runBaseline(const Workload &Work, uint64_t InputSeed,
                                WorkloadResult &ResultOut) {
  ScopedSpan Span("workload.glibc");
  const uint64_t Start = nowNs();
  {
    CallContext Context;
    BaselineAllocator Heap;
    AllocatorHandle Handle(Heap, Context, nullptr);
    ResultOut = Work.run(Handle, InputSeed);
  }
  return nowNs() - Start;
}

WorkloadResult ModuleWorkload::run(AllocatorHandle &Handle,
                                   uint64_t InputSeed) const {
  CallContext::Scope Module(Handle.context(), Frame);
  return Inner.run(Handle, InputSeed);
}

namespace {

const EspressoWorkload &programOf(const TriageBug &Bug) {
  static const EspressoWorkload Default(espressoParams(LiveSet::Default));
  static const EspressoWorkload Large(espressoParams(LiveSet::Large));
  return Bug.Live == LiveSet::Large ? Large : Default;
}

/// CPU time of the process, all threads.  The kernel leaves out the time
/// the host gave the guest's virtual CPUs to other guests (steal).
uint64_t cpuNs() {
  timespec Now;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Now);
  return uint64_t(Now.tv_sec) * 1000000000ULL + uint64_t(Now.tv_nsec);
}

/// One line per record: "record" and the fields in a fixed order.
std::string encodeRecord(const TriageRecord &R) {
  const TriageOutcome &O = R.Outcome;
  std::string Line = "record";
  for (uint64_t Field :
       {uint64_t(O.Corrected), uint64_t(O.ErrorFree),
        uint64_t(O.ImagesToIsolate), uint64_t(O.Runs),
        uint64_t(O.EvidenceSets), uint64_t(O.UsefulSets), O.FixNs,
        O.MaxIsolateNs, O.ImagesSubmitted, O.ImageSlots, O.CacheHits,
        O.CacheMisses, O.Alloc.Allocations, O.Alloc.Deallocations,
        O.Alloc.InvalidFrees, O.Alloc.DoubleFrees, O.Alloc.BytesRequested,
        R.BaselineNs, R.BaselineCpuNs, R.FixCpuNs,
        uint64_t(R.PeakRssMb * 1024.0), uint64_t(O.ImagesPerEpisode.size())})
    Line += " " + std::to_string(Field);
  for (unsigned Images : O.ImagesPerEpisode)
    Line += " " + std::to_string(Images);
  return Line + "\n";
}

bool decodeRecord(const std::string &Line, TriageRecord &R) {
  std::istringstream In(Line);
  std::string Tag;
  uint64_t F[22];
  In >> Tag;
  for (uint64_t &Field : F)
    In >> Field;
  if (!In || Tag != "record")
    return false;
  TriageOutcome &O = R.Outcome;
  O.Corrected = F[0];
  O.ErrorFree = F[1];
  O.ImagesToIsolate = static_cast<unsigned>(F[2]);
  O.Runs = static_cast<unsigned>(F[3]);
  O.EvidenceSets = static_cast<unsigned>(F[4]);
  O.UsefulSets = static_cast<unsigned>(F[5]);
  O.FixNs = F[6];
  O.MaxIsolateNs = F[7];
  O.ImagesSubmitted = F[8];
  O.ImageSlots = F[9];
  O.CacheHits = F[10];
  O.CacheMisses = F[11];
  O.Alloc.Allocations = F[12];
  O.Alloc.Deallocations = F[13];
  O.Alloc.InvalidFrees = F[14];
  O.Alloc.DoubleFrees = F[15];
  O.Alloc.BytesRequested = F[16];
  R.BaselineNs = F[17];
  R.BaselineCpuNs = F[18];
  R.FixCpuNs = F[19];
  R.PeakRssMb = double(F[20]) / 1024.0;
  O.ImagesPerEpisode.resize(F[21]);
  for (unsigned &Images : O.ImagesPerEpisode)
    In >> Images;
  return bool(In);
}

} // namespace

TriageRecord perfbench::triageBug(const TriageBug &Bug) {
  // Glibc runs per bug; the fastest normalizes its fix time.
  constexpr unsigned BaselineRuns = 3;

  TriageRecord Record;
  ScopedSpan Op("triage.bug", operationId(2, Bug.Index));
  releaseFreedMemory();
  const PeakRssWindow Memory;
  const EspressoWorkload &Program = programOf(Bug);
  Record.BaselineNs = Record.BaselineCpuNs = UINT64_MAX;
  for (unsigned I = 0; I < BaselineRuns; ++I) {
    WorkloadResult Ignored;
    const uint64_t CpuStart = cpuNs();
    Record.BaselineNs = std::min(Record.BaselineNs,
                                 runBaseline(Program, Bug.InputSeed, Ignored));
    Record.BaselineCpuNs = std::min(Record.BaselineCpuNs, cpuNs() - CpuStart);
  }
  TimedWorkload Timed(Program);
  const uint64_t CpuStart = cpuNs();
  Record.Outcome = triage(Timed, Bug.InputSeed, Bug.config());
  Record.FixCpuNs = cpuNs() - CpuStart;
  Record.PeakRssMb = Memory.peakMb();
  return Record;
}

int perfbench::serveTriage(const std::vector<TriageBug> &Triage, bool Trace) {
  // Die with the parent, which alone can stop an overrunning bug.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  // Warm-up: each program once under glibc.
  for (LiveSet Live : {LiveSet::Default, LiveSet::Large}) {
    TriageBug Bug;
    Bug.Live = Live;
    WorkloadResult Ignored;
    runBaseline(programOf(Bug), 1, Ignored);
  }
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
  char Line[64];
  while (std::fgets(Line, sizeof(Line), stdin)) {
    const unsigned long Index = std::strtoul(Line, nullptr, 10);
    if (Index >= Triage.size())
      return 1;
    Tracer Spans;
    SpanLog *Log = Trace ? &Spans.newLog() : nullptr;
    std::string Reply;
    {
      ThreadLogScope Logging(Log);
      Reply = encodeRecord(triageBug(Triage[Index]));
    }
    if (Log)
      Log->writeTo(Reply);
    Reply += "done\n";
    std::fputs(Reply.c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

TriageWorker::TriageWorker(std::vector<std::string> Arguments)
    : Arguments(std::move(Arguments)) {
  start();
}

TriageWorker::~TriageWorker() { stop(/*Kill=*/false); }

bool TriageWorker::start() {
  int In[2], Out[2];
  if (pipe2(In, O_CLOEXEC) != 0) {
    Error = "cannot create the triage worker's pipes";
    return false;
  }
  if (pipe2(Out, O_CLOEXEC) != 0) {
    close(In[0]);
    close(In[1]);
    Error = "cannot create the triage worker's pipes";
    return false;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, In[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&Actions, Out[1], STDOUT_FILENO);
  std::vector<char *> Argv;
  for (std::string &Argument : Arguments)
    Argv.push_back(Argument.data());
  Argv.push_back(nullptr);
  pid_t Child = -1;
  const int Failed = posix_spawn(&Child, "/proc/self/exe", &Actions, nullptr,
                                 Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(In[0]);
  close(Out[1]);
  if (Failed != 0) {
    close(In[1]);
    close(Out[0]);
    Error = "cannot start the triage worker";
    return false;
  }
  Pid = Child;
  ToWorker = In[1];
  FromWorker = Out[0];
  Buffered.clear();
  std::vector<std::string> Ready;
  if (readReply(std::chrono::steady_clock::now() + std::chrono::seconds(30),
                Ready) != Reply::Complete ||
      Ready.back() != "ready") {
    stop(/*Kill=*/true);
    Error = "the triage worker did not start";
    return false;
  }
  return true;
}

void TriageWorker::stop(bool Kill) {
  if (Pid <= 0)
    return;
  if (Kill)
    kill(Pid, SIGKILL);
  close(ToWorker);
  close(FromWorker);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Pid = -1;
  ToWorker = FromWorker = -1;
}

TriageWorker::Reply
TriageWorker::readReply(std::chrono::steady_clock::time_point Due,
                        std::vector<std::string> &Lines) {
  for (;;) {
    size_t End;
    while ((End = Buffered.find('\n')) != std::string::npos) {
      Lines.push_back(Buffered.substr(0, End));
      Buffered.erase(0, End + 1);
      if (Lines.back() == "done" || Lines.back() == "ready")
        return Reply::Complete;
    }
    // Rounded up, so that poll never returns before Due.
    const auto Left = std::chrono::ceil<std::chrono::milliseconds>(
        Due - std::chrono::steady_clock::now());
    if (Left.count() <= 0)
      return Reply::Overran;
    pollfd Poll = {FromWorker, POLLIN, 0};
    const int Ready = poll(&Poll, 1, static_cast<int>(Left.count()));
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready == 0)
      continue; // the loop head decides whether Due has passed
    char Chunk[65536];
    const ssize_t Got =
        Ready < 0 ? -1 : read(FromWorker, Chunk, sizeof(Chunk));
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      return Reply::Ended;
    Buffered.append(Chunk, static_cast<size_t>(Got));
  }
}

bool TriageWorker::triage(unsigned Index, std::chrono::milliseconds Deadline,
                          Tracer *Trace, TriageRecord &Out) {
  Out = TriageRecord();
  if (Pid <= 0 && !start())
    return false;
  const std::string Request = std::to_string(Index) + "\n";
  const auto Due = std::chrono::steady_clock::now() + Deadline;
  std::vector<std::string> Lines;
  const Reply Got = write(ToWorker, Request.data(), Request.size()) ==
                            static_cast<ssize_t>(Request.size())
                        ? readReply(Due, Lines)
                        : Reply::Ended;
  if (Got != Reply::Complete) {
    stop(/*Kill=*/true);
    if (Got == Reply::Ended) {
      Error = "the triage worker ended during bug " + std::to_string(Index);
      return false;
    }
    Out.TimedOut = true;
    return start();
  }
  Lines.pop_back(); // "done"
  if (Lines.empty() || !decodeRecord(Lines.front(), Out)) {
    Error = "malformed triage record for bug " + std::to_string(Index);
    return false;
  }
  if (Trace && !Trace->newLog().readFrom(
                   std::span<const std::string>(Lines).subspan(1))) {
    Error = "malformed spans for bug " + std::to_string(Index);
    return false;
  }
  return true;
}
