//===- perfbench/src/Trace.cpp - Spans recorded around library calls ------===//

#include "Trace.h"

#include <bit>
#include <cstdio>
#include <set>
#include <sstream>

using namespace exterminator;
using namespace perfbench;

namespace {
thread_local SpanLog *CurrentLog = nullptr;
} // namespace

SpanLog *perfbench::threadLog() { return CurrentLog; }

ThreadLogScope::ThreadLogScope(SpanLog *Log) : Previous(CurrentLog) {
  CurrentLog = Log;
}

ThreadLogScope::~ThreadLogScope() { CurrentLog = Previous; }

int32_t SpanLog::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurrentOp;
  S.StartNs = nowNs();
  Spans.push_back(S);
  const int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

int32_t SpanLog::openOperation(const char *Name, uint64_t Op) {
  CurrentOp = Op;
  return open(Name);
}

void SpanLog::close(int32_t Id) {
  Spans[static_cast<size_t>(Id)].EndNs = nowNs();
  // Spans close in LIFO order; tolerate a stray close by unwinding to Id.
  while (!Open.empty()) {
    const int32_t Top = Open.back();
    Open.pop_back();
    if (Top == Id)
      break;
  }
}

void SpanLog::noteAlloc(AllocKind Kind, uint64_t Nanos) {
  if (Open.empty())
    return;
  Span &Inner = Spans[static_cast<size_t>(Open.back())];
  if (Inner.Alloc < 0) {
    Inner.Alloc = static_cast<int32_t>(Aggregates.size());
    Aggregates.emplace_back();
  }
  AllocAggregate &Agg = Aggregates[static_cast<size_t>(Inner.Alloc)];
  const size_t K = static_cast<size_t>(Kind);
  ++Agg.Calls[K];
  Agg.Nanos[K] += Nanos;
  const unsigned Bucket =
      Nanos == 0 ? 0 : static_cast<unsigned>(std::bit_width(Nanos) - 1);
  ++Agg.Log2Histogram[K][Bucket < 32 ? Bucket : 31];
  if (SampleTicks[K]++ % SampleStride == 0)
    Samples[K].push_back(
        static_cast<uint32_t>(Nanos < UINT32_MAX ? Nanos : UINT32_MAX));
}

void SpanLog::writeTo(std::string &Out) const {
  char Line[160];
  for (const Span &S : Spans) {
    std::snprintf(Line, sizeof(Line), "span %s %llu %llu %d %d %llu %llu %llu\n",
                  S.Name, static_cast<unsigned long long>(S.StartNs),
                  static_cast<unsigned long long>(S.EndNs), S.Parent, S.Alloc,
                  static_cast<unsigned long long>(S.Op),
                  static_cast<unsigned long long>(S.Payload[0]),
                  static_cast<unsigned long long>(S.Payload[1]));
    Out += Line;
  }
  for (const AllocAggregate &Agg : Aggregates) {
    Out += "aggregate";
    for (size_t K = 0; K < NumAllocKinds; ++K) {
      Out += " " + std::to_string(Agg.Calls[K]) + " " +
             std::to_string(Agg.Nanos[K]);
      for (uint32_t Count : Agg.Log2Histogram[K])
        Out += " " + std::to_string(Count);
    }
    Out += "\n";
  }
  for (size_t K = 0; K < NumAllocKinds; ++K) {
    Out += "samples " + std::to_string(K);
    for (uint32_t Ns : Samples[K])
      Out += " " + std::to_string(Ns);
    Out += "\n";
  }
}

namespace {
/// A stable copy of a span name read from another process.
const char *internName(const std::string &Name) {
  static std::mutex Mutex;
  static std::set<std::string> Names;
  std::lock_guard<std::mutex> Lock(Mutex);
  return Names.insert(Name).first->c_str();
}
} // namespace

bool SpanLog::readFrom(std::span<const std::string> Lines) {
  const int32_t SpanBase = static_cast<int32_t>(Spans.size());
  const int32_t AllocBase = static_cast<int32_t>(Aggregates.size());
  for (const std::string &Line : Lines) {
    std::istringstream In(Line);
    std::string Tag;
    In >> Tag;
    if (Tag == "span") {
      std::string Name;
      Span S;
      In >> Name >> S.StartNs >> S.EndNs >> S.Parent >> S.Alloc >> S.Op >>
          S.Payload[0] >> S.Payload[1];
      S.Name = internName(Name);
      if (S.Parent >= 0)
        S.Parent += SpanBase;
      if (S.Alloc >= 0)
        S.Alloc += AllocBase;
      Spans.push_back(S);
    } else if (Tag == "aggregate") {
      AllocAggregate Agg;
      for (size_t K = 0; K < NumAllocKinds; ++K) {
        In >> Agg.Calls[K] >> Agg.Nanos[K];
        for (uint32_t &Count : Agg.Log2Histogram[K])
          In >> Count;
      }
      Aggregates.push_back(Agg);
    } else if (Tag == "samples") {
      size_t K = NumAllocKinds;
      In >> K;
      if (K >= NumAllocKinds)
        return false;
      for (uint32_t Ns; In >> Ns;)
        Samples[K].push_back(Ns);
      continue; // the list ends at the end of the line
    } else {
      return false;
    }
    if (!In)
      return false;
  }
  return true;
}

SpanLog &Tracer::newLog() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Logs.push_back(std::make_unique<SpanLog>());
  return *Logs.back();
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t Thread = 0; Thread < Logs.size(); ++Thread) {
    const SpanLog &Log = *Logs[Thread];
    for (size_t I = 0; I < Log.spans().size(); ++I) {
      const Span &S = Log.spans()[I];
      std::fprintf(Out,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu",
                   Thread, I, S.Parent, static_cast<unsigned long long>(S.Op),
                   S.Name, static_cast<unsigned long long>(S.StartNs),
                   static_cast<unsigned long long>(S.EndNs));
      if (S.Payload[0] || S.Payload[1])
        std::fprintf(Out, ",\"payload\":[%llu,%llu]",
                     static_cast<unsigned long long>(S.Payload[0]),
                     static_cast<unsigned long long>(S.Payload[1]));
      if (S.Alloc >= 0) {
        const AllocAggregate &Agg =
            Log.aggregates()[static_cast<size_t>(S.Alloc)];
        std::fprintf(Out, ",\"alloc\":{");
        static const char *const Kinds[] = {"malloc_small", "malloc_large",
                                            "free"};
        for (size_t K = 0; K < NumAllocKinds; ++K) {
          std::fprintf(Out, "%s\"%s\":{\"calls\":%llu,\"ns\":%llu,\"log2\":[",
                       K ? "," : "", Kinds[K],
                       static_cast<unsigned long long>(Agg.Calls[K]),
                       static_cast<unsigned long long>(Agg.Nanos[K]));
          for (size_t B = 0; B < 32; ++B)
            std::fprintf(Out, "%s%u", B ? "," : "", Agg.Log2Histogram[K][B]);
          std::fprintf(Out, "]}");
        }
        std::fprintf(Out, "}");
      }
      std::fprintf(Out, "}\n");
    }
  }
  return std::fclose(Out) == 0;
}

void *TimedAllocator::allocate(size_t Size) {
  const uint64_t Start = nowNs();
  void *Ptr = Inner.allocate(Size);
  Log.noteAlloc(Size < LargeAllocBytes ? AllocKind::SmallMalloc
                                       : AllocKind::LargeMalloc,
                nowNs() - Start);
  return Ptr;
}

void TimedAllocator::deallocate(void *Ptr) {
  const uint64_t Start = nowNs();
  Inner.deallocate(Ptr);
  Log.noteAlloc(AllocKind::Free, nowNs() - Start);
}

WorkloadResult TimedWorkload::run(AllocatorHandle &Handle,
                                  uint64_t InputSeed) const {
  SpanLog *Log = threadLog();
  if (!Log)
    return Inner.run(Handle, InputSeed);
  ScopedSpan Span("workload.run");
  TimedAllocator Timed(Handle.allocator(), *Log);
  AllocatorHandle TimedHandle(Timed, Handle.context(), Handle.heap());
  return Inner.run(TimedHandle, InputSeed);
}

bool TimedTransport::exchange(
    const std::vector<std::vector<uint8_t>> &Requests,
    std::vector<std::vector<uint8_t>> &ResponsesOut) {
  ScopedSpan Span("exchange.wire");
  const bool Ok = Inner.exchange(Requests, ResponsesOut);
  uint64_t Sent = 0, Received = 0;
  for (const std::vector<uint8_t> &Frame : Requests)
    Sent += Frame.size();
  for (const std::vector<uint8_t> &Frame : ResponsesOut)
    Received += Frame.size();
  Span.setPayload(Sent, Received);
  return Ok;
}
