//===- perfbench/src/Trace.h - Spans recorded around library calls -*- C++ -*-===//
//
// Part of the Exterminator reproduction's end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: spans recorded *around* calls into the
/// library's layers, from the benchmark's own code (the library itself
/// is not instrumented).
///
/// A span holds a name, start and end, its parent span, and the id of the
/// operation it belongs to (one deploy run pair, one triage bug, one
/// community client run).  Spans stay in memory, one log per thread, and
/// are written out when the run ends.  Allocator calls are too many to
/// record one span each: the timing decorator folds them into the
/// enclosing span's aggregate (count, total time, log2 histogram) and
/// keeps a strided sample of raw latencies for percentiles.
///
/// Tracing is per thread: a thread records only while a SpanLog is
/// installed for it (ThreadLogScope).  With none installed every hook is
/// a null-pointer test, and the decorators are not inserted at all.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "alloc/Allocator.h"
#include "exchange/Transport.h"
#include "workload/Workload.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Allocator calls into the correcting stack, split at 4 KiB.
enum class AllocKind : uint8_t { SmallMalloc = 0, LargeMalloc = 1, Free = 2 };
inline constexpr size_t NumAllocKinds = 3;
inline constexpr size_t LargeAllocBytes = 4096;

/// Allocator calls made while one span was innermost.
struct AllocAggregate {
  std::array<uint64_t, NumAllocKinds> Calls{};
  std::array<uint64_t, NumAllocKinds> Nanos{};
  /// Bucket B counts calls with floor(log2(ns)) == B.
  std::array<std::array<uint32_t, 32>, NumAllocKinds> Log2Histogram{};

  uint64_t totalNanos() const { return Nanos[0] + Nanos[1] + Nanos[2]; }
};

struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Index of the parent span in the same thread's log; -1 for a root.
  int32_t Parent = -1;
  /// Index into the log's aggregates; -1 when no allocator call landed.
  int32_t Alloc = -1;
  uint64_t Op = 0;
  /// Span-specific counts (wire spans: request and reply bytes).
  uint64_t Payload[2] = {0, 0};

  uint64_t nanos() const { return EndNs - StartNs; }
};

/// One thread's spans.
class SpanLog {
public:
  /// Opens a span under the innermost open one; returns its index.
  int32_t open(const char *Name);
  void close(int32_t Id);
  /// Opens a root span for operation \p Op; later spans inherit it.
  int32_t openOperation(const char *Name, uint64_t Op);

  /// Folds one allocator call into the innermost open span.
  void noteAlloc(AllocKind Kind, uint64_t Nanos);

  Span &span(int32_t Id) { return Spans[static_cast<size_t>(Id)]; }
  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<AllocAggregate> &aggregates() const { return Aggregates; }
  /// Every SampleStride-th allocator latency of each kind.
  const std::vector<uint32_t> &samples(AllocKind Kind) const {
    return Samples[static_cast<size_t>(Kind)];
  }

  static constexpr uint64_t SampleStride = 8;

  /// Appends the log to \p Out as text lines, one per span, allocator
  /// aggregate and sample list, for a log in another process to read.
  void writeTo(std::string &Out) const;
  /// Appends the spans, aggregates and samples \p Lines hold (writeTo's
  /// lines) to this log; false on a malformed line.
  bool readFrom(std::span<const std::string> Lines);

private:
  std::vector<Span> Spans;
  std::vector<AllocAggregate> Aggregates;
  std::vector<int32_t> Open;
  uint64_t CurrentOp = 0;
  std::array<std::vector<uint32_t>, NumAllocKinds> Samples;
  std::array<uint64_t, NumAllocKinds> SampleTicks{};
};

/// The SpanLog installed for the calling thread, or null.
SpanLog *threadLog();

/// Installs \p Log for the calling thread for the scope's lifetime.
class ThreadLogScope {
public:
  explicit ThreadLogScope(SpanLog *Log);
  ~ThreadLogScope();
  ThreadLogScope(const ThreadLogScope &) = delete;
  ThreadLogScope &operator=(const ThreadLogScope &) = delete;

private:
  SpanLog *Previous;
};

/// Owns every thread's log for one traced pass.
class Tracer {
public:
  /// A fresh log for one thread (stable address for the pass).
  SpanLog &newLog();
  const std::vector<std::unique_ptr<SpanLog>> &logs() const { return Logs; }
  /// Writes every span as one JSON object per line; false on I/O error.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::mutex Mutex;
  std::vector<std::unique_ptr<SpanLog>> Logs;
};

/// A span around one scope on the calling thread; a no-op when the
/// thread is not tracing.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name)
      : Log(threadLog()), Id(Log ? Log->open(Name) : -1) {}
  ScopedSpan(const char *Name, uint64_t Op)
      : Log(threadLog()), Id(Log ? Log->openOperation(Name, Op) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void setPayload(uint64_t First, uint64_t Second) {
    if (Log) {
      Log->span(Id).Payload[0] = First;
      Log->span(Id).Payload[1] = Second;
    }
  }

private:
  SpanLog *Log;
  int32_t Id;
};

/// Times every allocate/deallocate into \p Inner.
class TimedAllocator : public exterminator::Allocator {
public:
  TimedAllocator(exterminator::Allocator &Inner, SpanLog &Log)
      : Inner(Inner), Log(Log) {}

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  const char *name() const override { return Inner.name(); }
  const exterminator::AllocatorStats &stats() const override {
    return Inner.stats();
  }

private:
  exterminator::Allocator &Inner;
  SpanLog &Log;
};

/// A program run under a "workload.run" span with its allocator calls
/// timed; forwards untouched when the thread is not tracing.
class TimedWorkload : public exterminator::Workload {
public:
  explicit TimedWorkload(const exterminator::Workload &Inner)
      : Inner(Inner) {}

  const char *name() const override { return Inner.name(); }
  exterminator::WorkloadResult run(exterminator::AllocatorHandle &Handle,
                                   uint64_t InputSeed) const override;

private:
  const exterminator::Workload &Inner;
};

/// Times each transport exchange under an "exchange.wire" span carrying
/// its request and reply byte counts.
class TimedTransport : public exterminator::ClientTransport {
public:
  explicit TimedTransport(exterminator::ClientTransport &Inner)
      : Inner(Inner) {}

  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override;
  std::string lastError() const override { return Inner.lastError(); }

private:
  exterminator::ClientTransport &Inner;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
