//===- observe/MetricsRegistry.h - Process-wide metrics plane ---*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live observability plane's measurement half: a registry of
/// counters, gauges, and fixed-bucket latency histograms that every
/// subsystem publishes into.
///
/// Two publication models coexist, chosen by call-site cost budget:
///
///  - Push handles (Counter / Gauge / Histogram): one relaxed atomic op
///    per observation.  Used only where the surrounding work dwarfs the
///    atomic — journal fwrite/fsync latency, §5 summary ingest.  Handles
///    are null-safe: a default-constructed handle ignores observations,
///    which is how subsystems run un-instrumented at zero cost when no
///    registry is attached (and how the stats_overhead bench gets its
///    no-op comparator).
///
///  - Pull collectors: callbacks that read a subsystem's existing stats
///    struct (PatchServerStats, AllocatorStats, the Bayes accumulators)
///    only at snapshot time.  The hot path pays
///    nothing; the scrape pays one mutex acquisition per subsystem.
///
/// snapshot() flattens both into a point-in-time MetricsSnapshot.
/// renderText() serializes a snapshot in the Prometheus text-exposition
/// idiom (`name{label="v"} value` with `# TYPE` comments) — the format
/// `xtermtool stats` prints and CI greps.  Histograms flatten into
/// `_bucket{le="..."}` / `_sum` / `_count` series plus interpolated
/// p50/p99 `{quantile="..."}` gauges.  The grammar is documented in
/// ROADMAP.md ("Observability plane").
///
/// Locking: the registry mutex guards registration lists and the
/// collector walk; push handles never take it.  Collectors run with the
/// registry mutex held and therefore must not call back into the
/// registry, and any subsystem lock a collector takes must never be
/// held while registering metrics or snapshotting.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_OBSERVE_METRICSREGISTRY_H
#define EXTERMINATOR_OBSERVE_METRICSREGISTRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace exterminator {

class Allocator;

/// Whether a sample is monotone (counter) or instantaneous (gauge) —
/// carried on the Stats wire reply so `xtermtool watch` can tell rates
/// from levels.
enum class SampleKind : uint8_t {
  Counter = 0,
  Gauge = 1,
};

/// One flattened metric observation.
struct MetricSample {
  std::string Name;
  /// Rendered label body without the braces, e.g.
  /// `kind="overflow",site="0x00000abc"`; empty for unlabelled metrics.
  /// Compose pairs with MetricsRegistry::label so values are escaped.
  std::string Labels;
  double Value = 0.0;
  SampleKind Kind = SampleKind::Gauge;
};

/// A point-in-time flattening of every registered instrument and
/// collector output.
struct MetricsSnapshot {
  std::vector<MetricSample> Samples;

  /// First sample matching \p Name (and \p Labels when non-empty);
  /// nullptr when absent.
  const MetricSample *find(std::string_view Name,
                           std::string_view Labels = {}) const;

  /// Max over every sample named \p Name — how alert rules aggregate a
  /// labelled family down to one value.  Empty when the name is absent.
  std::optional<double> maxValue(std::string_view Name) const;
};

/// Histogram bucket upper bounds in seconds: a 1-2-5 decade ladder from
/// 1 microsecond to 10 seconds, plus an implicit +Inf overflow bucket.
inline constexpr double HistogramBucketBounds[] = {
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
    5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,  10.0};
inline constexpr size_t NumHistogramBuckets =
    sizeof(HistogramBucketBounds) / sizeof(HistogramBucketBounds[0]);

/// The registry.  Thread-safe; instruments live as long as the registry
/// (handles hold raw pointers into it).
class MetricsRegistry {
  struct CounterCell {
    std::string Name, Labels;
    std::atomic<uint64_t> Value{0};
  };
  struct GaugeCell {
    std::string Name, Labels;
    std::atomic<double> Value{0.0};
  };
  struct HistogramCell {
    std::string Name, Labels;
    /// Per-bucket observation counts; the final slot is the +Inf
    /// overflow bucket.
    std::array<std::atomic<uint64_t>, NumHistogramBuckets + 1> Counts{};
    /// Total observed time in nanoseconds (u64 keeps the hot-path add a
    /// plain integer fetch_add).
    std::atomic<uint64_t> SumNanos{0};
  };

public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Push handle for a monotone counter.  Default-constructed handles
  /// drop observations.
  class Counter {
  public:
    Counter() = default;
    void add(uint64_t N) {
      if (Cell)
        Cell->Value.fetch_add(N, std::memory_order_relaxed);
    }
    void increment() { add(1); }
    explicit operator bool() const { return Cell != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(CounterCell *Cell) : Cell(Cell) {}
    CounterCell *Cell = nullptr;
  };

  /// Push handle for an instantaneous value.
  class Gauge {
  public:
    Gauge() = default;
    void set(double V) {
      if (Cell)
        Cell->Value.store(V, std::memory_order_relaxed);
    }
    explicit operator bool() const { return Cell != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(GaugeCell *Cell) : Cell(Cell) {}
    GaugeCell *Cell = nullptr;
  };

  /// Push handle for a latency histogram; observations are in seconds.
  class Histogram {
  public:
    Histogram() = default;
    void observe(double Seconds);
    explicit operator bool() const { return Cell != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Histogram(HistogramCell *Cell) : Cell(Cell) {}
    HistogramCell *Cell = nullptr;
  };

  /// Registers (or re-finds — same name and labels return the same
  /// cell) an instrument and hands back its push handle.
  Counter counter(const std::string &Name, const std::string &Labels = {});
  Gauge gauge(const std::string &Name, const std::string &Labels = {});
  Histogram histogram(const std::string &Name, const std::string &Labels = {});

  /// A pull collector: reads subsystem state and appends samples.  Runs
  /// with the registry mutex held — must not call back into the
  /// registry.
  using Collector = std::function<void(std::vector<MetricSample> &)>;
  void addCollector(Collector Fn);

  /// Point-in-time flattening: instruments in registration order, then
  /// collector output in collector registration order.
  MetricsSnapshot snapshot() const;

  /// renderText(snapshot()).
  std::string renderText() const;

  /// Prometheus-style text exposition of \p Snap (see file comment).
  static std::string renderText(const MetricsSnapshot &Snap);

  /// Composes a `key="value"` label pair, escaping backslash, quote and
  /// newline in \p Value per the text-exposition rules.  Join multiple
  /// pairs with ",".
  static std::string label(std::string_view Key, std::string_view Value);

  /// Collector-side helpers for appending flat samples.
  static void addCounter(std::vector<MetricSample> &Out, std::string Name,
                         std::string Labels, double Value);
  static void addGauge(std::vector<MetricSample> &Out, std::string Name,
                       std::string Labels, double Value);

private:
  void flattenHistogram(const HistogramCell &Cell,
                        std::vector<MetricSample> &Out) const;

  /// Guards the cell deques and Collectors; never taken by handles.
  mutable std::mutex Mutex;
  // Deques: handles keep raw pointers, so cell addresses must survive
  // later registrations.
  std::deque<CounterCell> Counters;
  std::deque<GaugeCell> Gauges;
  std::deque<HistogramCell> Histograms;
  std::vector<Collector> Collectors;
};

/// Registers a pull collector exporting \p Heap's AllocatorStats as
/// xterm_alloc_* counters labelled heap="<Label>".  \p Heap must
/// outlive the registry's last snapshot.
void registerAllocatorMetrics(MetricsRegistry &Registry, const Allocator &Heap,
                              std::string Label);

class FaultInjector;

/// Registers a pull collector exporting \p Injector's FaultInjectorStats
/// as xterm_inject_* counters labelled heap="<Label>" (PR 9), so
/// injected-fault counts are scrapeable next to the heap stats they
/// perturb.  \p Injector must outlive the registry's last snapshot.
void registerInjectorMetrics(MetricsRegistry &Registry,
                             const FaultInjector &Injector, std::string Label);

class DieHardHeap;

/// Registers a pull collector exporting \p Heap's page-retirement state
/// (PR 9): xterm_retired_pages / xterm_retired_slots gauges labelled
/// heap="<Label>".  \p Heap must outlive the registry's last snapshot.
void registerRetirementMetrics(MetricsRegistry &Registry,
                               const DieHardHeap &Heap, std::string Label);

/// Registers a pull collector exporting the process-wide codec counters
/// (codec/BlockCodec.h) as xterm_codec_* samples (PR 10): compressed
/// bytes in/out, decode expansions, stored-raw blocks, and rejected
/// (bomb/corrupt) blocks — what lets an operator see both the
/// compression ratio the exchange is getting and whether anyone is feeding
/// it garbage.
void registerCodecMetrics(MetricsRegistry &Registry);

} // namespace exterminator

#endif // EXTERMINATOR_OBSERVE_METRICSREGISTRY_H
