//===- exchange/PatchServer.h - Evidence ingestion service -----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The patch server: a DiagnosisPipeline behind the wire protocol.  It is
/// the networked form of §6.4's collaborative correction — many
/// processes observe errors independently, ship their evidence here, and
/// every client pulls back one merged, versioned patch set covering all
/// observed errors.  A state directory (StateStore) makes its restarts
/// lossless; a client that cannot reach it keeps running under the
/// patches it already holds.
///
/// The server core is transport-agnostic: handleFrame maps one request
/// frame to one response frame.  The in-process loopback transport calls
/// it directly (deterministic; what tests and the collaborative bench
/// use); SocketPatchServer pumps it from an accept/worker loop.  All
/// entry points are thread-safe — concurrent connections serialize on
/// the pipeline mutex, which is the merge order independence the
/// PatchMerge tests already pin (max-merge commutes).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_PATCHSERVER_H
#define EXTERMINATOR_EXCHANGE_PATCHSERVER_H

#include "exchange/WireProtocol.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>

namespace exterminator {

class StateStore;

/// Ingestion counters (observability for the bench and the CLI).
struct PatchServerStats {
  uint64_t ImagesIngested = 0;
  uint64_t SummariesIngested = 0;
  uint64_t FetchesServed = 0;
  uint64_t FetchesUnmodified = 0;
  uint64_t FramesRejected = 0;
  /// Durable-state counters (zero unless a StateStore is attached).
  uint64_t JournalAppends = 0;
  uint64_t SnapshotsWritten = 0;
  uint64_t PersistFailures = 0;
  uint64_t DuplicatesSuppressed = 0; ///< summary tokens seen twice
  /// Observability counters.
  uint64_t StatsServed = 0; ///< Stats frames answered
};

/// Wraps a DiagnosisPipeline behind the framed wire protocol.
class PatchServer {
public:
  explicit PatchServer(const DiagnosisConfig &Config = {});

  /// Seeds the pipeline's active set (resuming a server from a patch
  /// file on disk).  With a state store attached, a seed that changes
  /// the active set is journaled like any other submission — so attach
  /// first, then seed: the seed max-merges *into* the restored state
  /// (restored state is the base and keeps its epoch; the seed only
  /// ever adds or widens patches).
  void seedPatches(const PatchSet &Initial);

  /// Attaches durable state: restores \p Store's snapshot, replays its
  /// journal (verifying each record's epoch — a mismatch means the
  /// journal does not belong to the snapshot), writes a fresh compacting
  /// snapshot, and from then on journals every accepted state-changing
  /// submission, re-snapshotting every \p SnapshotInterval journal
  /// appends and on persistNow().  Returns false (serving from it would
  /// lose or fabricate history) on corrupt state, a replay epoch
  /// conflict, or snapshot I/O failure; \p ErrorOut names the reason.
  ///
  /// Restart semantics: a recovered server keeps the epoch it crashed
  /// with, but this process's instance id is fresh — so a client holding
  /// the pre-crash (instance, epoch) re-fetches exactly once and is
  /// current again.
  bool attachState(StateStore &Store, unsigned SnapshotInterval = 64,
                   std::string *ErrorOut = nullptr);

  /// Snapshots the current state to the attached store (shutdown path,
  /// and the every-N compaction); true when no store is attached or the
  /// snapshot succeeded.  Serialization and the snapshot write happen
  /// under the server mutex — the compaction pause that buys the
  /// journal its bounded replay; per-submission journal appends never
  /// pay it.
  bool persistNow();

  /// The full diagnostic state (what snapshots persist): epoch, active
  /// set, cumulative trials and Bayes sums.  Two servers with equal
  /// serializeState() bytes are bit-identical diagnostically.
  std::vector<uint8_t> serializeState() const;

  /// Handles one request frame, producing exactly one response frame
  /// (an ErrorReply for anything malformed — adversarial input never
  /// crashes, it answers).  Returns false when the request could not be
  /// parsed as a frame at all, in which case a byte-stream transport
  /// cannot resynchronize and should close the connection after sending
  /// the response.
  bool handleFrame(const uint8_t *Request, size_t Size,
                   std::vector<uint8_t> &ResponseOut);
  bool handleFrame(const std::vector<uint8_t> &Request,
                   std::vector<uint8_t> &ResponseOut) {
    return handleFrame(Request.data(), Request.size(), ResponseOut);
  }

  /// A Shutdown frame was accepted; socket front-ends stop serving.
  bool shutdownRequested() const {
    return ShutdownFlag.load(std::memory_order_acquire);
  }

  /// Current merged patch set + epoch (what PatchesReply serves).
  PatchSnapshot snapshot() const;

  /// Runs accumulated in the cumulative (§5) state — observability for
  /// the CLI's restore banner.
  uint64_t cumulativeRuns() const;

  PatchServerStats stats() const;

  /// Attaches the observability plane: registers a collector exporting
  /// this server's counters and its pipeline's diagnostic metrics, arms
  /// the xterm_summary_ingest_seconds histogram (the §5 fold and
  /// classification of every applied summary), and makes Stats
  /// requests answer with \p Registry's full snapshot (every subsystem
  /// that attached to it) instead of only this server's own samples.
  /// Attach before serving; this server must outlive the registry's
  /// last snapshot.
  void attachMetrics(MetricsRegistry &Registry);

  /// Appends this server's samples (ingestion counters plus the
  /// pipeline's collectMetrics) — what the registry collector pulls,
  /// and what a Stats request falls back to when no registry is
  /// attached.
  void collectMetrics(std::vector<MetricSample> &Out) const;

  /// Random identity of this server process.  Epochs are only
  /// comparable within one instance; clients key staleness on the
  /// (instance, epoch) pair so a restarted server (epoch back at 0)
  /// can never collide with a cached epoch.
  uint64_t instance() const { return Instance; }

private:
  std::vector<uint8_t> dispatch(const Frame &Request);

  /// Drains queued journal records to the attached store and
  /// re-snapshots when the interval is due.  Called with no locks held
  /// (the journal IO must never stall fetches waiting on Mutex).
  void persistQueued();

  /// Pipeline.submitSummary, timed into SummaryIngestLatency when a
  /// registry is attached.  Call under Mutex.
  CumulativeDiagnosis ingestSummary(const RunSummary &Summary,
                                    unsigned CleanStreak);

  /// Records \p Token in the duplicate-suppression window; returns
  /// false when it was already there (a retry to suppress).  Token 0 is
  /// always fresh.  Call under Mutex.
  bool noteToken(uint64_t Token);

  mutable std::mutex Mutex;
  DiagnosisPipeline Pipeline;
  PatchServerStats Stats;
  uint64_t Instance;
  std::atomic<bool> ShutdownFlag{false};
  /// Durable state (optional; guarded by Mutex for attach-time writes,
  /// internally synchronized for enqueue/drain).
  StateStore *Store = nullptr;
  unsigned SnapshotInterval = 64;
  /// Observability registry (optional; set before serving).  Stats
  /// requests snapshot it *outside* Mutex — collectors take their own
  /// subsystem locks, this server's included.
  MetricsRegistry *Metrics = nullptr;
  /// No-op handle until attachMetrics.
  MetricsRegistry::Histogram SummaryIngestLatency;
  /// Two-generation token window: lookups hit both sets, inserts go to
  /// Current; when Current fills, Previous is dropped and the sets
  /// rotate.  Bounds memory while keeping any token for at least
  /// TokenWindow further submissions: a duplicate is a frame that a
  /// transport re-sent after losing the reply, which arrives long
  /// before 4096 other submissions do.
  static constexpr size_t TokenWindow = 4096;
  std::unordered_set<uint64_t> TokensCurrent, TokensPrevious;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_PATCHSERVER_H
