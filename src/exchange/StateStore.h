//===- exchange/StateStore.h - Durable exchange state ----------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable state for the patch server: what makes restarts lossless.
/// §6.4's community of users only pays off if accumulated evidence
/// survives the server process — the §5.1 Bayesian classifier needs the
/// full trial history, not just the patches it has derived so far.
///
/// A state directory holds a ring of snapshots plus one journal:
///
///  * `snapshot-<generation>.xst` ("XST1") — checksummed snapshots of
///    the full diagnostic state (DiagnosisPipeline::serializeState:
///    epoch, active patch set, cumulative isolator with its running
///    Bayes sums), one file per generation, the last K generations
///    retained (setSnapshotKeep; default 2).  Each is written through
///    the crash-safe writeFileBytes (temp file + fsync + rename), so a
///    crash mid-write leaves prior snapshots intact; keeping more than
///    one means even external corruption of the newest file (the disk,
///    not this class) degrades to the previous generation instead of an
///    unusable directory.  The state blob is stored as a codec envelope
///    (BlockCodec.h), so a snapshot is compressed whenever that shrinks
///    it.
///
///  * `journal.xsj` ("XSJ1") — an append-only journal of the accepted
///    state-changing submissions since the newest snapshot.  Each
///    record is length-prefixed and checksummed and carries the epoch
///    the server held after applying it; replaying the journal on top
///    of its snapshot reproduces the exact pre-crash state, and a torn
///    tail (the record a crash interrupted) is detected and skipped.
///    Summary records carry the submission's dedup token.  A record
///    whose encoding crosses a size threshold is stored as a marker
///    byte plus its compressed envelope, with the declared expansion
///    bounded before any allocation.
///
/// Each file carries one format version (snapshot 2, journal 3).  Any
/// other version is refused, never half-read: a snapshot with an
/// unknown version fails validation like a corrupt one, and a journal
/// with one makes the whole directory Corrupt.
///
/// The generation counter pairs the journal with its snapshot: a
/// snapshot write bumps it and resets the journal, so a crash between
/// those steps leaves a stale-generation journal that load() ignores
/// (its records are already inside the snapshot).  load() restores the
/// newest snapshot that validates; the journal replays only on top of
/// its exact-generation snapshot — when that snapshot is the corrupt
/// one being skipped, the journal is sacrificed with it (falling back a
/// generation is lossy by definition).  A journal generation ahead of
/// *every* snapshot present can only mean the directory mixes files
/// from different servers — that stays Corrupt rather than a guess.
///
/// Write path: callers enqueue() encoded records while holding whatever
/// lock orders their application (the patch server's pipeline mutex —
/// enqueue is a cheap queue push, so the lock is never held across file
/// IO), then drain() outside that lock to append and fsync.  drain()
/// returns only once every record enqueued before the call is on disk,
/// so a server that drains before replying has made that reply durable.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_STATESTORE_H
#define EXTERMINATOR_EXCHANGE_STATESTORE_H

#include "cumulative/RunSummary.h"
#include "observe/MetricsRegistry.h"
#include "patch/RuntimePatch.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace exterminator {

/// Manages one durable-state directory (see file comment).
class StateStore {
public:
  /// Opens (creating if needed) the state directory at \p Directory.
  explicit StateStore(const std::string &Directory);
  ~StateStore();

  StateStore(const StateStore &) = delete;
  StateStore &operator=(const StateStore &) = delete;

  /// One journaled submission.
  struct JournalRecord {
    enum Kind : uint8_t {
      /// A patch-set delta max-merged into the active set (an image
      /// submission's isolation result, or a seed file).
      PatchesKind = 1,
      /// One accepted run summary (changes the cumulative trial state
      /// even when no patch is derived, so every summary is journaled).
      SummaryKind = 2,
    };
    uint8_t RecordKind = PatchesKind;
    /// The server's epoch after applying this record; replay verifies
    /// it so a journal can never be applied against the wrong snapshot.
    uint64_t EpochAfter = 0;
    PatchSet PatchDelta;      ///< PatchesKind
    RunSummary Summary;       ///< SummaryKind
    unsigned CleanStreak = 0; ///< SummaryKind
    /// SummaryKind: the submission's dedup token, so a replayed server
    /// still suppresses a client retry that straddles its restart.
    uint64_t Token = 0;
  };

  enum class LoadResult {
    Fresh,    ///< no prior state (empty or brand-new directory)
    Restored, ///< snapshot (and any replayable journal records) loaded
    Corrupt,  ///< state present but unusable; do not serve from it
  };

  /// The snapshot format version every snapshot file carries.
  static constexpr uint8_t SnapshotVersion = 2;

  /// One decoded snapshot file (see parseSnapshot).
  struct SnapshotContents {
    uint64_t Generation = 0;
    /// The pipeline-state blob (DiagnosisPipeline::serializeState).
    std::vector<uint8_t> State;
    /// Bytes the blob occupies in the file (its codec envelope).
    uint64_t StoredStateBytes = 0;
  };

  /// Validates and decodes the bytes of one snapshot file: checksum
  /// over everything, then magic, version, generation, and the state
  /// blob's codec envelope.  Returns false on any mismatch, including a
  /// version other than SnapshotVersion.  The one snapshot parser: load()
  /// and `xtermtool inspect` both read through it.
  static bool parseSnapshot(const std::vector<uint8_t> &Bytes,
                            SnapshotContents &Out);

  /// Reads the directory's state: on Restored, \p SnapshotStateOut holds
  /// the pipeline-state blob of the newest snapshot that validates and
  /// \p RecordsOut the journal records to replay on top of it, in
  /// append order.  A torn journal tail is skipped (everything before
  /// it is returned); a journal whose generation does not match the
  /// chosen snapshot is ignored wholesale (stale, or paired with a
  /// corrupt head snapshot that was skipped).  Corrupt means nothing in
  /// the directory is servable: every snapshot fails validation, or a
  /// journal claims a generation no snapshot file accounts for.
  LoadResult load(std::vector<uint8_t> &SnapshotStateOut,
                  std::vector<JournalRecord> &RecordsOut);

  /// Retention: how many generation-numbered snapshots writeSnapshot
  /// leaves on disk (clamped to >= 1; default 2 — the head plus one
  /// fallback).  Call before attaching.
  void setSnapshotKeep(unsigned Keep) { SnapshotKeep = Keep ? Keep : 1; }

  /// The on-disk snapshot files, newest generation first (observability
  /// for the retention tests and the CLI).
  std::vector<std::string> snapshotFiles() const;

  /// Writes \p PipelineState as the new snapshot (crash-safe replace),
  /// bumps the generation, and resets the journal — including any
  /// enqueued-but-undrained records, whose effects the caller's state
  /// already contains.  Returns false on I/O failure (the previous
  /// snapshot then remains authoritative).
  bool writeSnapshot(const std::vector<uint8_t> &PipelineState);

  /// Queues one record for the journal.  Cheap (encode + push): call it
  /// while holding the lock that orders record application, so the
  /// journal order always matches the apply order.
  void enqueue(const JournalRecord &Record);

  /// Appends every queued record to the journal and fsyncs.  Call
  /// outside the application lock — this is the file IO.  On return,
  /// all records enqueued before the call are durable (possibly written
  /// by a concurrent drainer).  \p AppendedOut is how many this call
  /// wrote.  Returns false on I/O failure.
  bool drain(size_t &AppendedOut);

  /// Records appended since the last snapshot (the snapshot-interval
  /// trigger).
  uint64_t appendedSinceSnapshot() const;

  /// Publishes journal IO latency into \p Registry as the
  /// xterm_journal_append_seconds (per-drain batch write) and
  /// xterm_journal_fsync_seconds (per-drain fflush+fsync) histograms.
  /// Push-model: the fsync these time dwarfs the atomic bucket bumps.
  /// Attach before serving.
  void attachMetrics(MetricsRegistry &Registry);

  const std::string &directory() const { return Dir; }
  /// Path of the newest on-disk snapshot (the head of the ring); empty
  /// when the directory holds none.
  std::string snapshotPath() const;
  std::string journalPath() const;

private:
  bool openJournalForAppend();
  void closeJournal();
  std::string rotatedSnapshotPath(uint64_t Gen) const;
  void pruneSnapshots(uint64_t NewestGen);

  std::string Dir;
  /// Snapshot/journal pairing counter; 0 until the first snapshot.
  uint64_t Generation = 0;
  unsigned SnapshotKeep = 2;

  std::mutex QueueMutex;
  std::vector<std::vector<uint8_t>> Queue;

  /// Serializes journal file access (appends and resets).  Lock order:
  /// callers may hold their application lock when enqueueing (which
  /// takes only QueueMutex) but must not hold JournalMutex while
  /// acquiring it.
  std::mutex JournalMutex;
  std::FILE *Journal = nullptr;
  std::atomic<uint64_t> Appended{0};
  bool JournalFailed = false;

  /// Observability (no-op handles until attachMetrics).
  MetricsRegistry::Histogram AppendLatency;
  MetricsRegistry::Histogram FsyncLatency;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_STATESTORE_H
