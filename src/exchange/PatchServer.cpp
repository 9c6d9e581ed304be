//===- exchange/PatchServer.cpp - Evidence ingestion service ----------------===//

#include "exchange/PatchServer.h"

#include "exchange/StateStore.h"

#include <chrono>
#include <random>

using namespace exterminator;

/// Nonzero random instance id; entropy quality is irrelevant, only
/// cross-restart collision resistance (see PatchServer::instance).
static uint64_t randomInstanceId() {
  std::random_device Device;
  uint64_t Id = (uint64_t(Device()) << 32) | Device();
  return Id ? Id : 1;
}

PatchServer::PatchServer(const DiagnosisConfig &Config)
    : Pipeline(Config), Instance(randomInstanceId()) {}

bool PatchServer::noteToken(uint64_t Token) {
  if (Token == 0)
    return true;
  if (TokensCurrent.count(Token) || TokensPrevious.count(Token))
    return false;
  if (TokensCurrent.size() >= TokenWindow) {
    TokensPrevious = std::move(TokensCurrent);
    TokensCurrent.clear();
  }
  TokensCurrent.insert(Token);
  return true;
}

CumulativeDiagnosis PatchServer::ingestSummary(const RunSummary &Summary,
                                               unsigned CleanStreak) {
  // Un-instrumented servers must not pay even the clock reads.
  if (!SummaryIngestLatency)
    return Pipeline.submitSummary(Summary, CleanStreak);
  const auto Start = std::chrono::steady_clock::now();
  CumulativeDiagnosis Diagnosis = Pipeline.submitSummary(Summary, CleanStreak);
  SummaryIngestLatency.observe(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - Start)
                                   .count());
  return Diagnosis;
}

void PatchServer::seedPatches(const PatchSet &Initial) {
  bool Changed = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    const uint64_t Before = Pipeline.epoch();
    Pipeline.seedPatches(Initial);
    Changed = Pipeline.epoch() != Before;
    if (Store && Changed) {
      StateStore::JournalRecord Record;
      Record.RecordKind = StateStore::JournalRecord::PatchesKind;
      Record.EpochAfter = Pipeline.epoch();
      Record.PatchDelta = Initial;
      Store->enqueue(Record);
    }
  }
  if (Changed && Store)
    persistQueued();
}

bool PatchServer::attachState(StateStore &NewStore, unsigned Interval,
                              std::string *ErrorOut) {
  auto Fail = [&](const char *Reason) {
    if (ErrorOut)
      *ErrorOut = Reason;
    return false;
  };
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<uint8_t> State;
  std::vector<StateStore::JournalRecord> Records;
  switch (NewStore.load(State, Records)) {
  case StateStore::LoadResult::Corrupt:
    return Fail("state directory is corrupt (truncated snapshot, or a "
                "journal that does not pair with it)");
  case StateStore::LoadResult::Fresh:
    break;
  case StateStore::LoadResult::Restored: {
    // Restore and replay into a scratch pipeline first: a journal that
    // conflicts partway through must not leave the *serving* pipeline
    // holding a partially replayed foreign history.
    DiagnosisPipeline Scratch(Pipeline.config());
    if (!Scratch.restoreState(State))
      return Fail("snapshot payload does not decode");
    for (const StateStore::JournalRecord &Record : Records) {
      // Replay is the same code path live ingestion took, so the
      // rebuilt state is bit-identical to the pre-crash server's.
      if (Record.RecordKind == StateStore::JournalRecord::PatchesKind)
        Scratch.seedPatches(Record.PatchDelta);
      else
        Scratch.submitSummary(Record.Summary, Record.CleanStreak);
      if (Scratch.epoch() != Record.EpochAfter)
        return Fail("conflicting epochs: journal records do not replay "
                    "against this snapshot");
    }
    if (!Pipeline.restoreState(Scratch.serializeState()))
      return Fail("snapshot payload does not decode");
    // Rebuild the duplicate-suppression window from the replayed
    // records: a client retrying across the restart must still be
    // suppressed (tokens from before the snapshot are gone, but so is
    // any plausible retry window).
    for (const StateStore::JournalRecord &Record : Records)
      if (Record.RecordKind == StateStore::JournalRecord::SummaryKind)
        noteToken(Record.Token);
    break;
  }
  }
  // Compact everything replayed into one fresh snapshot; this also
  // resets the journal, so appends never follow a torn tail.
  if (!NewStore.writeSnapshot(Pipeline.serializeState()))
    return Fail("cannot write snapshot to state directory");
  ++Stats.SnapshotsWritten;
  Store = &NewStore;
  SnapshotInterval = Interval ? Interval : 1;
  return true;
}

bool PatchServer::persistNow() {
  if (!Store)
    return true;
  std::lock_guard<std::mutex> Lock(Mutex);
  const bool Ok = Store->writeSnapshot(Pipeline.serializeState());
  if (Ok)
    ++Stats.SnapshotsWritten;
  else
    ++Stats.PersistFailures;
  return Ok;
}

std::vector<uint8_t> PatchServer::serializeState() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Pipeline.serializeState();
}

void PatchServer::persistQueued() {
  if (!Store)
    return;
  size_t Appended = 0;
  const bool Ok = Store->drain(Appended);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stats.JournalAppends += Appended;
    if (!Ok)
      ++Stats.PersistFailures;
  }
  // A failed drain (full disk, torn append) disables the journal; a
  // successful snapshot re-establishes full durability — the pipeline
  // state already contains every applied submission, including the
  // records the drain dropped — and reopens a fresh journal.  While the
  // disk stays broken this retries (and counts a failure) per
  // submission; the previous snapshot is never at risk.
  if (!Ok || Store->appendedSinceSnapshot() >= SnapshotInterval)
    persistNow();
}

PatchSnapshot PatchServer::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Pipeline.snapshot();
}

uint64_t PatchServer::cumulativeRuns() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Pipeline.cumulative().runCount();
}

PatchServerStats PatchServer::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

void PatchServer::attachMetrics(MetricsRegistry &Registry) {
  Metrics = &Registry;
  SummaryIngestLatency = Registry.histogram("xterm_summary_ingest_seconds");
  Registry.addCollector(
      [this](std::vector<MetricSample> &Out) { collectMetrics(Out); });
}

void PatchServer::collectMetrics(std::vector<MetricSample> &Out) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsRegistry::addCounter(Out, "xterm_ingest_images_total", {},
                              double(Stats.ImagesIngested));
  MetricsRegistry::addCounter(Out, "xterm_ingest_summaries_total", {},
                              double(Stats.SummariesIngested));
  MetricsRegistry::addCounter(Out, "xterm_fetches_served_total", {},
                              double(Stats.FetchesServed));
  MetricsRegistry::addCounter(Out, "xterm_fetches_unmodified_total", {},
                              double(Stats.FetchesUnmodified));
  MetricsRegistry::addCounter(Out, "xterm_frames_rejected_total", {},
                              double(Stats.FramesRejected));
  MetricsRegistry::addCounter(Out, "xterm_journal_appends_total", {},
                              double(Stats.JournalAppends));
  MetricsRegistry::addCounter(Out, "xterm_snapshots_written_total", {},
                              double(Stats.SnapshotsWritten));
  MetricsRegistry::addCounter(Out, "xterm_persist_failures_total", {},
                              double(Stats.PersistFailures));
  MetricsRegistry::addCounter(Out, "xterm_duplicates_suppressed_total", {},
                              double(Stats.DuplicatesSuppressed));
  MetricsRegistry::addCounter(Out, "xterm_stats_served_total", {},
                              double(Stats.StatsServed));
  Pipeline.collectMetrics(Out);
}

bool PatchServer::handleFrame(const uint8_t *Request, size_t Size,
                              std::vector<uint8_t> &ResponseOut) {
  Frame Parsed;
  size_t Consumed = 0;
  const FrameError Error = decodeFrame(Request, Size, Parsed, Consumed);
  if (Error != FrameError::None) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.FramesRejected;
    }
    ResponseOut = encodeFrame(MessageType::ErrorReply,
                              encodeErrorReply(frameErrorName(Error)));
    return false;
  }
  if (Consumed != Size) {
    // One request frame per handleFrame call; trailing bytes mean the
    // transport mis-framed (byte-stream fronts delimit by the header's
    // length field, so this only fires for hostile input).
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.FramesRejected;
    ResponseOut = encodeFrame(MessageType::ErrorReply,
                              encodeErrorReply("trailing bytes after frame"));
    return false;
  }
  ResponseOut = dispatch(Parsed);
  return true;
}

std::vector<uint8_t> PatchServer::dispatch(const Frame &Request) {
  auto Reject = [this](const char *Reason) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.FramesRejected;
    return encodeFrame(MessageType::ErrorReply, encodeErrorReply(Reason));
  };

  switch (Request.Type) {
  case MessageType::SubmitImages: {
    ImageEvidence Evidence;
    if (!decodeSubmitImages(Request.Payload, Evidence))
      return Reject("malformed image bundle");
    // Isolation is the expensive part and reads only immutable config —
    // run it unlocked so concurrent fetches and submissions aren't
    // stalled behind it; only the merge serializes.  Likewise the
    // journal: the record is *enqueued* under the lock (fixing its
    // replay order) but written to disk after release.
    const IsolationResult Result = Pipeline.isolateImages(Evidence);
    ImagesReply Reply;
    bool Changed = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      const uint64_t Before = Pipeline.epoch();
      Pipeline.absorbIsolation(Result);
      Stats.ImagesIngested +=
          Evidence.Primary.size() + Evidence.Fallback.size();
      Reply.Instance = Instance;
      Reply.Epoch = Pipeline.epoch();
      Reply.OverflowFindings = Result.Overflows.size();
      Reply.DanglingFindings = Result.Danglings.size();
      Changed = Reply.Epoch != Before;
      // An image submission's only durable effect is the patch merge, so
      // journal the derived delta — and only when it changed the set
      // (max-merge idempotence makes re-submissions no-ops).
      if (Store && Changed) {
        StateStore::JournalRecord Record;
        Record.RecordKind = StateStore::JournalRecord::PatchesKind;
        Record.EpochAfter = Reply.Epoch;
        Record.PatchDelta = Result.Patches;
        Store->enqueue(Record);
      }
    }
    if (Changed && Store)
      persistQueued();
    return encodeFrame(MessageType::SubmitImagesReply,
                       encodeImagesReply(Reply));
  }

  case MessageType::SubmitSummary: {
    RunSummary Summary;
    unsigned CleanStreak = 0;
    uint64_t Token = 0;
    if (!decodeSubmitSummary(Request.Payload, Summary, CleanStreak, Token))
      return Reject("malformed run summary");
    SummaryReply Reply;
    bool Applied = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Reply.Instance = Instance;
      Applied = noteToken(Token);
      if (Applied) {
        Reply.Diagnosis = ingestSummary(Summary, CleanStreak);
        ++Stats.SummariesIngested;
      } else {
        // A retry of a summary this server already counted:
        // acknowledge with the current state and an empty diagnosis,
        // but do not grow the trial history again — that is the
        // epoch-idempotence the duplicate tests pin.
        ++Stats.DuplicatesSuppressed;
      }
      Reply.Epoch = Pipeline.epoch();
      // Every accepted summary is journaled, epoch bump or not: it
      // grows the cumulative trial state even when no patch is derived,
      // and the Bayes history is exactly what restarts must not lose.
      if (Store && Applied) {
        StateStore::JournalRecord Record;
        Record.RecordKind = StateStore::JournalRecord::SummaryKind;
        Record.EpochAfter = Reply.Epoch;
        Record.Summary = Summary;
        Record.CleanStreak = CleanStreak;
        Record.Token = Token;
        Store->enqueue(Record);
      }
    }
    if (Applied && Store)
      persistQueued();
    return encodeFrame(MessageType::SubmitSummaryReply,
                       encodeSummaryReply(Reply));
  }

  case MessageType::FetchPatches: {
    uint64_t KnownEpoch = 0, KnownInstance = 0;
    if (!decodeFetchPatches(Request.Payload, KnownEpoch, KnownInstance))
      return Reject("malformed fetch request");
    std::lock_guard<std::mutex> Lock(Mutex);
    PatchesReply Reply;
    Reply.Instance = Instance;
    Reply.Epoch = Pipeline.epoch();
    // Staleness is the (instance, epoch) pair: a client holding another
    // instance's epoch always gets the full set.
    Reply.Modified =
        KnownInstance != Instance || KnownEpoch != Reply.Epoch;
    if (Reply.Modified)
      Reply.Patches = Pipeline.patches();
    ++Stats.FetchesServed;
    if (!Reply.Modified)
      ++Stats.FetchesUnmodified;
    return encodeFrame(MessageType::PatchesReply, encodePatchesReply(Reply));
  }

  case MessageType::Stats: {
    StatsFormat Format;
    if (!decodeStatsRequest(Request.Payload, Format))
      return Reject("malformed stats request");
    // Snapshot *outside* Mutex: collectors (this server's included)
    // take their own locks.
    MetricsSnapshot Snap;
    if (Metrics)
      Snap = Metrics->snapshot();
    else
      collectMetrics(Snap.Samples);
    StatsReply Reply;
    Reply.Format = Format;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Reply.Instance = Instance;
      Reply.Epoch = Pipeline.epoch();
      ++Stats.StatsServed;
    }
    if (Format == StatsFormat::Text)
      Reply.Text = MetricsRegistry::renderText(Snap);
    else
      Reply.Samples = std::move(Snap.Samples);
    return encodeFrame(MessageType::StatsReply, encodeStatsReply(Reply));
  }

  case MessageType::Shutdown:
    if (!Request.Payload.empty())
      return Reject("shutdown carries no payload");
    ShutdownFlag.store(true, std::memory_order_release);
    return encodeFrame(MessageType::ShutdownReply, {});

  default:
    // A reply type arriving as a request.
    return Reject("reply type sent as request");
  }
}
