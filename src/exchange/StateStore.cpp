//===- exchange/StateStore.cpp - Durable exchange state --------------------===//

#include "exchange/StateStore.h"

#include "codec/BlockCodec.h"
#include "exchange/WireProtocol.h"
#include "patch/PatchIO.h"
#include "support/Serializer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

using namespace exterminator;

static constexpr uint32_t SnapshotMagic = 0x58535431; // "XST1"
static constexpr uint32_t JournalMagic = 0x58534A31;  // "XSJ1"
/// Journal format: summary records end with the dedup token, and a
/// record may be wrapped in the codec envelope behind a marker byte
/// (records below the threshold stay plain — compressing a 40-byte
/// patch delta buys nothing).  Versions 1 and 2 (no envelope, and no
/// token in version 1) are refused.
static constexpr uint8_t JournalVersion = 3;
/// First byte of a compressed record: outside the Kind value space
/// (kinds are small enums), so a record is self-describing.  The codec
/// envelope of the plain record bytes follows.
static constexpr uint8_t CompressedRecordMarker = 0x80;
/// Records below this many encoded bytes are stored plain — the
/// envelope header plus LZ overhead beats the savings on small records.
static constexpr size_t CompressRecordThreshold = 512;
/// Journal header: magic + version + generation.
static constexpr size_t JournalHeaderBytes = 4 + 1 + 8;
/// Record size bound: protects the loader from sizing a buffer off a
/// corrupt length prefix (the same reasoning as MaxFramePayload, and
/// journal records are re-encodings of wire payloads anyway).
static constexpr uint32_t MaxJournalRecordBytes = MaxFramePayload;

static constexpr const char *SnapshotPrefix = "snapshot-";
static constexpr const char *SnapshotSuffix = ".xst";

StateStore::StateStore(const std::string &Directory) : Dir(Directory) {
  // Best-effort create; an unusable directory surfaces as a failed
  // load/snapshot, which callers already have to handle.
  ::mkdir(Dir.c_str(), 0755);
}

StateStore::~StateStore() { closeJournal(); }

std::string StateStore::rotatedSnapshotPath(uint64_t Gen) const {
  // Zero-padded so lexicographic order equals generation order in
  // directory listings (a debugging nicety; load() parses the number).
  char Name[64];
  std::snprintf(Name, sizeof(Name), "%s%020llu%s", SnapshotPrefix,
                static_cast<unsigned long long>(Gen), SnapshotSuffix);
  return Dir + "/" + Name;
}

std::string StateStore::journalPath() const { return Dir + "/journal.xsj"; }

/// Parses a rotated snapshot filename; returns false for anything else.
static bool parseSnapshotName(const std::string &Name, uint64_t &GenOut) {
  const std::string Prefix = SnapshotPrefix;
  const std::string Suffix = SnapshotSuffix;
  if (Name.size() <= Prefix.size() + Suffix.size() ||
      Name.compare(0, Prefix.size(), Prefix) != 0 ||
      Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
    return false;
  const std::string Digits =
      Name.substr(Prefix.size(), Name.size() - Prefix.size() - Suffix.size());
  if (Digits.empty() ||
      Digits.find_first_not_of("0123456789") != std::string::npos ||
      Digits.size() > 20)
    return false;
  GenOut = 0;
  for (char C : Digits) {
    if (GenOut > (~uint64_t(0) - (C - '0')) / 10)
      return false; // overflow: not a generation this class wrote
    GenOut = GenOut * 10 + uint64_t(C - '0');
  }
  return true;
}

/// Lists rotated snapshots, newest generation first.
static std::vector<std::pair<uint64_t, std::string>>
listRotatedSnapshots(const std::string &Dir) {
  std::vector<std::pair<uint64_t, std::string>> Found;
  if (DIR *Handle = ::opendir(Dir.c_str())) {
    while (dirent *Entry = ::readdir(Handle)) {
      uint64_t Gen = 0;
      if (parseSnapshotName(Entry->d_name, Gen))
        Found.emplace_back(Gen, Dir + "/" + Entry->d_name);
    }
    ::closedir(Handle);
  }
  std::sort(Found.begin(), Found.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  return Found;
}

std::string StateStore::snapshotPath() const {
  const auto Rotated = listRotatedSnapshots(Dir);
  return Rotated.empty() ? std::string() : Rotated.front().second;
}

std::vector<std::string> StateStore::snapshotFiles() const {
  std::vector<std::string> Paths;
  for (const auto &[Gen, Path] : listRotatedSnapshots(Dir))
    Paths.push_back(Path);
  return Paths;
}

uint64_t StateStore::appendedSinceSnapshot() const {
  return Appended.load(std::memory_order_relaxed);
}

void StateStore::attachMetrics(MetricsRegistry &Registry) {
  AppendLatency = Registry.histogram("xterm_journal_append_seconds");
  FsyncLatency = Registry.histogram("xterm_journal_fsync_seconds");
}

void StateStore::closeJournal() {
  if (Journal) {
    std::fclose(Journal);
    Journal = nullptr;
  }
}

bool StateStore::openJournalForAppend() {
  Journal = std::fopen(journalPath().c_str(), "ab");
  return Journal != nullptr;
}

static std::vector<uint8_t>
encodeRecord(const StateStore::JournalRecord &Record) {
  ByteWriter Writer;
  Writer.writeU8(Record.RecordKind);
  Writer.writeU64(Record.EpochAfter);
  if (Record.RecordKind == StateStore::JournalRecord::PatchesKind) {
    Writer.writeBlob(serializePatchSet(Record.PatchDelta));
  } else {
    Writer.writeVarU64(Record.CleanStreak);
    Writer.writeBlob(serializeRunSummary(Record.Summary));
    Writer.writeU64(Record.Token);
  }
  std::vector<uint8_t> Plain = Writer.take();
  // Big records (full patch-set seeds, summary batches) ship through
  // the codec when that actually shrinks them; the marker byte keeps
  // plain and compressed records distinguishable per record.
  if (Plain.size() >= CompressRecordThreshold) {
    std::vector<uint8_t> Envelope = encodeCodecBlock(Plain);
    if (Envelope.size() + 1 < Plain.size()) {
      std::vector<uint8_t> Wrapped;
      Wrapped.reserve(Envelope.size() + 1);
      Wrapped.push_back(CompressedRecordMarker);
      Wrapped.insert(Wrapped.end(), Envelope.begin(), Envelope.end());
      return Wrapped;
    }
  }
  return Plain;
}

static bool decodeRecord(const uint8_t *Data, size_t Size,
                         StateStore::JournalRecord &Out) {
  // Compressed record: unwrap the envelope, then decode the plain
  // bytes.  The expansion bound mirrors the record-length bound — a
  // corrupt envelope cannot inflate past what a plain record may hold.
  std::vector<uint8_t> Expanded;
  if (Size >= 1 && Data[0] == CompressedRecordMarker) {
    if (!decodeCodecBlock(Data + 1, Size - 1, Expanded,
                          MaxJournalRecordBytes))
      return false;
    if (!Expanded.empty() && Expanded[0] == CompressedRecordMarker)
      return false; // no nested compression
    Data = Expanded.data();
    Size = Expanded.size();
  }
  ByteReader Reader(Data, Size);
  Out.RecordKind = Reader.readU8();
  Out.EpochAfter = Reader.readU64();
  if (Out.RecordKind == StateStore::JournalRecord::PatchesKind) {
    if (!deserializePatchSet(Reader.readBlob(), Out.PatchDelta))
      return false;
  } else if (Out.RecordKind == StateStore::JournalRecord::SummaryKind) {
    Out.CleanStreak = static_cast<unsigned>(Reader.readVarU64());
    if (!deserializeRunSummary(Reader.readBlob(), Out.Summary))
      return false;
    Out.Token = Reader.readU64();
  } else {
    return false;
  }
  return !Reader.failed() && Reader.atEnd();
}

bool StateStore::parseSnapshot(const std::vector<uint8_t> &Bytes,
                               SnapshotContents &Out) {
  // The checksum covers the whole file, so corruption is caught before
  // any decompression runs.
  if (Bytes.size() <= 4)
    return false;
  const uint32_t StoredCheck = readFrameU32(Bytes.data() + Bytes.size() - 4);
  if (frameChecksum(Bytes.data(), Bytes.size() - 4) != StoredCheck)
    return false;
  ByteReader Reader(Bytes.data(), Bytes.size() - 4);
  if (Reader.readU32() != SnapshotMagic || Reader.readU8() != SnapshotVersion)
    return false;
  Out.Generation = Reader.readU64();
  // The envelope's declared raw size is bounded before allocation;
  // pipeline states are megabytes at the extreme, so the frame bound is
  // generous and a forged multi-gigabyte declaration still fails
  // cheaply.
  const std::vector<uint8_t> Envelope = Reader.readBlob();
  Out.StoredStateBytes = Envelope.size();
  return !Reader.failed() && Reader.atEnd() &&
         decodeCodecBlock(Envelope, Out.State, MaxFramePayload);
}

StateStore::LoadResult
StateStore::load(std::vector<uint8_t> &SnapshotStateOut,
                 std::vector<JournalRecord> &RecordsOut) {
  SnapshotStateOut.clear();
  RecordsOut.clear();

  // Candidate snapshots, newest first.
  const auto Candidates = listRotatedSnapshots(Dir);
  const uint64_t NewestNamedGen =
      Candidates.empty() ? 0 : Candidates.front().first;

  std::vector<uint8_t> JournalBytes;
  const bool HaveJournal = readFileBytes(journalPath(), JournalBytes);

  if (Candidates.empty()) {
    // A journal without any snapshot means the directory lost a file —
    // replaying deltas against empty state would fabricate a history.
    return HaveJournal ? LoadResult::Corrupt : LoadResult::Fresh;
  }

  SnapshotContents Chosen;
  bool Loaded = false;
  bool SkippedCorrupt = false;
  for (const auto &[Gen, Path] : Candidates) {
    std::vector<uint8_t> Bytes;
    if (readFileBytes(Path, Bytes) && parseSnapshot(Bytes, Chosen)) {
      Loaded = true;
      break;
    }
    SkippedCorrupt = true;
  }
  if (!Loaded)
    return LoadResult::Corrupt;
  const uint64_t ChosenGen = Chosen.Generation;

  if (HaveJournal) {
    // The journal header is only ever written atomically (the reset is
    // a crash-safe replace), so a short or mis-magicked header means
    // external corruption; its records carried acknowledged
    // submissions, so refuse rather than silently dropping them.
    if (JournalBytes.size() < JournalHeaderBytes)
      return LoadResult::Corrupt;
    ByteReader Header(JournalBytes.data(), JournalHeaderBytes);
    const uint32_t Magic = Header.readU32();
    const uint8_t Version = Header.readU8();
    const uint64_t JournalGen = Header.readU64();
    if (Magic != JournalMagic || Version != JournalVersion)
      return LoadResult::Corrupt;
    // A journal generation no snapshot file accounts for cannot come
    // from this class's write ordering (snapshot first, then journal
    // reset); the directory mixes state from different servers.  When
    // the journal's own snapshot is the corrupt head being skipped, the
    // journal is sacrificed with it: its records applied on top of a
    // state we can no longer read.
    if (JournalGen > ChosenGen && JournalGen > NewestNamedGen &&
        !SkippedCorrupt)
      return LoadResult::Corrupt;
    if (JournalGen == ChosenGen) {
      // Generations behind the snapshot (the normal crash window
      // between snapshot rename and journal reset) are already inside
      // it, so only the exact pair replays.
      size_t Offset = JournalHeaderBytes;
      while (JournalBytes.size() - Offset >= 8) {
        const uint32_t Length = readFrameU32(JournalBytes.data() + Offset);
        if (Length > MaxJournalRecordBytes)
          break;
        if (JournalBytes.size() - Offset - 4 < uint64_t(Length) + 4)
          break; // torn tail: the record a crash interrupted
        const uint8_t *Record = JournalBytes.data() + Offset + 4;
        if (frameChecksum(Record, Length) != readFrameU32(Record + Length))
          break;
        JournalRecord Decoded;
        if (!decodeRecord(Record, Length, Decoded))
          break;
        RecordsOut.push_back(std::move(Decoded));
        Offset += 4 + size_t(Length) + 4;
      }
    }
  }

  Generation = std::max(ChosenGen, NewestNamedGen);
  SnapshotStateOut = std::move(Chosen.State);
  return LoadResult::Restored;
}

void StateStore::pruneSnapshots(uint64_t NewestGen) {
  // Retention: keep the newest SnapshotKeep generations; everything
  // older goes.  Best-effort — a prune that fails leaves extra
  // fallbacks, never less state.
  for (const auto &[Gen, Path] : listRotatedSnapshots(Dir))
    if (Gen + SnapshotKeep <= NewestGen)
      ::unlink(Path.c_str());
}

bool StateStore::writeSnapshot(const std::vector<uint8_t> &PipelineState) {
  std::lock_guard<std::mutex> JournalLock(JournalMutex);
  {
    // Enqueued-but-undrained records were applied (and enqueued) under
    // the caller's application lock before the state was serialized, so
    // the snapshot already contains their effects — journaling them on
    // top of it would replay them twice.
    std::lock_guard<std::mutex> QueueLock(QueueMutex);
    Queue.clear();
  }
  closeJournal();

  const uint64_t NextGen = Generation + 1;
  ByteWriter Writer;
  Writer.writeU32(SnapshotMagic);
  Writer.writeU8(SnapshotVersion);
  Writer.writeU64(NextGen);
  // The state blob travels as a codec envelope (stored raw inside it
  // when incompressible, so this never grows the file by more than the
  // envelope header).
  Writer.writeBlob(encodeCodecBlock(PipelineState));
  Writer.writeU32(frameChecksum(Writer.buffer().data(), Writer.size()));
  if (!writeFileBytes(rotatedSnapshotPath(NextGen), Writer.buffer()))
    return false;
  Generation = NextGen;
  pruneSnapshots(NextGen);

  // Reset the journal to the new generation.  A crash between the two
  // writeFileBytes calls leaves a stale-generation journal that load()
  // ignores; a failure here leaves Journal closed, so drains fail loudly
  // instead of appending records the next load would mispair.
  ByteWriter Header;
  Header.writeU32(JournalMagic);
  Header.writeU8(JournalVersion);
  Header.writeU64(NextGen);
  if (!writeFileBytes(journalPath(), Header.buffer()))
    return false;
  Appended.store(0, std::memory_order_relaxed);
  JournalFailed = false;
  return openJournalForAppend();
}

void StateStore::enqueue(const JournalRecord &Record) {
  std::vector<uint8_t> Encoded = encodeRecord(Record);
  std::lock_guard<std::mutex> QueueLock(QueueMutex);
  Queue.push_back(std::move(Encoded));
}

bool StateStore::drain(size_t &AppendedOut) {
  AppendedOut = 0;
  std::lock_guard<std::mutex> JournalLock(JournalMutex);
  // Take the whole queue in one swap: records enqueued after this point
  // belong to a later drain (their enqueuer calls drain itself and is
  // blocked on JournalMutex right now), which keeps append order equal
  // to enqueue order across concurrent drainers.
  std::vector<std::vector<uint8_t>> Batch;
  {
    std::lock_guard<std::mutex> QueueLock(QueueMutex);
    Batch.swap(Queue);
  }
  if (Batch.empty())
    return Journal != nullptr && !JournalFailed;

  bool Ok = Journal != nullptr && !JournalFailed;
  size_t Wrote = 0;
  // Timing is gated on attachment: un-instrumented stores must not pay
  // even the clock reads.
  const bool Timed = bool(AppendLatency);
  const auto AppendStart =
      Timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point();
  for (const std::vector<uint8_t> &Record : Batch) {
    if (!Ok)
      break;
    uint8_t Length[4];
    for (int I = 0; I < 4; ++I)
      Length[I] = static_cast<uint8_t>(Record.size() >> (8 * I));
    const uint32_t Check = frameChecksum(Record.data(), Record.size());
    uint8_t CheckBytes[4];
    for (int I = 0; I < 4; ++I)
      CheckBytes[I] = static_cast<uint8_t>(Check >> (8 * I));
    Ok = std::fwrite(Length, 1, 4, Journal) == 4 &&
         std::fwrite(Record.data(), 1, Record.size(), Journal) ==
             Record.size() &&
         std::fwrite(CheckBytes, 1, 4, Journal) == 4;
    if (Ok)
      ++Wrote;
  }
  if (Wrote) {
    if (Timed) {
      const auto WriteEnd = std::chrono::steady_clock::now();
      AppendLatency.observe(
          std::chrono::duration<double>(WriteEnd - AppendStart).count());
      Ok = Ok && std::fflush(Journal) == 0 && ::fsync(::fileno(Journal)) == 0;
      FsyncLatency.observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - WriteEnd)
                               .count());
    } else {
      Ok = Ok && std::fflush(Journal) == 0 && ::fsync(::fileno(Journal)) == 0;
    }
    Appended.fetch_add(Wrote, std::memory_order_relaxed);
  }
  AppendedOut = Wrote;
  if (!Ok)
    JournalFailed = true;
  return Ok;
}
