//===- exchange/WireProtocol.cpp - Patch-exchange wire format ---------------===//

#include "exchange/WireProtocol.h"

#include "codec/BlockCodec.h"
#include "heapimage/ImageBundle.h"
#include "patch/PatchIO.h"

#include <cstring>

using namespace exterminator;

uint32_t exterminator::frameChecksum(const uint8_t *Data, size_t Size) {
  uint32_t Hash = 2166136261u; // FNV-1a
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Data[I];
    Hash *= 16777619u;
  }
  return Hash;
}

static bool isKnownType(uint8_t Type) {
  switch (static_cast<MessageType>(Type)) {
  case MessageType::SubmitImages:
  case MessageType::SubmitSummary:
  case MessageType::FetchPatches:
  case MessageType::Shutdown:
  case MessageType::Stats:
  case MessageType::SubmitImagesReply:
  case MessageType::SubmitSummaryReply:
  case MessageType::PatchesReply:
  case MessageType::ShutdownReply:
  case MessageType::ErrorReply:
  case MessageType::StatsReply:
    return true;
  }
  return false;
}

/// Builds the payload envelope: u8 encoding ++ [varint RawSize ++]
/// body.  Compresses only when the whole envelope ends up smaller than
/// raw ++ its one-byte tag.
static std::vector<uint8_t>
buildEnvelope(const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Envelope;
  std::vector<uint8_t> Compressed;
  const size_t CompSize =
      lzCompress(Payload.data(), Payload.size(), Compressed);
  if (CompSize != 0) {
    VectorSink Sink(Envelope);
    StreamWriter Writer(Sink);
    Writer.writeU8(PayloadEncodingLz);
    Writer.writeVarU64(Payload.size());
    Writer.writeBytes(Compressed.data(), CompSize);
    if (Envelope.size() < 1 + Payload.size()) {
      codecdetail::noteCompress(Payload.size(), Envelope.size(),
                                /*Stored=*/false);
      return Envelope;
    }
    Envelope.clear();
  }
  Envelope.reserve(1 + Payload.size());
  Envelope.push_back(PayloadEncodingRaw);
  Envelope.insert(Envelope.end(), Payload.begin(), Payload.end());
  codecdetail::noteCompress(Payload.size(), Envelope.size(),
                            /*Stored=*/true);
  return Envelope;
}

std::vector<uint8_t>
exterminator::encodeFrame(MessageType Type,
                          const std::vector<uint8_t> &Payload) {
  // Enforce the bound on the send side too: a payload past the limit
  // would be rejected by every receiver anyway (and past 4 GiB the u32
  // length would silently wrap into a desynced stream), so refuse to
  // encode it — callers treat an empty frame as "too big to ship".
  if (Payload.size() > MaxFramePayload)
    return {};
  const std::vector<uint8_t> Envelope = buildEnvelope(Payload);
  if (Envelope.size() > MaxFramePayload)
    return {};
  std::vector<uint8_t> Out;
  VectorSink Sink(Out);
  StreamWriter Writer(Sink);
  Writer.writeU32(FrameMagic);
  Writer.writeU8(ProtocolVersion);
  Writer.writeU8(static_cast<uint8_t>(Type));
  Writer.writeU32(static_cast<uint32_t>(Envelope.size()));
  Writer.writeBytes(Envelope.data(), Envelope.size());
  Writer.writeU32(frameChecksum(Envelope.data(), Envelope.size()));
  return Out;
}

uint32_t exterminator::readFrameU32(const uint8_t *Data) {
  // Explicit little-endian, matching StreamWriter::writeU32 — the frame
  // must decode identically on any host the TCP endpoint reaches.
  return uint32_t(Data[0]) | uint32_t(Data[1]) << 8 |
         uint32_t(Data[2]) << 16 | uint32_t(Data[3]) << 24;
}

/// Expands a payload envelope into FrameOut.Payload.  Runs only
/// after the checksum passed, so every byte here is what the sender
/// meant — failures are a hostile or buggy *encoder*, not line noise.
static FrameError expandEnvelope(const uint8_t *Data, size_t Size,
                                 Frame &FrameOut) {
  if (Size < 1)
    return FrameError::BadEncoding;
  const uint8_t Encoding = Data[0];
  if (Encoding == PayloadEncodingRaw) {
    FrameOut.Payload.assign(Data + 1, Data + Size);
    return FrameError::None;
  }
  if (Encoding != PayloadEncodingLz)
    return FrameError::BadEncoding;
  ByteReader Reader(Data + 1, Size - 1);
  const uint64_t RawSize = Reader.readVarU64();
  if (Reader.failed())
    return FrameError::BadEncoding;
  // The bomb gate: the declared expansion is bounded *before* any
  // buffer is sized from it, same discipline as MaxWireSlots.
  if (RawSize > MaxFramePayload)
    return FrameError::OversizedExpansion;
  FrameOut.Payload.resize(RawSize);
  const size_t BodyOffset = 1 + (Size - 1 - Reader.remaining());
  if (!lzDecompress(Data + BodyOffset, Size - BodyOffset,
                    FrameOut.Payload.data(), RawSize)) {
    FrameOut.Payload.clear();
    return FrameError::BadEncoding;
  }
  codecdetail::noteDecompress(RawSize);
  return FrameError::None;
}

FrameError exterminator::decodeFrame(const uint8_t *Data, size_t Size,
                                     Frame &FrameOut, size_t &ConsumedOut) {
  if (Size < FrameHeaderBytes)
    return FrameError::Truncated;
  const uint32_t Magic = readFrameU32(Data);
  const uint8_t Version = Data[4];
  const uint8_t Type = Data[5];
  const uint32_t Length = readFrameU32(Data + 6);
  if (Magic != FrameMagic)
    return FrameError::BadMagic;
  if (Version != ProtocolVersion)
    return FrameError::BadVersion;
  if (!isKnownType(Type))
    return FrameError::BadType;
  // The length bound comes before the truncation check so a forged
  // multi-gigabyte prefix is its own error, not a "keep reading".
  if (Length > MaxFramePayload)
    return FrameError::OversizedLength;
  if (Size < FrameHeaderBytes + size_t(Length) + 4)
    return FrameError::Truncated;
  if (readFrameU32(Data + FrameHeaderBytes + Length) !=
      frameChecksum(Data + FrameHeaderBytes, Length))
    return FrameError::BadChecksum;
  FrameOut.Type = static_cast<MessageType>(Type);
  const FrameError Error =
      expandEnvelope(Data + FrameHeaderBytes, Length, FrameOut);
  if (Error != FrameError::None) {
    codecdetail::noteReject();
    return Error;
  }
  ConsumedOut = FrameHeaderBytes + size_t(Length) + 4;
  return FrameError::None;
}

const char *exterminator::frameErrorName(FrameError Error) {
  switch (Error) {
  case FrameError::None:
    return "none";
  case FrameError::Truncated:
    return "truncated frame";
  case FrameError::BadMagic:
    return "bad frame magic";
  case FrameError::BadVersion:
    return "unknown protocol version";
  case FrameError::BadType:
    return "unknown message type";
  case FrameError::OversizedLength:
    return "oversized length prefix";
  case FrameError::BadChecksum:
    return "payload checksum mismatch";
  case FrameError::BadEncoding:
    return "bad payload encoding";
  case FrameError::OversizedExpansion:
    return "oversized declared expansion";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
exterminator::encodeSubmitImages(const ImageEvidence &Evidence) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  serializeImageBundle(Evidence.Primary, Sink);
  serializeImageBundle(Evidence.Fallback, Sink);
  return Payload;
}

bool exterminator::decodeSubmitImages(const std::vector<uint8_t> &Payload,
                                      ImageEvidence &EvidenceOut) {
  MemorySource Source(Payload);
  // One wire budget across both bundles: the server materializes at
  // most MaxWireSlots decoded slots and MaxFramePayload contents bytes
  // per submission no matter what the frame declares.
  BundleBudget Budget{MaxWireSlots, MaxFramePayload};
  if (!deserializeImageBundle(Source, EvidenceOut.Primary, Budget))
    return false;
  if (!deserializeImageBundle(Source, EvidenceOut.Fallback, Budget))
    return false;
  return Source.remaining() == 0;
}

std::vector<uint8_t>
exterminator::encodeSubmitSummary(const RunSummary &Summary,
                                  unsigned CleanStreak, uint64_t Token) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeU64(Token);
  Writer.writeVarU64(CleanStreak);
  const std::vector<uint8_t> Blob = serializeRunSummary(Summary);
  Writer.writeVarU64(Blob.size());
  Writer.writeBytes(Blob.data(), Blob.size());
  return Payload;
}

bool exterminator::decodeSubmitSummary(const std::vector<uint8_t> &Payload,
                                       RunSummary &SummaryOut,
                                       unsigned &CleanStreakOut,
                                       uint64_t &TokenOut) {
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  TokenOut = Reader.readU64();
  const uint64_t Streak = Reader.readVarU64();
  const uint64_t BlobSize = Reader.readVarU64();
  if (Reader.failed() || Streak > ~0u || BlobSize > Payload.size())
    return false;
  std::vector<uint8_t> Blob(BlobSize);
  if (!Reader.readBytes(Blob.data(), Blob.size()))
    return false;
  if (Source.remaining() != 0)
    return false;
  CleanStreakOut = static_cast<unsigned>(Streak);
  return deserializeRunSummary(Blob, SummaryOut);
}

std::vector<uint8_t>
exterminator::encodeFetchPatches(uint64_t KnownEpoch,
                                 uint64_t KnownInstance) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeU64(KnownInstance);
  Writer.writeU64(KnownEpoch);
  return Payload;
}

bool exterminator::decodeFetchPatches(const std::vector<uint8_t> &Payload,
                                      uint64_t &KnownEpochOut,
                                      uint64_t &KnownInstanceOut) {
  if (Payload.size() != 16)
    return false;
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  KnownInstanceOut = Reader.readU64();
  KnownEpochOut = Reader.readU64();
  return !Reader.failed();
}

std::vector<uint8_t>
exterminator::encodeImagesReply(const ImagesReply &Reply) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeU64(Reply.Instance);
  Writer.writeU64(Reply.Epoch);
  Writer.writeVarU64(Reply.OverflowFindings);
  Writer.writeVarU64(Reply.DanglingFindings);
  return Payload;
}

bool exterminator::decodeImagesReply(const std::vector<uint8_t> &Payload,
                                     ImagesReply &ReplyOut) {
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  ReplyOut.Instance = Reader.readU64();
  ReplyOut.Epoch = Reader.readU64();
  ReplyOut.OverflowFindings = Reader.readVarU64();
  ReplyOut.DanglingFindings = Reader.readVarU64();
  return !Reader.failed() && Source.remaining() == 0;
}

/// Finding counts in a reply are bounded by the sites a program can
/// contain, not by what a forged frame claims.
static constexpr uint64_t MaxReplyFindings = uint64_t(1) << 20;

std::vector<uint8_t>
exterminator::encodeSummaryReply(const SummaryReply &Reply) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeU64(Reply.Instance);
  Writer.writeU64(Reply.Epoch);
  Writer.writeVarU64(Reply.Diagnosis.Overflows.size());
  for (const CumulativeOverflowFinding &F : Reply.Diagnosis.Overflows) {
    Writer.writeU32(F.AllocSite);
    Writer.writeF64(F.LogBayesFactor);
    Writer.writeF64(F.LogThreshold);
    Writer.writeU32(F.PadBytes);
    Writer.writeU32(F.TrialCount);
    Writer.writeU32(F.ObservedCount);
  }
  Writer.writeVarU64(Reply.Diagnosis.Danglings.size());
  for (const CumulativeDanglingFinding &F : Reply.Diagnosis.Danglings) {
    Writer.writeU32(F.AllocSite);
    Writer.writeU32(F.FreeSite);
    Writer.writeF64(F.LogBayesFactor);
    Writer.writeF64(F.LogThreshold);
    Writer.writeU64(F.DeferralTicks);
    Writer.writeU32(F.TrialCount);
    Writer.writeU32(F.ObservedCount);
  }
  return Payload;
}

bool exterminator::decodeSummaryReply(const std::vector<uint8_t> &Payload,
                                      SummaryReply &ReplyOut) {
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  ReplyOut.Instance = Reader.readU64();
  ReplyOut.Epoch = Reader.readU64();
  const uint64_t NumOverflows = Reader.readVarU64();
  if (Reader.failed() || NumOverflows > MaxReplyFindings)
    return false;
  ReplyOut.Diagnosis.Overflows.clear();
  for (uint64_t I = 0; I < NumOverflows && !Reader.failed(); ++I) {
    CumulativeOverflowFinding F;
    F.AllocSite = Reader.readU32();
    F.LogBayesFactor = Reader.readF64();
    F.LogThreshold = Reader.readF64();
    F.PadBytes = Reader.readU32();
    F.TrialCount = Reader.readU32();
    F.ObservedCount = Reader.readU32();
    ReplyOut.Diagnosis.Overflows.push_back(F);
  }
  const uint64_t NumDanglings = Reader.readVarU64();
  if (Reader.failed() || NumDanglings > MaxReplyFindings)
    return false;
  ReplyOut.Diagnosis.Danglings.clear();
  for (uint64_t I = 0; I < NumDanglings && !Reader.failed(); ++I) {
    CumulativeDanglingFinding F;
    F.AllocSite = Reader.readU32();
    F.FreeSite = Reader.readU32();
    F.LogBayesFactor = Reader.readF64();
    F.LogThreshold = Reader.readF64();
    F.DeferralTicks = Reader.readU64();
    F.TrialCount = Reader.readU32();
    F.ObservedCount = Reader.readU32();
    ReplyOut.Diagnosis.Danglings.push_back(F);
  }
  return !Reader.failed() && Source.remaining() == 0;
}

std::vector<uint8_t>
exterminator::encodePatchesReply(const PatchesReply &Reply) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeU64(Reply.Instance);
  Writer.writeU64(Reply.Epoch);
  Writer.writeU8(Reply.Modified ? 1 : 0);
  if (Reply.Modified) {
    const std::vector<uint8_t> Blob = serializePatchSet(Reply.Patches);
    Writer.writeVarU64(Blob.size());
    Writer.writeBytes(Blob.data(), Blob.size());
  }
  return Payload;
}

bool exterminator::decodePatchesReply(const std::vector<uint8_t> &Payload,
                                      PatchesReply &ReplyOut) {
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  ReplyOut.Instance = Reader.readU64();
  ReplyOut.Epoch = Reader.readU64();
  const uint8_t Modified = Reader.readU8();
  if (Reader.failed() || Modified > 1)
    return false;
  ReplyOut.Modified = Modified != 0;
  ReplyOut.Patches.clear();
  if (ReplyOut.Modified) {
    const uint64_t BlobSize = Reader.readVarU64();
    if (Reader.failed() || BlobSize > Payload.size())
      return false;
    std::vector<uint8_t> Blob(BlobSize);
    if (!Reader.readBytes(Blob.data(), Blob.size()))
      return false;
    if (!deserializePatchSet(Blob, ReplyOut.Patches))
      return false;
  }
  return Source.remaining() == 0;
}

std::vector<uint8_t>
exterminator::encodeErrorReply(const std::string &Message) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeVarU64(Message.size());
  Writer.writeBytes(Message.data(), Message.size());
  return Payload;
}

bool exterminator::decodeErrorReply(const std::vector<uint8_t> &Payload,
                                    std::string &MessageOut) {
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  const uint64_t Size = Reader.readVarU64();
  if (Reader.failed() || Size > Payload.size())
    return false;
  MessageOut.resize(Size);
  if (!Reader.readBytes(MessageOut.data(), Size))
    return false;
  return Source.remaining() == 0;
}

std::vector<uint8_t> exterminator::encodeStatsRequest(StatsFormat Format) {
  return {static_cast<uint8_t>(Format)};
}

bool exterminator::decodeStatsRequest(const std::vector<uint8_t> &Payload,
                                      StatsFormat &FormatOut) {
  if (Payload.size() != 1 ||
      Payload[0] > static_cast<uint8_t>(StatsFormat::Text))
    return false;
  FormatOut = static_cast<StatsFormat>(Payload[0]);
  return true;
}

/// Sample counts in a reply are bounded by what a registry can plausibly
/// hold (tens of instruments plus a capped per-site family), not by what
/// a forged frame claims.
static constexpr uint64_t MaxStatsSamples = uint64_t(1) << 16;

std::vector<uint8_t> exterminator::encodeStatsReply(const StatsReply &Reply) {
  std::vector<uint8_t> Payload;
  VectorSink Sink(Payload);
  StreamWriter Writer(Sink);
  Writer.writeU64(Reply.Instance);
  Writer.writeU64(Reply.Epoch);
  Writer.writeU8(static_cast<uint8_t>(Reply.Format));
  if (Reply.Format == StatsFormat::Text) {
    Writer.writeVarU64(Reply.Text.size());
    Writer.writeBytes(Reply.Text.data(), Reply.Text.size());
    return Payload;
  }
  Writer.writeVarU64(Reply.Samples.size());
  for (const MetricSample &S : Reply.Samples) {
    Writer.writeVarU64(S.Name.size());
    Writer.writeBytes(S.Name.data(), S.Name.size());
    Writer.writeVarU64(S.Labels.size());
    Writer.writeBytes(S.Labels.data(), S.Labels.size());
    Writer.writeF64(S.Value);
    Writer.writeU8(static_cast<uint8_t>(S.Kind));
  }
  return Payload;
}

bool exterminator::decodeStatsReply(const std::vector<uint8_t> &Payload,
                                    StatsReply &ReplyOut) {
  MemorySource Source(Payload);
  StreamReader Reader(Source);
  ReplyOut.Instance = Reader.readU64();
  ReplyOut.Epoch = Reader.readU64();
  const uint8_t Format = Reader.readU8();
  if (Reader.failed() || Format > static_cast<uint8_t>(StatsFormat::Text))
    return false;
  ReplyOut.Format = static_cast<StatsFormat>(Format);
  if (ReplyOut.Format == StatsFormat::Text) {
    const uint64_t TextSize = Reader.readVarU64();
    if (Reader.failed() || TextSize > Payload.size())
      return false;
    ReplyOut.Text.resize(TextSize);
    if (!Reader.readBytes(ReplyOut.Text.data(), TextSize))
      return false;
    return Source.remaining() == 0;
  }
  const uint64_t Count = Reader.readVarU64();
  if (Reader.failed() || Count > MaxStatsSamples)
    return false;
  ReplyOut.Samples.clear();
  ReplyOut.Samples.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I) {
    MetricSample S;
    const uint64_t NameSize = Reader.readVarU64();
    if (Reader.failed() || NameSize > Payload.size())
      return false;
    S.Name.resize(NameSize);
    if (!Reader.readBytes(S.Name.data(), NameSize))
      return false;
    const uint64_t LabelsSize = Reader.readVarU64();
    if (Reader.failed() || LabelsSize > Payload.size())
      return false;
    S.Labels.resize(LabelsSize);
    if (!Reader.readBytes(S.Labels.data(), LabelsSize))
      return false;
    S.Value = Reader.readF64();
    const uint8_t Kind = Reader.readU8();
    if (Reader.failed() || Kind > static_cast<uint8_t>(SampleKind::Gauge))
      return false;
    S.Kind = static_cast<SampleKind>(Kind);
    ReplyOut.Samples.push_back(std::move(S));
  }
  return Source.remaining() == 0;
}
