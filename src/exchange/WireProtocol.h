//===- exchange/WireProtocol.h - Patch-exchange wire format ----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The patch-exchange wire protocol: how a community of Exterminator
/// processes ships error evidence to a patch server and pulls back the
/// merged patch set (§6.4 across many processes).
///
/// Every message is one *frame*:
///
///   u32  FrameMagic      "XPF1"
///   u8   ProtocolVersion (4; every other value is rejected)
///   u8   MessageType
///   u32  PayloadLength   (little-endian; bounded by MaxFramePayload)
///   u8[] Payload         (a compression envelope, see below)
///   u32  Checksum        FNV-1a over the payload bytes as transmitted
///
/// The fixed 10-byte header makes frames cheap to delimit on a byte
/// stream; the length bound and checksum make a hostile or corrupted
/// peer a parse error instead of an allocation bomb.  Requests and
/// replies use disjoint type ranges so a frame is self-describing.
///
/// Payloads ride on the formats the rest of the system already speaks:
/// image evidence as two delta-encoded ImageBundles (primary + fallback),
/// run summaries and patch sets in their existing serialized forms, plus
/// varint-packed scalars.
///
/// Every summary submission leads with a random u64 *submission token*.
/// The token is what makes summaries safe to retry: patch merges are
/// idempotent under max-merge, but a run summary grows the Bayesian
/// trial history every time it is applied, so a client retry after a
/// lost reply would double-count trials.  The server remembers recently
/// seen tokens and answers a duplicate with its current state instead
/// of re-applying it.
///
/// The payload is an *envelope*:
///
///   u8 encoding            0 = raw, 1 = LZ block codec
///   [varint RawSize]       encoding 1 only; bounded by MaxFramePayload
///   u8[] body              raw bytes, or the compressed block
///
/// The checksum covers the payload bytes *as transmitted* (the
/// envelope), so corruption is rejected by a cheap hash before any
/// decompression runs.  The declared RawSize is validated against
/// MaxFramePayload before any buffer is sized from it — a compression
/// bomb is FrameError::OversizedExpansion, never an allocation.
/// Encoders compress only when it shrinks the frame, so small or
/// incompressible payloads ride as encoding 0 with one byte of
/// overhead.
///
/// Version history: v1 was the first protocol; v2 added submission
/// tokens; v3 the observability pair (Stats, StatsReply); v4 the
/// payload envelope.  Only v4 is spoken or accepted: a frame carrying
/// any other version byte is answered with an "unknown protocol
/// version" ErrorReply and the connection closes.  There is no
/// negotiation — the server and its clients upgrade together.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_WIREPROTOCOL_H
#define EXTERMINATOR_EXCHANGE_WIREPROTOCOL_H

#include "diagnose/DiagnosisPipeline.h"
#include "heapimage/ImageBundle.h"
#include "observe/MetricsRegistry.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace exterminator {

/// Protocol constants.
inline constexpr uint32_t FrameMagic = 0x58504631; // "XPF1"
/// The protocol version every frame carries (v4: compressed payload
/// envelopes); decoders reject any other.
inline constexpr uint8_t ProtocolVersion = 4;
/// Payload-envelope encoding bytes.
inline constexpr uint8_t PayloadEncodingRaw = 0;
inline constexpr uint8_t PayloadEncodingLz = 1;
/// Bytes of frame header before the payload: magic + version + type +
/// payload length.
inline constexpr size_t FrameHeaderBytes = 10;
/// Hard payload bound (64 MiB): a length prefix past this is rejected
/// before any buffer is sized from it.  Far above any real evidence
/// batch (v2 images are ~100 KiB, summaries are KiB).
inline constexpr uint32_t MaxFramePayload = 64u << 20;

/// Frame message types.  Requests < 64, replies >= 64.  Types 5, 6, 69
/// and 70 carried peer-to-peer replication messages in earlier v4
/// servers; they stay unassigned, so such a frame is BadType.
enum class MessageType : uint8_t {
  // Requests.
  SubmitImages = 1,  ///< payload: ImageBundle primary ++ ImageBundle fallback
  SubmitSummary = 2, ///< payload: u64 token ++ varint CleanStreak ++ blob
  FetchPatches = 3,  ///< payload: u64 instance ++ u64 epoch the client holds
  Shutdown = 4,      ///< payload: empty (admin; server stops serving)
  /// Scrape the server's metrics snapshot (observability; read-only).
  Stats = 7, ///< payload: u8 format (see StatsFormat)

  // Replies.  Every substantive reply leads with the server's
  // u64 instance ++ u64 epoch (see encodeFetchPatches on why the pair).
  SubmitImagesReply = 64,  ///< ++ varint #overflows, varint #danglings
  SubmitSummaryReply = 65, ///< ++ CumulativeDiagnosis findings
  PatchesReply = 66,       ///< ++ u8 modified, [length-prefixed PatchSet]
  ShutdownReply = 67,      ///< payload: empty
  ErrorReply = 68,         ///< payload: length-prefixed message string
  StatsReply = 71,         ///< ++ u8 format ++ samples or text blob
};

inline bool isReply(MessageType Type) {
  return static_cast<uint8_t>(Type) >= 64;
}

/// FNV-1a over \p Size bytes (the frame payload checksum).
uint32_t frameChecksum(const uint8_t *Data, size_t Size);

/// Decodes a little-endian u32 frame-header field (shared by the buffer
/// decoder and the socket stream delimiter; host-endianness-independent).
uint32_t readFrameU32(const uint8_t *Data);

/// Encodes a complete frame around \p Payload, wrapping it in the
/// compression envelope (compressed only when that shrinks it).
/// Returns an empty buffer when the payload exceeds MaxFramePayload —
/// such a frame could never be accepted, and past 4 GiB the u32 length
/// prefix would wrap into a desynced stream, so the bound is enforced
/// on the send side too.
std::vector<uint8_t> encodeFrame(MessageType Type,
                                 const std::vector<uint8_t> &Payload);

/// A decoded frame (payload copied out of the transport buffer, with
/// the envelope already stripped/expanded).
struct Frame {
  MessageType Type = MessageType::ErrorReply;
  std::vector<uint8_t> Payload;
};

/// Why a frame failed to decode — the adversarial-input taxonomy the
/// tests pin (each must be rejected, never crash).
enum class FrameError {
  None,
  Truncated,       ///< fewer bytes than the header + length promise
  BadMagic,        ///< not a frame at all
  BadVersion,      ///< unknown protocol version
  BadType,         ///< message type outside the known set
  OversizedLength, ///< length prefix past MaxFramePayload
  BadChecksum,     ///< payload bytes do not match the checksum
  BadEncoding,     ///< envelope: unknown encoding byte or a
                   ///< compressed body that fails to expand
  OversizedExpansion, ///< envelope: declared raw size past
                      ///< MaxFramePayload (compression bomb)
};

/// Decodes one frame from \p Data; on success sets \p FrameOut and
/// \p ConsumedOut (total frame bytes).  On failure returns the reason.
FrameError decodeFrame(const uint8_t *Data, size_t Size, Frame &FrameOut,
                       size_t &ConsumedOut);

const char *frameErrorName(FrameError Error);

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

/// SubmitImages: primary and fallback image sets as two delta-encoded
/// bundles.
std::vector<uint8_t> encodeSubmitImages(const ImageEvidence &Evidence);
bool decodeSubmitImages(const std::vector<uint8_t> &Payload,
                        ImageEvidence &EvidenceOut);

/// SubmitSummary: the §5 per-run statistics plus the client's clean-run
/// streak (drives the §6.2 deferral-doubling rule server-side).
/// \p Token is the submission's random retry-dedup identity (see the
/// file comment); 0 means "untracked" and is never suppressed.
std::vector<uint8_t> encodeSubmitSummary(const RunSummary &Summary,
                                         unsigned CleanStreak,
                                         uint64_t Token);
bool decodeSubmitSummary(const std::vector<uint8_t> &Payload,
                         RunSummary &SummaryOut, unsigned &CleanStreakOut,
                         uint64_t &TokenOut);

/// FetchPatches: what the client already holds.  Epochs are only
/// comparable within one server instance — a restarted server counts
/// from 0 again — so staleness is the (instance, epoch) pair, never the
/// epoch alone (an epoch collision across restarts would silently serve
/// stale patches).  Use (0, PatchClient::NeverFetched) before the first
/// fetch.
std::vector<uint8_t> encodeFetchPatches(uint64_t KnownEpoch,
                                        uint64_t KnownInstance);
bool decodeFetchPatches(const std::vector<uint8_t> &Payload,
                        uint64_t &KnownEpochOut,
                        uint64_t &KnownInstanceOut);

/// SubmitImagesReply: the server identity, its new epoch, and how many
/// findings isolation produced from this submission.
struct ImagesReply {
  uint64_t Instance = 0;
  uint64_t Epoch = 0;
  uint64_t OverflowFindings = 0;
  uint64_t DanglingFindings = 0;
};
std::vector<uint8_t> encodeImagesReply(const ImagesReply &Reply);
bool decodeImagesReply(const std::vector<uint8_t> &Payload,
                       ImagesReply &ReplyOut);

/// SubmitSummaryReply: the server identity, its new epoch, and the
/// classifier's findings, so a remote CumulativeDriver sees exactly
/// what a local pipeline returns.
struct SummaryReply {
  uint64_t Instance = 0;
  uint64_t Epoch = 0;
  CumulativeDiagnosis Diagnosis;
};
std::vector<uint8_t> encodeSummaryReply(const SummaryReply &Reply);
bool decodeSummaryReply(const std::vector<uint8_t> &Payload,
                        SummaryReply &ReplyOut);

/// PatchesReply: the server's identity and epoch plus, when they differ
/// from the client's, the full patch set (patch sets are kilobytes, so
/// "incremental" fetch means skipping the payload when unchanged).
struct PatchesReply {
  uint64_t Instance = 0;
  uint64_t Epoch = 0;
  bool Modified = false;
  PatchSet Patches; // meaningful only when Modified
};
std::vector<uint8_t> encodePatchesReply(const PatchesReply &Reply);
bool decodePatchesReply(const std::vector<uint8_t> &Payload,
                        PatchesReply &ReplyOut);

/// ErrorReply: a short human-readable reason.
std::vector<uint8_t> encodeErrorReply(const std::string &Message);
bool decodeErrorReply(const std::vector<uint8_t> &Payload,
                      std::string &MessageOut);

/// How a Stats requester wants the snapshot serialized.
enum class StatsFormat : uint8_t {
  /// Flat MetricSample list — machine-readable, what `xtermtool watch`
  /// and the AlertEngine consume.
  Samples = 0,
  /// Server-rendered text exposition — what `xtermtool stats` prints
  /// verbatim (rendering on the server keeps every scraper's output
  /// identical to the server's own exit report).
  Text = 1,
};

/// Stats request: just the desired format.
std::vector<uint8_t> encodeStatsRequest(StatsFormat Format);
bool decodeStatsRequest(const std::vector<uint8_t> &Payload,
                        StatsFormat &FormatOut);

/// StatsReply: the server identity and epoch plus the snapshot in the
/// requested format.
struct StatsReply {
  uint64_t Instance = 0;
  uint64_t Epoch = 0;
  StatsFormat Format = StatsFormat::Samples;
  std::vector<MetricSample> Samples; ///< when Format == Samples
  std::string Text;                  ///< when Format == Text
};
std::vector<uint8_t> encodeStatsReply(const StatsReply &Reply);
bool decodeStatsReply(const std::vector<uint8_t> &Payload,
                      StatsReply &ReplyOut);

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_WIREPROTOCOL_H
