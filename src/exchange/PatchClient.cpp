//===- exchange/PatchClient.cpp - Evidence shipping client ------------------===//

#include "exchange/PatchClient.h"

#include "support/RandomGenerator.h"

#include <algorithm>
#include <atomic>
#include <random>

using namespace exterminator;

/// Nonzero token identifying one summary submission.  Generated when the
/// submission is *queued*, so every retry of that submission — by a
/// failover transport, a flaky network, or a version downgrade — carries
/// the same token and the server applies the summary exactly once.
///
/// Tokens are a process-wide atomic counter passed through SplitMix64
/// (a bijection) keyed by one random value per process: two calls in
/// one process, from any threads, never collide, and tokens from
/// different processes look independent.  0 means "tokenless" on the
/// wire, so the one counter value that mixes to 0 is skipped.
static uint64_t freshSubmissionToken() {
  static const uint64_t Key = [] {
    std::random_device Device;
    return (uint64_t(Device()) << 32) | Device();
  }();
  static std::atomic<uint64_t> Counter{0};
  uint64_t Token = 0;
  while (Token == 0) {
    uint64_t State = Key + Counter.fetch_add(1, std::memory_order_relaxed);
    Token = splitMix64(State);
  }
  return Token;
}

/// The bundle format a peer at \p WireVersion understands: v4 peers
/// take delta bundles, v3 peers predate the delta codec.
static uint32_t bundleVersionFor(uint8_t WireVersion) {
  return WireVersion >= ProtocolVersion ? ImageBundleFormatV2
                                        : ImageBundleFormatV1;
}

bool PatchClient::downgrade() {
  if (PeerVersion <= LegacyProtocolVersion)
    return false;
  PeerVersion = LegacyProtocolVersion;
  return true;
}

std::vector<uint8_t>
PatchClient::encodePending(const PendingRequest &Request,
                           uint8_t Version) const {
  if (Request.Type == MessageType::SubmitImages)
    return encodeFrame(
        MessageType::SubmitImages,
        encodeSubmitImages(Request.Evidence, bundleVersionFor(Version)),
        Version);
  return encodeFrame(MessageType::SubmitSummary,
                     encodeSubmitSummary(Request.Summary, Request.CleanStreak,
                                         Request.Token),
                     Version);
}

bool PatchClient::queueImages(const ImageEvidence &Evidence) {
  PendingRequest Request;
  Request.Type = MessageType::SubmitImages;
  Request.Evidence = Evidence;
  // Validate the frame bound at queue time, against the *legacy*
  // encoding — the larger of the two, so a mid-batch downgrade can
  // never turn an accepted submission unencodable.
  if (encodePending(Request, LegacyProtocolVersion).empty())
    return false; // evidence exceeds the frame limit
  PendingRequests.push_back(std::move(Request));
  return true;
}

bool PatchClient::queueSummary(const RunSummary &Summary,
                               unsigned CleanStreak) {
  PendingRequest Request;
  Request.Type = MessageType::SubmitSummary;
  Request.Summary = Summary;
  Request.CleanStreak = CleanStreak;
  Request.Token = freshSubmissionToken();
  if (encodePending(Request, LegacyProtocolVersion).empty())
    return false;
  PendingRequests.push_back(std::move(Request));
  return true;
}

void PatchClient::noteServerState(uint64_t Instance, uint64_t Epoch) {
  SeenInstance = Instance;
  SeenEpoch = Epoch;
  SeenAnything = true;
}

bool PatchClient::flush() {
  // Bounded chunks: with pipelining, replies to early requests sit
  // unread while later requests are still being written; a chunk keeps
  // that backlog far below any socket buffer so neither peer can end up
  // blocked in send() against the other.
  std::vector<PendingRequest> Batch = std::move(PendingRequests);
  PendingRequests.clear();
  for (size_t Begin = 0; Begin < Batch.size(); Begin += FlushChunk) {
    const size_t End = std::min(Batch.size(), Begin + FlushChunk);
    // A chunk retries at most once, after a downgrade: requests are
    // re-encoded from their parameters (same tokens, legacy bundles),
    // and the rejecting server never processed them.
    for (;;) {
      std::vector<std::vector<uint8_t>> Chunk;
      Chunk.reserve(End - Begin);
      for (size_t I = Begin; I < End; ++I) {
        Chunk.push_back(encodePending(Batch[I], PeerVersion));
        if (Chunk.back().empty())
          return false;
      }
      std::vector<std::vector<uint8_t>> Responses;
      if (!Transport.exchange(Chunk, Responses) ||
          Responses.size() != Chunk.size()) {
        // A pre-v4 server rejects the first pipelined frame and closes;
        // the transport reports wholesale failure but the rejection
        // sits in the received prefix.  Only that evidence downgrades —
        // a bare transport fault stays a failure.
        if (sawVersionRejection(Responses) && downgrade())
          continue;
        return false;
      }
      bool VersionRejected = false;
      bool Ok = true;
      for (const std::vector<uint8_t> &Response : Responses) {
        Frame Reply;
        size_t Consumed = 0;
        if (decodeFrame(Response.data(), Response.size(), Reply,
                        Consumed) != FrameError::None) {
          Ok = false;
          break;
        }
        if (Reply.Type == MessageType::ErrorReply) {
          VersionRejected = isVersionRejection(Reply);
          Ok = false;
          break;
        }
        // Track the server state the replies report so a following
        // syncPatches can skip its round trip.  A success-typed reply
        // whose payload fails to decode is a protocol failure, same as
        // in the one-shot submit paths.
        if (Reply.Type == MessageType::SubmitImagesReply) {
          ImagesReply Decoded;
          if (!decodeImagesReply(Reply.Payload, Decoded)) {
            Ok = false;
            break;
          }
          noteServerState(Decoded.Instance, Decoded.Epoch);
        } else if (Reply.Type == MessageType::SubmitSummaryReply) {
          SummaryReply Decoded;
          if (!decodeSummaryReply(Reply.Payload, Decoded)) {
            Ok = false;
            break;
          }
          noteServerState(Decoded.Instance, Decoded.Epoch);
        }
      }
      if (Ok)
        break;
      if (VersionRejected && downgrade())
        continue;
      return false;
    }
  }
  return true;
}

template <typename BuildPayloadFn>
bool PatchClient::roundTrip(MessageType Type, BuildPayloadFn BuildPayload,
                            Frame &ReplyFrame) {
  // At most two passes: the second runs only after a downgrade, against
  // a server that rejected (and therefore never processed) the first.
  for (;;) {
    std::vector<uint8_t> Request =
        encodeFrame(Type, BuildPayload(PeerVersion), PeerVersion);
    if (Request.empty())
      return false;
    std::vector<std::vector<uint8_t>> Responses;
    if (!Transport.exchange({std::move(Request)}, Responses) ||
        Responses.size() != 1) {
      if (sawVersionRejection(Responses) && downgrade())
        continue;
      return false;
    }
    size_t Consumed = 0;
    if (decodeFrame(Responses[0].data(), Responses[0].size(), ReplyFrame,
                    Consumed) != FrameError::None)
      return false;
    if (ReplyFrame.Type != MessageType::ErrorReply)
      return true;
    if (isVersionRejection(ReplyFrame) && downgrade())
      continue;
    return false;
  }
}

bool PatchClient::submitImages(const ImageEvidence &Evidence,
                               ImagesReply *ReplyOut) {
  Frame Reply;
  if (!roundTrip(MessageType::SubmitImages,
                 [&](uint8_t Version) {
                   return encodeSubmitImages(Evidence,
                                             bundleVersionFor(Version));
                 },
                 Reply) ||
      Reply.Type != MessageType::SubmitImagesReply)
    return false;
  ImagesReply Decoded;
  if (!decodeImagesReply(Reply.Payload, Decoded))
    return false;
  noteServerState(Decoded.Instance, Decoded.Epoch);
  if (ReplyOut)
    *ReplyOut = Decoded;
  return true;
}

bool PatchClient::submitSummary(const RunSummary &Summary,
                                unsigned CleanStreak,
                                CumulativeDiagnosis *DiagnosisOut) {
  // Token minted once, outside the payload builder: a downgrade retry
  // must carry the same token or a replica pair could double-count.
  const uint64_t Token = freshSubmissionToken();
  Frame Reply;
  if (!roundTrip(MessageType::SubmitSummary,
                 [&](uint8_t) {
                   return encodeSubmitSummary(Summary, CleanStreak, Token);
                 },
                 Reply) ||
      Reply.Type != MessageType::SubmitSummaryReply)
    return false;
  SummaryReply Decoded;
  if (!decodeSummaryReply(Reply.Payload, Decoded))
    return false;
  noteServerState(Decoded.Instance, Decoded.Epoch);
  if (DiagnosisOut)
    *DiagnosisOut = std::move(Decoded.Diagnosis);
  return true;
}

bool PatchClient::fetchPatches() {
  Frame Reply;
  if (!roundTrip(MessageType::FetchPatches,
                 [&](uint8_t) {
                   return encodeFetchPatches(MirrorEpoch, MirrorInstance);
                 },
                 Reply) ||
      Reply.Type != MessageType::PatchesReply)
    return false;
  PatchesReply Decoded;
  if (!decodePatchesReply(Reply.Payload, Decoded))
    return false;
  if (Decoded.Modified) {
    Mirror = std::move(Decoded.Patches);
  } else if (MirrorEpoch != Decoded.Epoch ||
             MirrorInstance != Decoded.Instance) {
    return false; // unmodified must mean "exactly what I sent"
  }
  MirrorEpoch = Decoded.Epoch;
  MirrorInstance = Decoded.Instance;
  noteServerState(Decoded.Instance, Decoded.Epoch);
  return true;
}

bool PatchClient::syncPatches() {
  if (SeenAnything && SeenInstance == MirrorInstance &&
      SeenEpoch == MirrorEpoch)
    return true; // the last reply proved the mirror current
  return fetchPatches();
}

bool PatchClient::shutdownServer() {
  Frame Reply;
  return roundTrip(MessageType::Shutdown,
                   [](uint8_t) { return std::vector<uint8_t>(); }, Reply) &&
         Reply.Type == MessageType::ShutdownReply;
}
