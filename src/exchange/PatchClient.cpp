//===- exchange/PatchClient.cpp - Evidence shipping client ------------------===//

#include "exchange/PatchClient.h"

#include "support/RandomGenerator.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <random>

using namespace exterminator;

/// Nonzero token identifying one summary submission.  Generated when the
/// submission is encoded, so a transport that re-sends the frame after
/// losing the reply sends the same token and the server applies the
/// summary exactly once.
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

bool PatchClient::queueFrame(MessageType Type,
                             const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Encoded = encodeFrame(Type, Payload);
  if (Encoded.empty())
    return false; // evidence exceeds the frame limit
  PendingFrames.push_back(std::move(Encoded));
  return true;
}

bool PatchClient::queueImages(const ImageEvidence &Evidence) {
  return queueFrame(MessageType::SubmitImages, encodeSubmitImages(Evidence));
}

bool PatchClient::queueSummary(const RunSummary &Summary,
                               unsigned CleanStreak) {
  return queueFrame(
      MessageType::SubmitSummary,
      encodeSubmitSummary(Summary, CleanStreak, freshSubmissionToken()));
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
  std::vector<std::vector<uint8_t>> Batch = std::move(PendingFrames);
  PendingFrames.clear();
  for (size_t Begin = 0; Begin < Batch.size(); Begin += FlushChunk) {
    const size_t End = std::min(Batch.size(), Begin + FlushChunk);
    const std::vector<std::vector<uint8_t>> Chunk(
        std::make_move_iterator(Batch.begin() + Begin),
        std::make_move_iterator(Batch.begin() + End));
    std::vector<std::vector<uint8_t>> Responses;
    if (!Transport.exchange(Chunk, Responses) ||
        Responses.size() != Chunk.size())
      return false;
    for (const std::vector<uint8_t> &Response : Responses) {
      Frame Reply;
      size_t Consumed = 0;
      if (decodeFrame(Response.data(), Response.size(), Reply, Consumed) !=
              FrameError::None ||
          Reply.Type == MessageType::ErrorReply)
        return false;
      // Track the server state the replies report so a following
      // syncPatches can skip its round trip.  A success-typed reply
      // whose payload fails to decode is a protocol failure, same as
      // in the one-shot submit paths.
      if (Reply.Type == MessageType::SubmitImagesReply) {
        ImagesReply Decoded;
        if (!decodeImagesReply(Reply.Payload, Decoded))
          return false;
        noteServerState(Decoded.Instance, Decoded.Epoch);
      } else if (Reply.Type == MessageType::SubmitSummaryReply) {
        SummaryReply Decoded;
        if (!decodeSummaryReply(Reply.Payload, Decoded))
          return false;
        noteServerState(Decoded.Instance, Decoded.Epoch);
      }
    }
  }
  return true;
}

bool PatchClient::roundTrip(MessageType Type,
                            const std::vector<uint8_t> &Payload,
                            Frame &ReplyFrame) {
  std::vector<uint8_t> Request = encodeFrame(Type, Payload);
  if (Request.empty())
    return false;
  std::vector<std::vector<uint8_t>> Responses;
  if (!Transport.exchange({std::move(Request)}, Responses) ||
      Responses.size() != 1)
    return false;
  size_t Consumed = 0;
  return decodeFrame(Responses[0].data(), Responses[0].size(), ReplyFrame,
                     Consumed) == FrameError::None &&
         ReplyFrame.Type != MessageType::ErrorReply;
}

bool PatchClient::submitImages(const ImageEvidence &Evidence,
                               ImagesReply *ReplyOut) {
  Frame Reply;
  if (!roundTrip(MessageType::SubmitImages, encodeSubmitImages(Evidence),
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
  Frame Reply;
  if (!roundTrip(MessageType::SubmitSummary,
                 encodeSubmitSummary(Summary, CleanStreak,
                                     freshSubmissionToken()),
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
                 encodeFetchPatches(MirrorEpoch, MirrorInstance), Reply) ||
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
  return roundTrip(MessageType::Shutdown, {}, Reply) &&
         Reply.Type == MessageType::ShutdownReply;
}
