//===- exchange/PatchClient.h - Evidence shipping client -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the patch exchange: batches evidence (heap-image
/// sets and run summaries), ships it over any ClientTransport, and keeps
/// a local mirror of the server's merged patch set keyed by epoch.
///
/// Batching matters on real transports: a deployed process queues the
/// evidence of several runs and flushes once; frames pipeline in
/// bounded chunks (one connection per 32-frame chunk, so a thousand
/// queued summaries cost a handful of connections, not a thousand).  Fetches are
/// incremental by (instance, epoch) — the common case ("nothing new")
/// is a 17-byte reply payload with no patch set in it, and syncPatches
/// skips even that when the last submission reply already proved the
/// mirror current.
///
/// There is no version negotiation: the client speaks the one wire
/// version (WireProtocol.h), and a server that rejects it is a failed
/// exchange like any other.  Queued evidence is encoded into its frame
/// once, at queue time — which is also where the frame bound is
/// checked — so flush() ships bytes, never re-encodes, and a summary's
/// dedup token is fixed in its frame for every retry a transport makes.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_PATCHCLIENT_H
#define EXTERMINATOR_EXCHANGE_PATCHCLIENT_H

#include "exchange/Transport.h"
#include "exchange/WireProtocol.h"

namespace exterminator {

/// Batching, epoch-caching client of a PatchServer.
class PatchClient {
public:
  /// Epoch value meaning "I hold nothing" — never equal to a server
  /// epoch, so the first fetch always transfers.
  static constexpr uint64_t NeverFetched = ~uint64_t(0);

  explicit PatchClient(ClientTransport &Transport) : Transport(Transport) {}

  /// \name Batched submission
  /// queue* encodes evidence into the pending batch; flush() ships it
  /// in bounded chunks (FlushChunk frames per transport exchange, so
  /// unread pipelined replies can never outgrow socket buffers and
  /// deadlock a write-write pair).
  /// @{
  /// Returns false (queueing nothing) when the encoded evidence exceeds
  /// the wire frame limit — submit fewer images per evidence set.
  bool queueImages(const ImageEvidence &Evidence);
  bool queueSummary(const RunSummary &Summary, unsigned CleanStreak);
  size_t pendingCount() const { return PendingFrames.size(); }
  /// Ships the batch; returns false on transport failure or any error
  /// reply (the batch is dropped either way — evidence submission is
  /// idempotent under max-merge, so callers just re-collect).
  bool flush();
  /// @}

  /// \name One-shot submission
  /// @{
  /// Submits one image-evidence set; on success optionally reports how
  /// many findings isolation derived.
  bool submitImages(const ImageEvidence &Evidence,
                    ImagesReply *ReplyOut = nullptr);
  /// Submits one run summary; on success optionally reports the
  /// classifier's findings (what a local submitSummary would return).
  bool submitSummary(const RunSummary &Summary, unsigned CleanStreak,
                     CumulativeDiagnosis *DiagnosisOut = nullptr);
  /// @}

  /// Pulls the server's patch set if it changed since the last fetch;
  /// returns false on transport/protocol failure.  On success patches()
  /// and epoch() reflect the server.
  bool fetchPatches();

  /// fetchPatches, skipped entirely when the last submission reply
  /// already proved the mirror current (every reply carries the
  /// server's (instance, epoch); a driver that just submitted knows
  /// whether anything changed without another round trip).
  bool syncPatches();

  /// Asks the server to stop serving (admin; used by `xtermtool
  /// shutdown` and test teardown).
  bool shutdownServer();

  /// Last fetched merged patch set (empty before the first fetch).
  const PatchSet &patches() const { return Mirror; }
  /// Epoch of patches(); NeverFetched before the first fetch.
  uint64_t epoch() const { return MirrorEpoch; }
  /// Server instance patches() came from; 0 before the first fetch.
  uint64_t serverInstance() const { return MirrorInstance; }

private:
  /// Frames \p Payload into the pending batch; false (queueing nothing)
  /// when it exceeds the frame bound.
  bool queueFrame(MessageType Type, const std::vector<uint8_t> &Payload);

  /// Ships one request frame and decodes the single reply frame into
  /// \p ReplyFrame; returns false on transport failure or ErrorReply.
  bool roundTrip(MessageType Type, const std::vector<uint8_t> &Payload,
                 Frame &ReplyFrame);

  /// Records the (instance, epoch) a submission reply reported.
  void noteServerState(uint64_t Instance, uint64_t Epoch);

  /// Frames per transport exchange in flush() (bounds pipelined unread
  /// replies; see flush()).
  static constexpr size_t FlushChunk = 32;

  ClientTransport &Transport;
  /// Encoded request frames awaiting flush(), in queue order.
  std::vector<std::vector<uint8_t>> PendingFrames;
  PatchSet Mirror;
  uint64_t MirrorEpoch = NeverFetched;
  uint64_t MirrorInstance = 0;
  /// Latest (instance, epoch) any reply reported; what syncPatches
  /// compares against the mirror.
  uint64_t SeenInstance = 0;
  uint64_t SeenEpoch = NeverFetched;
  bool SeenAnything = false;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_PATCHCLIENT_H
