//===- exchange/Replication.cpp - Leaderless server replication -----------===//

#include "exchange/Replication.h"

#include <chrono>

using namespace exterminator;

ReplicaSet::Peer::Peer()
    : PushedEpoch(ReplicaSet::NeverAcked),
      SeenEpoch(ReplicaSet::NeverAcked) {}

ReplicaSet::ReplicaSet(PatchServer &Local) : Local(Local) {
  Local.attachReplication(this);
}

ReplicaSet::~ReplicaSet() {
  stop();
  Local.attachReplication(nullptr);
}

void ReplicaSet::addPeer(const std::string &Label,
                         std::unique_ptr<ClientTransport> Transport) {
  auto P = std::make_unique<Peer>();
  P->Label = Label;
  P->Transport = std::move(Transport);
  std::lock_guard<std::mutex> Lock(Mutex);
  Peers.push_back(std::move(P));
}

void ReplicaSet::addPeer(const Endpoint &Ep) {
  addPeer(endpointToString(Ep),
          std::make_unique<SocketClientTransport>(Ep, /*ConnectRetries=*/0));
}

size_t ReplicaSet::peerCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Peers.size();
}

ReplicaSetStats ReplicaSet::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

void ReplicaSet::attachMetrics(MetricsRegistry &Registry) {
  Registry.addCollector(
      [this](std::vector<MetricSample> &Out) { collectMetrics(Out); });
}

void ReplicaSet::collectMetrics(std::vector<MetricSample> &Out) const {
  // Fetch the local epoch *before* taking the replica mutex: epoch()
  // locks the server, and Mutex is never held across calls into Local
  // (the lock-order rule in the member comment applies to collectors
  // too).
  const uint64_t LocalEpoch = Local.epoch();
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsRegistry::addCounter(Out, "xterm_replication_records_streamed_total",
                              {}, double(Counters.RecordsStreamed));
  MetricsRegistry::addCounter(Out, "xterm_replication_stream_failures_total",
                              {}, double(Counters.StreamFailures));
  MetricsRegistry::addCounter(Out, "xterm_replication_anti_entropy_rounds_total",
                              {}, double(Counters.AntiEntropyRounds));
  MetricsRegistry::addCounter(Out, "xterm_replication_push_merges_total", {},
                              double(Counters.PushMerges));
  MetricsRegistry::addCounter(Out, "xterm_replication_pull_merges_total", {},
                              double(Counters.PullMerges));
  MetricsRegistry::addCounter(Out, "xterm_replication_queue_overflows_total",
                              {}, double(Counters.QueueOverflows));
  for (const std::unique_ptr<Peer> &P : Peers) {
    const std::string Labels = MetricsRegistry::label("peer", P->Label);
    MetricsRegistry::addGauge(Out, "xterm_replication_queue_depth", Labels,
                              double(P->Outbound.size()));
    const uint64_t Lag = P->PushedEpoch == NeverAcked
                             ? LocalEpoch
                             : (LocalEpoch > P->PushedEpoch
                                    ? LocalEpoch - P->PushedEpoch
                                    : 0);
    MetricsRegistry::addGauge(Out, "xterm_replication_acked_epoch_lag", Labels,
                              double(Lag));
  }
}

void ReplicaSet::enqueueAll(MessageType Type,
                            const std::vector<uint8_t> &Payload) {
  const std::vector<uint8_t> Encoded = encodeFrame(Type, Payload);
  if (Encoded.empty())
    return; // over the frame limit; anti-entropy will carry the state
  bool Notify = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto &P : Peers) {
      if (P->Outbound.size() >= MaxQueuedPerPeer) {
        // Bounded queue: drop the oldest record and force the next
        // anti-entropy round to push the full set, so a dropped patch
        // delta is deferred, never lost.  A dropped summary is lost to
        // this peer (it cannot be reconstructed from the merged set);
        // the origin server still holds it durably.
        P->Outbound.pop_front();
        P->PushedEpoch = NeverAcked;
        ++Counters.QueueOverflows;
      }
      P->Outbound.push_back(Encoded);
      Notify = true;
    }
    WakeFlag = Notify;
  }
  if (Notify)
    Wake.notify_all();
}

void ReplicaSet::onPatchDelta(const PatchSet &Delta) {
  enqueueAll(MessageType::MergePatches, encodeMergePatches(Delta));
}

void ReplicaSet::onSummary(const RunSummary &Summary, unsigned CleanStreak,
                           uint64_t Token) {
  enqueueAll(MessageType::ReplicateSummary,
             encodeSubmitSummary(Summary, CleanStreak, Token));
}

bool ReplicaSet::drainPeer(Peer &P) {
  // Copy the queue head under the lock, ship outside it, pop what was
  // acked.  Records enqueued mid-exchange stay behind the copied batch,
  // so per-peer order is preserved.
  std::vector<std::vector<uint8_t>> Batch;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Batch.assign(P.Outbound.begin(), P.Outbound.end());
  }
  if (Batch.empty())
    return true;

  std::vector<std::vector<uint8_t>> Responses;
  if (!P.Transport->exchange(Batch, Responses) ||
      Responses.size() != Batch.size()) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.StreamFailures;
    return false;
  }

  size_t Acked = 0, Rejected = 0;
  for (const std::vector<uint8_t> &Response : Responses) {
    Frame Reply;
    size_t Consumed = 0;
    // A garbled reply or an ErrorReply (a poison record) counts as a
    // reject: dropped, not retried forever.
    if (decodeFrame(Response.data(), Response.size(), Reply, Consumed) ==
            FrameError::None &&
        Reply.Type != MessageType::ErrorReply)
      ++Acked;
    else
      ++Rejected;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    // The transport delivered every frame, so the whole batch leaves
    // the queue either way; rejects only affect the counters.
    for (size_t I = 0; I < Batch.size() && !P.Outbound.empty(); ++I)
      P.Outbound.pop_front();
    Counters.RecordsStreamed += Acked;
    Counters.StreamFailures += Rejected;
  }
  return Rejected == 0;
}

bool ReplicaSet::drainOnce() {
  size_t Count;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Count = Peers.size();
  }
  bool AllOk = true;
  for (size_t I = 0; I < Count; ++I) {
    Peer *P;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      P = Peers[I].get();
    }
    AllOk = drainPeer(*P) && AllOk;
  }
  return AllOk;
}

size_t ReplicaSet::antiEntropyOnce() {
  const PatchSnapshot Snap = Local.snapshot();
  size_t Count;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.AntiEntropyRounds;
    Count = Peers.size();
  }

  size_t Answered = 0;
  for (size_t I = 0; I < Count; ++I) {
    Peer *P;
    uint64_t PushedEpoch, SeenInstance, SeenEpoch;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      P = Peers[I].get();
      PushedEpoch = P->PushedEpoch;
      SeenInstance = P->SeenInstance;
      SeenEpoch = P->SeenEpoch;
    }

    // Push before pull in one batched exchange: the pull's reply then
    // already reflects the push, so the merged result this round is the
    // pairwise join.  Full-set pushes are the biggest frames replication
    // ships; they ride compressed like every other frame.
    const bool Push = PushedEpoch != Snap.Epoch;
    std::vector<std::vector<uint8_t>> Requests;
    if (Push)
      Requests.push_back(encodeFrame(MessageType::MergePatches,
                                     encodeMergePatches(Snap.Patches)));
    Requests.push_back(
        encodeFrame(MessageType::FetchPatches,
                    encodeFetchPatches(SeenEpoch, SeenInstance)));

    std::vector<std::vector<uint8_t>> Responses;
    if (!P->Transport->exchange(Requests, Responses) ||
        Responses.size() != Requests.size())
      continue;
    ++Answered;

    size_t R = 0;
    if (Push) {
      Frame Reply;
      size_t Consumed = 0;
      MergeReply Merge;
      if (decodeFrame(Responses[R].data(), Responses[R].size(), Reply,
                      Consumed) == FrameError::None &&
          Reply.Type == MessageType::MergePatchesReply &&
          decodeMergeReply(Reply.Payload, Merge)) {
        std::lock_guard<std::mutex> Lock(Mutex);
        // The peer now holds everything up to the epoch we serialized;
        // a concurrent local change re-arms the next round.  The
        // reply's (instance, epoch) is NOT recorded as Seen — it
        // describes a peer state (their set joined with ours) this
        // server has not absorbed.
        P->PushedEpoch = Snap.Epoch;
        if (Merge.Changed)
          ++Counters.PushMerges;
      }
      ++R;
    }

    Frame Reply;
    size_t Consumed = 0;
    PatchesReply Pulled;
    if (decodeFrame(Responses[R].data(), Responses[R].size(), Reply,
                    Consumed) != FrameError::None ||
        Reply.Type != MessageType::PatchesReply ||
        !decodePatchesReply(Reply.Payload, Pulled))
      continue;
    if (Pulled.Modified) {
      if (Local.mergePatches(Pulled.Patches)) {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.PullMerges;
      }
    }
    {
      // Now the local set contains the peer's state as of its reply —
      // the pair a converged next round answers "unmodified" to.
      std::lock_guard<std::mutex> Lock(Mutex);
      P->SeenInstance = Pulled.Instance;
      P->SeenEpoch = Pulled.Epoch;
    }
  }
  return Answered;
}

void ReplicaSet::pumpLoop(unsigned IntervalMs) {
  const auto Interval =
      std::chrono::milliseconds(IntervalMs ? IntervalMs : 1);
  auto NextAnti = std::chrono::steady_clock::now() + Interval;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Wake.wait_until(Lock, NextAnti,
                      [this] { return Stopping || WakeFlag; });
      if (Stopping)
        return;
      WakeFlag = false;
    }
    drainOnce();
    const auto Now = std::chrono::steady_clock::now();
    if (Now >= NextAnti) {
      antiEntropyOnce();
      NextAnti = Now + Interval;
    }
  }
}

void ReplicaSet::start(unsigned IntervalMs) {
  if (Background.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = false;
  }
  Background = std::thread([this, IntervalMs] { pumpLoop(IntervalMs); });
}

void ReplicaSet::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  Wake.notify_all();
  if (Background.joinable())
    Background.join();
}
