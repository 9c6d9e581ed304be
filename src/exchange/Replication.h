//===- exchange/Replication.h - Leaderless server replication --*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Leaderless replication for a fleet of patch servers.  Every server
/// runs a ReplicaSet over the full peer mesh; correctness rests on two
/// properties the rest of the system already pins:
///
///  * Patch merges are a max-merge — commutative, associative,
///    idempotent — so patch state is a join-semilattice: servers
///    converge to the same set no matter the delivery order or count,
///    and serialization is canonical (sorted), so converged sets are
///    bit-identical on the wire and on disk.
///  * Run summaries are *not* idempotent (they grow the Bayesian trial
///    history), so each carries its origin's dedup token; a summary
///    reaching a server twice — by any combination of client retry and
///    replica forwarding — applies once.
///
/// Two mechanisms, layered:
///
///  1. **Journal streaming** (hot path): the local server hands every
///     accepted local-origin change to onPatchDelta/onSummary — exactly
///     the records it journals ("XSJ1" records, re-encoded as
///     MergePatches/ReplicateSummary wire frames).  Each peer has a
///     bounded outbound queue drained in batched exchanges.  Forwarded
///     changes are *not* re-forwarded by the receiver (the no-restream
///     rule): a full mesh delivers direct in one hop, and transitive
///     delivery — peer links down, queue overflow, a restarted peer —
///     is anti-entropy's job.
///
///  2. **Anti-entropy** (repair path): periodically, for each peer,
///     push the full local patch set unless the peer already acked the
///     current epoch, and pull the peer's set via FetchPatches keyed on
///     the cached (instance, epoch) — so a converged pair exchanges two
///     tiny frames and no patch bytes.  Pulled sets max-merge into the
///     local server.  Patch state lost from an overflowed stream queue
///     is repaired here; streamed summaries dropped by overflow are
///     lost to the peers (bounded queues must drop something, and
///     summaries cannot be max-merged) — the origin server still holds
///     them durably.
///
/// Epoch bookkeeping: a peer's *own* pushes never tell it what the
/// target's set contains, so push-skipping keys on the local epoch the
/// peer last acked, and pull-skipping keys on the peer's (instance,
/// epoch) — the same staleness pair clients use, which is what makes a
/// restarted peer (fresh instance) automatically re-sync both ways.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_REPLICATION_H
#define EXTERMINATOR_EXCHANGE_REPLICATION_H

#include "exchange/PatchServer.h"
#include "exchange/SocketTransport.h"
#include "exchange/Transport.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace exterminator {

struct ReplicaSetStats {
  uint64_t RecordsStreamed = 0;   ///< journal records acked by a peer
  uint64_t StreamFailures = 0;    ///< per-peer drain attempts that failed
  uint64_t AntiEntropyRounds = 0; ///< antiEntropyOnce() calls
  uint64_t PushMerges = 0;        ///< full-set pushes that changed a peer
  uint64_t PullMerges = 0;        ///< pulls that changed the local set
  uint64_t QueueOverflows = 0;    ///< streamed records dropped (bounded queue)
};

/// One server's replication links to its peers.  Construct around the
/// local server (the constructor attaches itself as the replication
/// sink), add peers, then either start() the background pump or drive
/// drainOnce()/antiEntropyOnce() by hand (what deterministic tests do).
class ReplicaSet : public ReplicationSink {
public:
  explicit ReplicaSet(PatchServer &Local);
  ~ReplicaSet() override;

  ReplicaSet(const ReplicaSet &) = delete;
  ReplicaSet &operator=(const ReplicaSet &) = delete;

  /// Adds a peer behind an owned transport (tests and in-process
  /// fleets use LoopbackTransport here).  Add peers before start().
  void addPeer(const std::string &Label,
               std::unique_ptr<ClientTransport> Transport);

  /// Adds a socket peer (`serve --peer`).  Zero connect retries: a
  /// down peer fails fast and the stream queue + anti-entropy retry.
  void addPeer(const Endpoint &Ep);

  size_t peerCount() const;

  /// \name ReplicationSink (called by the local server, outside its mutex)
  /// @{
  void onPatchDelta(const PatchSet &Delta) override;
  void onSummary(const RunSummary &Summary, unsigned CleanStreak,
                 uint64_t Token) override;
  /// @}

  /// Ships every queued record to every peer (one batched exchange per
  /// peer).  A peer that fails keeps its queue for the next call.
  /// Returns true when every peer acked everything queued.
  bool drainOnce();

  /// One anti-entropy round over all peers (push + pull, batched into
  /// one exchange per peer).  Returns how many peers answered.
  size_t antiEntropyOnce();

  /// Background pump: drain on demand (woken by enqueues), anti-entropy
  /// every \p IntervalMs.
  void start(unsigned IntervalMs = 1000);
  void stop();

  ReplicaSetStats stats() const;

  /// Attaches the observability plane: a pull collector exporting the
  /// replication counters plus per-peer queue depth and acked-epoch lag
  /// gauges (labelled peer="<Label>").  Lag is how many epochs the
  /// local set is ahead of the peer's last acked push (a peer that
  /// never acked lags by the full local epoch).  Attach before serving;
  /// this set must outlive the registry's last snapshot.
  void attachMetrics(MetricsRegistry &Registry);

private:
  void collectMetrics(std::vector<MetricSample> &Out) const;

  struct Peer {
    std::string Label;
    std::unique_ptr<ClientTransport> Transport;
    /// Encoded replication frames awaiting this peer, oldest first.
    /// Each record is framed once, in enqueueAll, and the same bytes go
    /// to every peer on every attempt.
    std::deque<std::vector<uint8_t>> Outbound;
    /// Local epoch this peer last acked a full-set push for;
    /// NeverAcked until then.
    uint64_t PushedEpoch;
    /// The peer's identity, for pull staleness (client semantics).
    uint64_t SeenInstance = 0;
    uint64_t SeenEpoch;
    Peer();
  };

  static constexpr uint64_t NeverAcked = ~uint64_t(0);
  /// Outbound bound per peer: past this the oldest record is dropped
  /// and PushedEpoch reset so the next anti-entropy round pushes the
  /// full set (patch deltas are thereby never lost, only deferred).
  static constexpr size_t MaxQueuedPerPeer = 1024;

  void enqueueAll(MessageType Type, const std::vector<uint8_t> &Payload);
  bool drainPeer(Peer &P);
  void pumpLoop(unsigned IntervalMs);

  PatchServer &Local;
  /// Guards Peers' queues and cursors plus Counters; never held across
  /// transport IO or calls into Local.
  mutable std::mutex Mutex;
  std::condition_variable Wake;
  bool WakeFlag = false;
  bool Stopping = false;
  std::vector<std::unique_ptr<Peer>> Peers;
  ReplicaSetStats Counters;
  std::thread Background;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_REPLICATION_H
