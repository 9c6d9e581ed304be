//===- exchange/FailoverTransport.h - Multi-endpoint failover --*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Client-side failover over an ordered endpoint list: the transport a
/// deployed Exterminator process points at a replicated patch-server
/// fleet.  Each exchange tries the preferred endpoint first and walks
/// the list on failure, sleeping an exponentially growing, jittered
/// backoff between attempts, within a bounded attempt budget.  Because
/// every server converges to the same merged patch set (replication +
/// anti-entropy) and submissions are retry-safe (max-merge idempotence
/// for patches, dedup tokens for summaries), *any* endpoint is a
/// correct destination — failover needs no coordination, only
/// persistence.
///
/// After failing over, the client's cached (instance, epoch) simply
/// refers to a server the new endpoint is not: the next fetch misses
/// once and transfers the full set — one extra round trip, no protocol.
///
/// The jitter stream is a deterministic xorshift seeded from the
/// policy, so tests can pin that every sleep lands inside
/// [backoff·(1−jitter), backoff] without mocking a clock.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_FAILOVERTRANSPORT_H
#define EXTERMINATOR_EXCHANGE_FAILOVERTRANSPORT_H

#include "exchange/SocketTransport.h"
#include "exchange/Transport.h"

#include <memory>
#include <string>
#include <vector>

namespace exterminator {

/// Retry/backoff policy for FailoverTransport.
struct FailoverPolicy {
  /// Total exchange attempts (across all endpoints) before giving up.
  unsigned MaxAttempts = 8;
  /// Sleep before the first retry; doubles per subsequent failure.
  unsigned BaseBackoffMs = 25;
  /// Backoff ceiling.
  unsigned MaxBackoffMs = 800;
  /// Each sleep is drawn uniformly from [backoff·(1−Jitter), backoff] —
  /// decorrelates a fleet of clients retrying after the same crash.
  double JitterFraction = 0.5;
  /// Seed of the deterministic jitter stream.
  uint64_t Seed = 0x243F6A8885A308D3ull;
  /// When true, successive exchanges start from successive endpoints
  /// (round-robin load spread); when false the transport is sticky —
  /// it stays on the last endpoint that worked.
  bool Rotate = false;
};

struct FailoverStats {
  uint64_t Exchanges = 0;  ///< exchange() calls
  uint64_t Attempts = 0;   ///< inner exchange attempts
  uint64_t Failovers = 0;  ///< attempts moved to a different endpoint
  uint64_t Exhausted = 0;  ///< exchanges that spent the whole budget
};

/// ClientTransport decorator fanning one logical server across an
/// ordered endpoint list.  Not thread-safe (one client, one thread —
/// the same contract as the transports it wraps).
class FailoverTransport : public ClientTransport {
public:
  /// Socket fleet: one SocketClientTransport per endpoint, created with
  /// zero connect retries — this class owns the retry policy.
  FailoverTransport(const std::vector<Endpoint> &Endpoints,
                    const FailoverPolicy &Policy = {});

  /// Injected transports (tests, in-process fleets): borrowed, must
  /// outlive this object.  \p Labels name them in lastError(); padded
  /// with "peer<i>" when short.
  FailoverTransport(const std::vector<ClientTransport *> &Transports,
                    const FailoverPolicy &Policy = {},
                    const std::vector<std::string> &Labels = {});

  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override;

  /// Per-endpoint roll-up of the failures behind the last exhausted
  /// exchange ("label: reason; label: reason").
  std::string lastError() const override { return LastError; }

  const FailoverStats &stats() const { return Stats; }

  /// Sleeps (ms) taken during the most recent exchange, in order — what
  /// the backoff-bounds test inspects.
  const std::vector<unsigned> &backoffHistory() const {
    return LastBackoffsMs;
  }

private:
  struct Slot {
    std::string Label;
    std::unique_ptr<ClientTransport> Owned; ///< socket ctor only
    ClientTransport *Transport = nullptr;
    std::string LastError;
  };

  /// Backoff for the \p Failure-th consecutive failure (0-based):
  /// min(Base·2^Failure, Max), jittered.  Advances the RNG.
  unsigned plannedBackoffMs(unsigned Failure);

  std::vector<Slot> Slots;
  FailoverPolicy Policy;
  FailoverStats Stats;
  std::vector<unsigned> LastBackoffsMs;
  std::string LastError;
  size_t Preferred = 0;     ///< sticky start index
  size_t RotateCursor = 0;  ///< round-robin start index
  uint64_t RngState;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_FAILOVERTRANSPORT_H
