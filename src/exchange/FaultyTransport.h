//===- exchange/FaultyTransport.h - Fault-injection decorator --*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ClientTransport decorator that injects transport faults on a
/// script: the deterministic half of the chaos harness.  Each
/// exchange() consumes the next scripted fault (pass-through when the
/// script is empty), so a test can spell out exactly the failure
/// sequence it wants — "deliver this submission but lose the reply,
/// then behave" — and assert the recovery byte-for-byte.
///
/// The faults model what a real socket does, seen from the frame level:
///
///  * FailConnect — the server was unreachable; nothing was delivered.
///  * DropReply — the connection died after the requests flushed: the
///    server applied them, the client learned nothing.  The fault that
///    makes retries produce duplicates, which is what the summary dedup
///    tokens exist for.
///  * Duplicate — the whole batch is delivered twice (a retransmit a
///    load balancer or an over-eager retry layer might produce).
///  * TruncateReply — the reply stream was cut mid-frame; the client
///    sees a partial frame and must reject it cleanly.
///  * Delay — the exchange completes, late.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_FAULTYTRANSPORT_H
#define EXTERMINATOR_EXCHANGE_FAULTYTRANSPORT_H

#include "exchange/Transport.h"

#include <deque>

namespace exterminator {

enum class TransportFault : uint8_t {
  None,          ///< pass through
  FailConnect,   ///< fail; nothing reaches the server
  DropReply,     ///< deliver to the server; report transport failure
  Duplicate,     ///< deliver the batch twice; return the second replies
  TruncateReply, ///< deliver; return the last reply frame cut in half
  Delay,         ///< deliver after DelayMs
};

struct FaultyTransportStats {
  uint64_t Exchanges = 0;
  uint64_t Injected = 0; ///< exchanges that consumed a non-None fault
};

/// Scripted fault injection around any ClientTransport.
class FaultyTransport : public ClientTransport {
public:
  explicit FaultyTransport(ClientTransport &Inner) : Inner(Inner) {}

  /// Appends one fault to the script (consumed FIFO, one per
  /// exchange).
  void push(TransportFault Kind, unsigned DelayMs = 0) {
    Script.push_back({Kind, DelayMs});
  }

  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override;

  std::string lastError() const override { return LastError; }

  const FaultyTransportStats &stats() const { return Stats; }

private:
  struct Plan {
    TransportFault Kind = TransportFault::None;
    unsigned DelayMs = 0;
  };

  ClientTransport &Inner;
  std::deque<Plan> Script;
  FaultyTransportStats Stats;
  std::string LastError;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_FAULTYTRANSPORT_H
