//===- exchange/Transport.h - Client transport interface -------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the exchange speaks through one interface: send a
/// batch of request frames, get one response frame per request.  Two
/// implementations exist —
///
///  * LoopbackTransport: calls a PatchServer in-process.  Deterministic
///    and dependency-free; what the round-trip equivalence tests and the
///    ingest-throughput bench run on.
///  * SocketClientTransport (SocketTransport.h): a Unix/TCP connection.
///    Batched requests pipeline over one connection.
///
/// Keeping the interface at the frame level means the protocol logic
/// (PatchClient, PatchServer) is identical over both, which is what lets
/// a test pin loopback ≡ socket.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_TRANSPORT_H
#define EXTERMINATOR_EXCHANGE_TRANSPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace exterminator {

class PatchServer;

/// Frame-level request/response transport.
class ClientTransport {
public:
  virtual ~ClientTransport();

  /// Ships every frame in \p Requests and collects one response frame
  /// per request, in order.  Returns false on transport failure; \p
  /// ResponsesOut then holds, best-effort, the prefix of responses that
  /// *were* received before the failure — which is where a caller finds
  /// the ErrorReply a server sends right before closing the connection
  /// on a fatal frame in a pipelined batch.
  virtual bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                        std::vector<std::vector<uint8_t>> &ResponsesOut) = 0;

  /// Human-readable reason for the most recent exchange() failure —
  /// endpoint and errno for sockets — so a failed submission names what
  /// broke instead of a bare false.  Empty when nothing failed (or the
  /// transport cannot say).
  virtual std::string lastError() const { return {}; }
};

/// In-process transport: requests go straight to a PatchServer.
class LoopbackTransport : public ClientTransport {
public:
  explicit LoopbackTransport(PatchServer &Server) : Server(Server) {}

  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override;

private:
  PatchServer &Server;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_TRANSPORT_H
