//===- exchange/SocketTransport.h - Unix/TCP transport ---------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket leg of the patch exchange: a client transport that
/// pipelines frames over one Unix-domain or TCP connection, and a server
/// front-end that pumps accepted connections through PatchServer on a
/// small accept/worker loop built from support/Executor's parallelFor.
///
/// Endpoints are spelled as strings so the CLI, the example, and the
/// tests share one parser:
///
///   unix:/path/to.sock       Unix-domain socket
///   tcp:PORT                 TCP on 127.0.0.1 (0 = kernel-assigned)
///   tcp:HOST:PORT            TCP on an explicit IPv4 literal (no
///                            resolver: hostnames are a parse error)
///
/// Framing over the byte stream is the wire protocol's own: read the
/// fixed header, bound-check the length, read payload + checksum.  A
/// connection that sends garbage gets an ErrorReply and is closed — the
/// server never dies on hostile input (tests pin this).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_EXCHANGE_SOCKETTRANSPORT_H
#define EXTERMINATOR_EXCHANGE_SOCKETTRANSPORT_H

#include "exchange/Transport.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

namespace exterminator {

class MetricsRegistry;
class PatchServer;

/// A parsed endpoint string.
struct Endpoint {
  enum Kind { Unix, Tcp } Family = Unix;
  std::string Path; ///< Unix: socket path.
  std::string Host; ///< Tcp: IPv4 host (default 127.0.0.1).
  uint16_t Port = 0;
};

/// Parses "unix:PATH", "tcp:PORT", or "tcp:HOST:PORT"; returns false on
/// anything else.
bool parseEndpoint(const std::string &Spec, Endpoint &Out);

/// Parses a comma-separated endpoint list — the failover spelling the
/// CLI accepts ("unix:/a.sock,tcp:7302,tcp:10.0.0.3:7303"); order is
/// preference order.  False on an empty list or any bad element.
bool parseEndpointList(const std::string &Spec, std::vector<Endpoint> &Out);

/// Renders an endpoint back to its string spelling.
std::string endpointToString(const Endpoint &Ep);

/// Client transport over one connection per exchange.  Each exchange
/// connects, writes every request frame (pipelining), reads one response
/// frame per request, and closes.
class SocketClientTransport : public ClientTransport {
public:
  /// \param ConnectRetries extra connect attempts (50 ms apart) before
  ///        giving up — absorbs the server-startup race in scripted use
  ///        (CI starts `xtermtool serve` in the background and submits
  ///        immediately).  Pass 0 when a failover wrapper owns the
  ///        retry policy.
  explicit SocketClientTransport(const Endpoint &Server,
                                 unsigned ConnectRetries = 40)
      : Server(Server), ConnectRetries(ConnectRetries) {}

  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override;

  /// "<endpoint>: <what failed>: <strerror>" for the last failure.
  std::string lastError() const override { return LastError; }

private:
  int connectToServer();
  /// Records "<endpoint>: <Context>[: strerror(Errno)]"; returns false
  /// so failure paths read `return fail(...)`.
  bool fail(const std::string &Context, int Errno);

  Endpoint Server;
  unsigned ConnectRetries;
  std::string LastError;
};

/// Socket front-end for a PatchServer: accepts connections and pumps
/// their frames through handleFrame.
///
/// The serving loop runs as one parallelFor over 1 + Workers indexes:
/// index 0 accepts and enqueues connections, the rest drain the queue,
/// each owning one connection at a time (a connection may carry many
/// frames — clients batch).  The join barrier doubles as shutdown:
/// requestStop() closes the listening socket and enqueues one sentinel
/// per worker, so serve() returns only when every in-flight connection
/// has drained.
class SocketPatchServer {
public:
  /// \param Workers concurrent connection handlers (≥ 1).
  SocketPatchServer(PatchServer &Server, unsigned Workers = 2);
  ~SocketPatchServer();

  /// Per-frame read deadline: each frame must arrive in full within
  /// this long, measured from its first byte being awaited — an
  /// absolute bound, so a peer that stalls, goes silent between
  /// frames, or trickles bytes to keep a per-recv timeout alive parks
  /// a worker for at most one deadline instead of indefinitely.
  /// 0 disables the deadline.  Call before serving.
  void setReadTimeout(unsigned Milliseconds) {
    ReadTimeoutMs = Milliseconds;
  }

  /// Caps concurrent connections (queued + in service); connections
  /// accepted past the cap are closed immediately, bounding the fds and
  /// queue memory a connection flood can pin.  0 means unlimited.
  /// Call before serving.
  void setMaxConnections(unsigned Cap) { MaxConnections = Cap; }

  SocketPatchServer(const SocketPatchServer &) = delete;
  SocketPatchServer &operator=(const SocketPatchServer &) = delete;

  /// Binds and listens on \p Ep; returns false on socket failure.  For
  /// tcp:0 the kernel assigns a port — read it back via endpoint().
  bool listen(const Endpoint &Ep);

  /// The bound endpoint (with the real port after tcp:0).
  const Endpoint &endpoint() const { return Bound; }

  /// Serves until a Shutdown frame is accepted or requestStop() is
  /// called.  Blocks the caller (it runs the accept loop).
  void serve();

  /// serve() on a background thread.
  bool start();

  /// Initiates shutdown without waiting (callable from any thread,
  /// including a connection worker).
  void requestStop();

  /// requestStop() and join the background thread, if any.
  void stop();

  /// Attaches the observability plane: a pull collector exporting
  /// connections accepted/shed, read-timeout cutoffs, and the active
  /// connection gauge.  Attach before serving; this front-end must
  /// outlive the registry's last snapshot.
  void attachMetrics(MetricsRegistry &Registry);

private:
  void acceptLoop();
  void workerLoop();
  /// Pumps one connection: frame in, handleFrame, frame out, until EOF
  /// or an unrecoverable parse error.
  void serveConnection(int Fd);

  PatchServer &Server;
  unsigned Workers;
  Endpoint Bound;
  int ListenFd = -1;
  std::string UnixPathToUnlink;
  /// 30 s default: generous for a live client, finite for a dead one.
  unsigned ReadTimeoutMs = 30000;
  unsigned MaxConnections = 0;
  /// Connections accepted and not yet fully served.
  std::atomic<unsigned> ActiveConnections{0};
  /// Observability counters (exported by attachMetrics; always
  /// maintained — they are single relaxed atomics on per-connection,
  /// not per-frame, paths).
  std::atomic<uint64_t> ConnectionsAccepted{0};
  std::atomic<uint64_t> ConnectionsShed{0};
  std::atomic<uint64_t> ReadTimeoutCutoffs{0};

  std::mutex QueueMutex;
  std::condition_variable QueueReady;
  /// Accepted connection fds; -1 is the per-worker stop sentinel.
  std::deque<int> Pending;
  bool Stopping = false;

  std::thread Background;
};

} // namespace exterminator

#endif // EXTERMINATOR_EXCHANGE_SOCKETTRANSPORT_H
