//===- exchange/SocketTransport.cpp - Unix/TCP transport --------------------===//

#include "exchange/SocketTransport.h"

#include "exchange/PatchServer.h"
#include "exchange/WireProtocol.h"
#include "support/Executor.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Endpoint parsing
//===----------------------------------------------------------------------===//

bool exterminator::parseEndpoint(const std::string &Spec, Endpoint &Out) {
  if (Spec.rfind("unix:", 0) == 0) {
    Out.Family = Endpoint::Unix;
    Out.Path = Spec.substr(5);
    // sockaddr_un::sun_path is ~108 bytes; leave room for the NUL.
    return !Out.Path.empty() && Out.Path.size() < sizeof(sockaddr_un{}.sun_path);
  }
  if (Spec.rfind("tcp:", 0) == 0) {
    const std::string Rest = Spec.substr(4);
    const size_t Colon = Rest.rfind(':');
    std::string Host = "127.0.0.1";
    std::string PortStr = Rest;
    if (Colon != std::string::npos) {
      Host = Rest.substr(0, Colon);
      PortStr = Rest.substr(Colon + 1);
    }
    if (Host.empty() || PortStr.empty() ||
        PortStr.find_first_not_of("0123456789") != std::string::npos ||
        PortStr.size() > 5)
      return false;
    // Only IPv4 literals are supported (the connect path uses
    // inet_pton, no resolver); reject hostnames here so the user gets
    // an immediate parse error instead of a silent retry loop that can
    // never succeed.
    in_addr Parsed;
    if (::inet_pton(AF_INET, Host.c_str(), &Parsed) != 1)
      return false;
    const unsigned long Port = std::stoul(PortStr);
    if (Port > 65535)
      return false;
    Out.Family = Endpoint::Tcp;
    Out.Host = Host;
    Out.Port = static_cast<uint16_t>(Port);
    return true;
  }
  return false;
}

bool exterminator::parseEndpointList(const std::string &Spec,
                                     std::vector<Endpoint> &Out) {
  Out.clear();
  size_t Begin = 0;
  while (Begin <= Spec.size()) {
    size_t End = Spec.find(',', Begin);
    if (End == std::string::npos)
      End = Spec.size();
    Endpoint Ep;
    if (!parseEndpoint(Spec.substr(Begin, End - Begin), Ep))
      return false;
    Out.push_back(Ep);
    Begin = End + 1;
    if (End == Spec.size())
      break;
  }
  return !Out.empty();
}

std::string exterminator::endpointToString(const Endpoint &Ep) {
  if (Ep.Family == Endpoint::Unix)
    return "unix:" + Ep.Path;
  return "tcp:" + Ep.Host + ":" + std::to_string(Ep.Port);
}

//===----------------------------------------------------------------------===//
// Byte-stream plumbing
//===----------------------------------------------------------------------===//

/// Writes all of \p Size bytes (MSG_NOSIGNAL: a peer that hung up is a
/// return value, not a SIGPIPE).
static bool sendAll(int Fd, const uint8_t *Data, size_t Size) {
  while (Size > 0) {
    const ssize_t N = ::send(Fd, Data, Size, MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// Reads exactly \p Size bytes; returns the count actually read (short
/// at EOF, error, or an expired deadline).  \p Deadline, when non-null,
/// is an absolute bound on the whole read: unlike a per-recv timeout
/// (SO_RCVTIMEO), it cannot be reset by a peer trickling one byte per
/// interval, so a slow-loris frame is cut off just like a silent one.
static size_t recvAll(int Fd, uint8_t *Data, size_t Size,
                      const std::chrono::steady_clock::time_point *Deadline =
                          nullptr) {
  size_t Total = 0;
  while (Total < Size) {
    if (Deadline) {
      const auto Now = std::chrono::steady_clock::now();
      if (Now >= *Deadline)
        break;
      const auto RemainingMs =
          std::chrono::duration_cast<std::chrono::milliseconds>(*Deadline -
                                                                Now)
              .count() +
          1;
      pollfd Poll{Fd, POLLIN, 0};
      const int Ready =
          ::poll(&Poll, 1, static_cast<int>(std::min<long long>(
                               RemainingMs, 1000000)));
      if (Ready < 0 && errno == EINTR)
        continue;
      if (Ready <= 0)
        break; // deadline expired (or a dead socket) with bytes pending
    }
    const ssize_t N = ::recv(Fd, Data + Total, Size - Total, 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Total += static_cast<size_t>(N);
  }
  return Total;
}

namespace {
enum class FrameRead {
  Frame,    ///< a complete frame landed in the buffer
  CleanEof, ///< the peer closed between frames
  Garbage,  ///< undelimitable bytes (bad magic / absurd length / cut off)
};
} // namespace

/// Reads one wire frame off \p Fd.  Delimits by the header's length
/// field after bounding it; full validation (checksum, type) stays with
/// decodeFrame.  On Garbage, \p Out holds whatever bytes arrived so the
/// caller can run them through decodeFrame for a precise error reply.
static FrameRead readFrameBytes(
    int Fd, std::vector<uint8_t> &Out,
    const std::chrono::steady_clock::time_point *Deadline = nullptr) {
  Out.resize(FrameHeaderBytes);
  const size_t HeaderGot =
      recvAll(Fd, Out.data(), FrameHeaderBytes, Deadline);
  if (HeaderGot == 0)
    return FrameRead::CleanEof;
  if (HeaderGot < FrameHeaderBytes) {
    Out.resize(HeaderGot);
    return FrameRead::Garbage;
  }
  const uint32_t Magic = readFrameU32(Out.data());
  const uint32_t Length = readFrameU32(Out.data() + 6);
  if (Magic != FrameMagic || Length > MaxFramePayload)
    return FrameRead::Garbage;
  Out.resize(FrameHeaderBytes + size_t(Length) + 4);
  if (recvAll(Fd, Out.data() + FrameHeaderBytes, size_t(Length) + 4,
              Deadline) != size_t(Length) + 4)
    return FrameRead::Garbage;
  return FrameRead::Frame;
}

//===----------------------------------------------------------------------===//
// SocketClientTransport
//===----------------------------------------------------------------------===//

bool SocketClientTransport::fail(const std::string &Context, int Errno) {
  LastError = endpointToString(Server) + ": " + Context;
  if (Errno != 0)
    LastError += std::string(": ") + std::strerror(Errno);
  return false;
}

int SocketClientTransport::connectToServer() {
  int LastErrno = 0;
  for (unsigned Attempt = 0;; ++Attempt) {
    int Fd = -1;
    if (Server.Family == Endpoint::Unix) {
      Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd >= 0) {
        sockaddr_un Addr{};
        Addr.sun_family = AF_UNIX;
        std::strncpy(Addr.sun_path, Server.Path.c_str(),
                     sizeof(Addr.sun_path) - 1);
        if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)) == 0)
          return Fd;
        LastErrno = errno;
        ::close(Fd);
        Fd = -1;
      } else {
        LastErrno = errno;
      }
    } else {
      Fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (Fd >= 0) {
        sockaddr_in Addr{};
        Addr.sin_family = AF_INET;
        Addr.sin_port = htons(Server.Port);
        if (::inet_pton(AF_INET, Server.Host.c_str(), &Addr.sin_addr) == 1 &&
            ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)) == 0)
          return Fd;
        LastErrno = errno;
        ::close(Fd);
        Fd = -1;
      } else {
        LastErrno = errno;
      }
    }
    if (Attempt >= ConnectRetries) {
      fail("connect failed", LastErrno);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

bool SocketClientTransport::exchange(
    const std::vector<std::vector<uint8_t>> &Requests,
    std::vector<std::vector<uint8_t>> &ResponsesOut) {
  ResponsesOut.clear();
  LastError.clear();
  if (Requests.empty())
    return true;
  const int Fd = connectToServer();
  if (Fd < 0)
    return false; // connectToServer recorded the reason

  // Pipeline: all requests out, then one response per request.  The
  // server answers in order, so no request ids are needed.
  bool Ok = true;
  for (const std::vector<uint8_t> &Request : Requests)
    if (!sendAll(Fd, Request.data(), Request.size())) {
      Ok = fail("send failed", errno);
      break;
    }
  for (size_t I = 0; Ok && I < Requests.size(); ++I) {
    std::vector<uint8_t> Response;
    const FrameRead Read = readFrameBytes(Fd, Response);
    if (Read != FrameRead::Frame) {
      // errno is only meaningful when recv actually failed; a clean
      // close or a short/garbled frame is a protocol-level report.
      Ok = fail(Read == FrameRead::CleanEof
                    ? "connection closed before reply " +
                          std::to_string(I + 1) + " of " +
                          std::to_string(Requests.size())
                    : "short or garbled reply frame",
                0);
      break;
    }
    ResponsesOut.push_back(std::move(Response));
  }
  ::close(Fd);
  return Ok;
}

//===----------------------------------------------------------------------===//
// SocketPatchServer
//===----------------------------------------------------------------------===//

SocketPatchServer::SocketPatchServer(PatchServer &Server, unsigned Workers)
    : Server(Server), Workers(Workers == 0 ? 1 : Workers) {}

SocketPatchServer::~SocketPatchServer() {
  stop();
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (!UnixPathToUnlink.empty())
    ::unlink(UnixPathToUnlink.c_str());
}

bool SocketPatchServer::listen(const Endpoint &Ep) {
  if (ListenFd >= 0)
    return false;
  Bound = Ep;
  if (Ep.Family == Endpoint::Unix) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return false;
    ::unlink(Ep.Path.c_str()); // stale socket from a previous run
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Ep.Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0 ||
        ::listen(ListenFd, 64) != 0) {
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    UnixPathToUnlink = Ep.Path;
    return true;
  }

  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return false;
  const int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Ep.Port);
  if (::inet_pton(AF_INET, Ep.Host.empty() ? "127.0.0.1" : Ep.Host.c_str(),
                  &Addr.sin_addr) != 1 ||
      ::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(ListenFd, 64) != 0) {
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  // tcp:0 asked the kernel for a port; report the real one.
  socklen_t AddrLen = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                    &AddrLen) == 0)
    Bound.Port = ntohs(Addr.sin_port);
  if (Bound.Host.empty())
    Bound.Host = "127.0.0.1";
  return true;
}

void SocketPatchServer::serve() {
  if (ListenFd < 0)
    return;
  // One thread per index: the accept loop (index 0, on this thread) and
  // every worker each own one for the whole serve lifetime, and
  // parallelFor's join barrier is the drain barrier.
  parallelFor(1 + Workers, [this](size_t I) {
    if (I == 0)
      acceptLoop();
    else
      workerLoop();
  });
}

bool SocketPatchServer::start() {
  if (ListenFd < 0 || Background.joinable())
    return false;
  Background = std::thread([this] { serve(); });
  return true;
}

void SocketPatchServer::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping)
      return;
    Stopping = true;
    for (unsigned I = 0; I < Workers; ++I)
      Pending.push_back(-1);
  }
  QueueReady.notify_all();
  // Kicks accept() out with an error; the fd is closed in the
  // destructor (closing here would race a concurrent accept).
  ::shutdown(ListenFd, SHUT_RDWR);
}

void SocketPatchServer::stop() {
  requestStop();
  if (Background.joinable())
    Background.join();
}

void SocketPatchServer::attachMetrics(MetricsRegistry &Registry) {
  Registry.addCollector([this](std::vector<MetricSample> &Out) {
    MetricsRegistry::addCounter(
        Out, "xterm_connections_accepted_total", {},
        double(ConnectionsAccepted.load(std::memory_order_relaxed)));
    MetricsRegistry::addCounter(
        Out, "xterm_connections_shed_total", {},
        double(ConnectionsShed.load(std::memory_order_relaxed)));
    MetricsRegistry::addCounter(
        Out, "xterm_read_timeout_cutoffs_total", {},
        double(ReadTimeoutCutoffs.load(std::memory_order_relaxed)));
    MetricsRegistry::addGauge(
        Out, "xterm_active_connections", {},
        double(ActiveConnections.load(std::memory_order_relaxed)));
  });
}

void SocketPatchServer::acceptLoop() {
  for (;;) {
    // Poll before accepting so stop detection does not depend on
    // shutdown() unblocking accept() (Linux does, other platforms need
    // not); the 200 ms tick bounds shutdown latency either way.
    pollfd Poll{ListenFd, POLLIN, 0};
    const int Ready = ::poll(&Poll, 1, 200);
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      if (Stopping)
        return;
    }
    if (Ready < 0 && errno != EINTR) {
      requestStop();
      return;
    }
    if (Ready <= 0)
      continue;
    const int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // requestStop's shutdown(), or a dead listener either way.
      requestStop();
      return;
    }
    // Connection cap: shed load at the door instead of letting a flood
    // pin unbounded fds and queue memory.  Closing with nothing written
    // is the standard over-capacity signal (the client sees EOF and can
    // retry against a less loaded mirror).
    if (MaxConnections != 0 &&
        ActiveConnections.load(std::memory_order_acquire) >= MaxConnections) {
      ConnectionsShed.fetch_add(1, std::memory_order_relaxed);
      ::close(Fd);
      continue;
    }
    ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    ActiveConnections.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      if (Stopping) {
        ActiveConnections.fetch_sub(1, std::memory_order_acq_rel);
        ::close(Fd);
        return;
      }
      Pending.push_back(Fd);
    }
    QueueReady.notify_one();
  }
}

void SocketPatchServer::workerLoop() {
  for (;;) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueReady.wait(Lock, [this] { return !Pending.empty(); });
      Fd = Pending.front();
      Pending.pop_front();
    }
    if (Fd < 0)
      return; // stop sentinel
    serveConnection(Fd);
    ActiveConnections.fetch_sub(1, std::memory_order_acq_rel);
    if (Server.shutdownRequested())
      requestStop();
  }
}

void SocketPatchServer::serveConnection(int Fd) {
  // Every frame read runs against an absolute per-frame deadline: a
  // peer that stalls mid-frame, goes silent between frames, or
  // trickles bytes to keep a per-recv timeout alive is cut off after
  // at most ReadTimeoutMs, and readFrameBytes reports Garbage (partial
  // frame, answered with an ErrorReply) or CleanEof (idle between
  // frames) — the worker moves on either way.
  std::vector<uint8_t> Request, Response;
  for (;;) {
    std::chrono::steady_clock::time_point Deadline;
    if (ReadTimeoutMs != 0)
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ReadTimeoutMs);
    const FrameRead Read =
        readFrameBytes(Fd, Request, ReadTimeoutMs != 0 ? &Deadline : nullptr);
    if (Read == FrameRead::CleanEof)
      break;
    // readFrameBytes reports a deadline expiry as Garbage (a partial
    // frame); the expired clock is what distinguishes a cut-off stall
    // from actual garbage bytes.
    if (Read == FrameRead::Garbage && ReadTimeoutMs != 0 &&
        std::chrono::steady_clock::now() >= Deadline)
      ReadTimeoutCutoffs.fetch_add(1, std::memory_order_relaxed);
    // handleFrame answers garbage with a precise ErrorReply; its false
    // return means the byte stream cannot be resynchronized, so reply
    // and close.
    const bool Resyncable = Server.handleFrame(Request, Response);
    sendAll(Fd, Response.data(), Response.size());
    if (Read != FrameRead::Frame || !Resyncable ||
        Server.shutdownRequested()) {
      // Lingering close.  The peer may still be writing a pipelined
      // batch; an immediate close() turns its unread bytes into an
      // RST, and a reset flushes the peer's receive queue — including
      // the reply just sent (the ErrorReply naming a fatal frame, or
      // the ShutdownReply the admin client waits for).  Half-close our
      // direction and drain, bounded in both time and bytes, until the
      // peer reads the reply and closes.
      ::shutdown(Fd, SHUT_WR);
      const auto LingerDeadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
      size_t LingerBudget = 4u << 20;
      for (;;) {
        const auto Now = std::chrono::steady_clock::now();
        if (Now >= LingerDeadline || LingerBudget == 0)
          break;
        const auto RemainingMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                LingerDeadline - Now)
                .count() +
            1;
        pollfd Poll{Fd, POLLIN, 0};
        const int Ready = ::poll(&Poll, 1, static_cast<int>(RemainingMs));
        if (Ready < 0 && errno == EINTR)
          continue;
        if (Ready <= 0)
          break;
        uint8_t Scratch[4096];
        const ssize_t N = ::recv(
            Fd, Scratch, std::min(sizeof(Scratch), LingerBudget), 0);
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0)
          break; // EOF: the peer saw the reply and closed
        LingerBudget -= static_cast<size_t>(N);
      }
      break;
    }
  }
  ::close(Fd);
}
