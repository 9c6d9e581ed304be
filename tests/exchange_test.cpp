//===- tests/exchange_test.cpp - Patch-exchange tests -------------------------===//
//
// Covers the patch exchange: the frame codec and its adversarial-input
// taxonomy, the acceptance criterion that evidence submitted through
// PatchClient→PatchServer yields a patch set bit-identical to a local
// DiagnosisPipeline (over both the loopback and the socket transport),
// epoch/incremental fetch semantics, redelivered frames and transport
// faults, batching, server survival under hostile bytes, durable state,
// and the exchange-backed CumulativeDriver.
//
//===----------------------------------------------------------------------===//

#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "exchange/SocketTransport.h"
#include "exchange/StateStore.h"

#include "TestHelpers.h"
#include "codec/DeltaCodec.h"
#include "heapimage/ImageBundle.h"
#include "patch/PatchIO.h"
#include "runtime/CumulativeDriver.h"
#include "support/Serializer.h"
#include "workload/EspressoWorkload.h"
#include "workload/ScriptedBugs.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

/// The canonical scripted bugs (workload/ScriptedBugs.h) under the
/// names the assertions below read naturally with.
std::vector<TraceOp> overflowTrace(uint32_t OverflowBytes) {
  return scriptedOverflowTrace(OverflowBytes);
}

std::vector<TraceOp> danglingTrace() { return scriptedDanglingTrace(); }

/// Runs the acceptance round-trip over \p Transport: the same evidence
/// submitted through the exchange and fed to a local pipeline must
/// produce bit-identical patch sets.
void expectRoundTripEquivalence(ClientTransport &Transport,
                                PatchServer &Server) {
  const ImageEvidence OverflowEvidence{imagesFromTrace(overflowTrace(6), 3),
                                       {}};
  const ImageEvidence DanglingEvidence{imagesFromTrace(danglingTrace(), 3),
                                       {}};

  DiagnosisPipeline Local;
  Local.submitImages(OverflowEvidence);
  Local.submitImages(DanglingEvidence);
  const RunSummary Summary =
      Local.summarize(OverflowEvidence.Primary.front(), /*Failed=*/true);
  Local.submitSummary(Summary, /*CleanStreak=*/0);

  PatchClient Client(Transport);
  ImagesReply Images;
  ASSERT_TRUE(Client.submitImages(OverflowEvidence, &Images));
  EXPECT_GT(Images.OverflowFindings, 0u);
  ASSERT_TRUE(Client.submitImages(DanglingEvidence));
  ASSERT_TRUE(Client.submitSummary(Summary, 0));
  ASSERT_TRUE(Client.fetchPatches());

  EXPECT_FALSE(Client.patches().empty());
  EXPECT_TRUE(Client.patches() == Local.patches());
  EXPECT_TRUE(Server.snapshot().Patches == Local.patches());
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

TEST(WireProtocol, FrameRoundTrip) {
  const std::vector<uint8_t> Payload{1, 2, 3, 4, 5};
  const std::vector<uint8_t> Bytes =
      encodeFrame(MessageType::SubmitSummary, Payload);
  Frame Decoded;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(Bytes.data(), Bytes.size(), Decoded, Consumed),
            FrameError::None);
  EXPECT_EQ(Consumed, Bytes.size());
  EXPECT_EQ(Decoded.Type, MessageType::SubmitSummary);
  EXPECT_EQ(Decoded.Payload, Payload);
}

TEST(WireProtocol, EmptyPayloadFrameRoundTrip) {
  const std::vector<uint8_t> Bytes = encodeFrame(MessageType::Shutdown, {});
  Frame Decoded;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(Bytes.data(), Bytes.size(), Decoded, Consumed),
            FrameError::None);
  EXPECT_TRUE(Decoded.Payload.empty());
}

TEST(WireProtocol, DetectsTruncation) {
  const std::vector<uint8_t> Full =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(3, 0));
  Frame Decoded;
  size_t Consumed = 0;
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    std::vector<uint8_t> Truncated(Full.begin(), Full.begin() + Cut);
    EXPECT_NE(decodeFrame(Truncated.data(), Truncated.size(), Decoded,
                          Consumed),
              FrameError::None)
        << "accepted truncation at " << Cut;
  }
}

TEST(WireProtocol, DetectsBadMagicVersionTypeLengthChecksum) {
  const std::vector<uint8_t> Good =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(1, 0));
  Frame Decoded;
  size_t Consumed = 0;

  std::vector<uint8_t> BadMagic = Good;
  BadMagic[0] ^= 0xff;
  EXPECT_EQ(decodeFrame(BadMagic.data(), BadMagic.size(), Decoded, Consumed),
            FrameError::BadMagic);

  std::vector<uint8_t> BadVersion = Good;
  BadVersion[4] = 99;
  EXPECT_EQ(
      decodeFrame(BadVersion.data(), BadVersion.size(), Decoded, Consumed),
      FrameError::BadVersion);

  // 5, 6, 69 and 70 are the retired peer-to-peer types: the decoder
  // and the server treat them like any unknown type.
  PatchServer Server;
  uint64_t Rejected = 0;
  for (const int Type : {250, 5, 6, 69, 70}) {
    std::vector<uint8_t> BadType = Good;
    BadType[5] = static_cast<uint8_t>(Type);
    EXPECT_EQ(decodeFrame(BadType.data(), BadType.size(), Decoded, Consumed),
              FrameError::BadType)
        << Type;
    std::vector<uint8_t> Response;
    EXPECT_FALSE(Server.handleFrame(BadType, Response)) << Type;
    Frame Reply;
    ASSERT_EQ(decodeFrame(Response.data(), Response.size(), Reply, Consumed),
              FrameError::None);
    EXPECT_EQ(Reply.Type, MessageType::ErrorReply) << Type;
    EXPECT_EQ(Server.stats().FramesRejected, ++Rejected) << Type;
  }

  std::vector<uint8_t> Oversized = Good;
  const uint32_t Huge = MaxFramePayload + 1;
  std::memcpy(Oversized.data() + 6, &Huge, 4);
  EXPECT_EQ(
      decodeFrame(Oversized.data(), Oversized.size(), Decoded, Consumed),
      FrameError::OversizedLength);

  std::vector<uint8_t> BadChecksum = Good;
  BadChecksum[FrameHeaderBytes] ^= 0x01; // flip a payload bit
  EXPECT_EQ(decodeFrame(BadChecksum.data(), BadChecksum.size(), Decoded,
                        Consumed),
            FrameError::BadChecksum);
}

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

TEST(WireProtocol, SubmitImagesPayloadRoundTrip) {
  ImageEvidence Evidence{imagesFromTrace(overflowTrace(6), 2),
                         imagesFromTrace(danglingTrace(), 2)};
  ImageEvidence Decoded;
  ASSERT_TRUE(decodeSubmitImages(encodeSubmitImages(Evidence), Decoded));
  ASSERT_EQ(Decoded.Primary.size(), 2u);
  ASSERT_EQ(Decoded.Fallback.size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_TRUE(Decoded.Primary[I] == Evidence.Primary[I]);
    EXPECT_TRUE(Decoded.Fallback[I] == Evidence.Fallback[I]);
  }
}

TEST(WireProtocol, SummaryCarriesDedupToken) {
  DiagnosisPipeline Scratch;
  const RunSummary Summary = Scratch.summarize(
      imagesFromTrace(overflowTrace(6), 3).front(), /*Failed=*/true);
  const std::vector<uint8_t> Payload =
      encodeSubmitSummary(Summary, /*CleanStreak=*/3,
                          /*Token=*/0xdeadbeefcafef00dull);
  RunSummary Out;
  unsigned Streak = 0;
  uint64_t Token = 0;
  ASSERT_TRUE(decodeSubmitSummary(Payload, Out, Streak, Token));
  EXPECT_EQ(Token, 0xdeadbeefcafef00dull);
  EXPECT_EQ(Streak, 3u);
  EXPECT_EQ(serializeRunSummary(Out), serializeRunSummary(Summary));
}

TEST(WireProtocol, SummaryReplyRoundTrip) {
  SummaryReply Reply;
  Reply.Epoch = 9;
  CumulativeOverflowFinding Overflow;
  Overflow.AllocSite = 0xabc;
  Overflow.LogBayesFactor = 3.5;
  Overflow.LogThreshold = 1.25;
  Overflow.PadBytes = 24;
  Overflow.TrialCount = 7;
  Overflow.ObservedCount = 6;
  Reply.Diagnosis.Overflows.push_back(Overflow);
  CumulativeDanglingFinding Dangling;
  Dangling.AllocSite = 0x123;
  Dangling.FreeSite = 0x456;
  Dangling.DeferralTicks = 512;
  Dangling.TrialCount = 4;
  Dangling.ObservedCount = 4;
  Reply.Diagnosis.Danglings.push_back(Dangling);

  SummaryReply Decoded;
  ASSERT_TRUE(decodeSummaryReply(encodeSummaryReply(Reply), Decoded));
  EXPECT_EQ(Decoded.Epoch, 9u);
  ASSERT_EQ(Decoded.Diagnosis.Overflows.size(), 1u);
  EXPECT_EQ(Decoded.Diagnosis.Overflows[0].AllocSite, 0xabcu);
  EXPECT_EQ(Decoded.Diagnosis.Overflows[0].PadBytes, 24u);
  EXPECT_DOUBLE_EQ(Decoded.Diagnosis.Overflows[0].LogBayesFactor, 3.5);
  ASSERT_EQ(Decoded.Diagnosis.Danglings.size(), 1u);
  EXPECT_EQ(Decoded.Diagnosis.Danglings[0].DeferralTicks, 512u);
}

TEST(WireProtocol, PatchesReplySkipsPayloadWhenUnmodified) {
  PatchesReply Unmodified;
  Unmodified.Instance = 7;
  Unmodified.Epoch = 4;
  Unmodified.Modified = false;
  const std::vector<uint8_t> Small = encodePatchesReply(Unmodified);
  // u64 instance + u64 epoch + u8 flag, nothing else.
  EXPECT_EQ(Small.size(), 17u);

  PatchesReply Decoded;
  ASSERT_TRUE(decodePatchesReply(Small, Decoded));
  EXPECT_EQ(Decoded.Instance, 7u);
  EXPECT_EQ(Decoded.Epoch, 4u);
  EXPECT_FALSE(Decoded.Modified);
  EXPECT_TRUE(Decoded.Patches.empty());
}

TEST(PatchExchange, InstanceChangeDefeatsEpochCollision) {
  // Two server instances whose epochs coincide: a client carrying
  // instance A's epoch must still get the full set from instance B
  // (epoch-only staleness would silently serve stale patches after a
  // server restart).
  PatchServer A, B;
  ASSERT_NE(A.instance(), B.instance());
  {
    LoopbackTransport TransportA(A);
    PatchClient SeedA(TransportA);
    ASSERT_TRUE(
        SeedA.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));
  }
  {
    LoopbackTransport TransportB(B);
    PatchClient SeedB(TransportB);
    ASSERT_TRUE(
        SeedB.submitImages({imagesFromTrace(danglingTrace(), 3), {}}));
  }
  ASSERT_EQ(A.snapshot().Epoch, B.snapshot().Epoch); // colliding epochs

  LoopbackTransport TransportA(A);
  PatchClient Client(TransportA);
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_TRUE(Client.patches() == A.snapshot().Patches);

  // "Restart": replay the client's cached (instance, epoch) — obtained
  // from A — against B, whose epoch number coincides.
  LoopbackTransport TransportB(B);
  Frame Reply;
  std::vector<std::vector<uint8_t>> Responses;
  ASSERT_TRUE(TransportB.exchange(
      {encodeFrame(MessageType::FetchPatches,
                   encodeFetchPatches(Client.epoch(),
                                      Client.serverInstance()))},
      Responses));
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(Responses[0].data(), Responses[0].size(), Reply,
                        Consumed),
            FrameError::None);
  PatchesReply Decoded;
  ASSERT_TRUE(decodePatchesReply(Reply.Payload, Decoded));
  EXPECT_TRUE(Decoded.Modified); // same epoch, different instance
  EXPECT_TRUE(Decoded.Patches == B.snapshot().Patches);
}

TEST(PatchExchange, SyncSkipsRoundTripWhenReplyProvedCurrent) {
  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);

  ASSERT_TRUE(
      Client.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));
  ASSERT_TRUE(Client.syncPatches()); // must actually fetch (mirror stale)
  EXPECT_FALSE(Client.patches().empty());

  // Re-submitting the same evidence leaves the epoch alone; the reply
  // says so, and syncPatches must not issue another fetch.
  const uint64_t FetchesBefore = Server.stats().FetchesServed;
  ASSERT_TRUE(
      Client.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));
  ASSERT_TRUE(Client.syncPatches());
  EXPECT_EQ(Server.stats().FetchesServed, FetchesBefore);
}

//===----------------------------------------------------------------------===//
// Round-trip equivalence (the acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(PatchExchange, LoopbackMatchesLocalPipeline) {
  PatchServer Server;
  LoopbackTransport Transport(Server);
  expectRoundTripEquivalence(Transport, Server);
}

TEST(PatchExchange, UnixSocketMatchesLocalPipeline) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/2);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint(
      "unix:" + ::testing::TempDir() + "/exchange_test.sock", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  SocketClientTransport Transport(Front.endpoint());
  expectRoundTripEquivalence(Transport, Server);
  Front.stop();
}

TEST(PatchExchange, TcpSocketMatchesLocalPipeline) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/2);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep)); // kernel-assigned port
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_NE(Front.endpoint().Port, 0);
  ASSERT_TRUE(Front.start());

  SocketClientTransport Transport(Front.endpoint());
  expectRoundTripEquivalence(Transport, Server);
  Front.stop();
}

//===----------------------------------------------------------------------===//
// Epochs and incremental fetch
//===----------------------------------------------------------------------===//

TEST(PatchExchange, EpochAdvancesOnlyWhenPatchesChange) {
  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);

  // Empty server: first fetch transfers (client holds nothing), epoch 0.
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Client.epoch(), 0u);
  EXPECT_TRUE(Client.patches().empty());

  // New evidence bumps the epoch and the next fetch sees it.
  const ImageEvidence Evidence{imagesFromTrace(overflowTrace(6), 3), {}};
  ASSERT_TRUE(Client.submitImages(Evidence));
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Client.epoch(), 1u);
  EXPECT_FALSE(Client.patches().empty());

  // Resubmitting identical evidence max-merges to no change: the epoch
  // holds, so the next fetch is the cheap unmodified round trip.
  ASSERT_TRUE(Client.submitImages(Evidence));
  const PatchServerStats Before = Server.stats();
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Client.epoch(), 1u);
  const PatchServerStats After = Server.stats();
  EXPECT_EQ(After.FetchesUnmodified, Before.FetchesUnmodified + 1);
}

TEST(DiagnosisPipeline, EpochCountsDistinctChanges) {
  DiagnosisPipeline Pipeline;
  EXPECT_EQ(Pipeline.epoch(), 0u);
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  EXPECT_EQ(Pipeline.epoch(), 1u);
  // Same evidence again: max-merge is idempotent, epoch must hold.
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  EXPECT_EQ(Pipeline.epoch(), 1u);
  // Different error, new patches, new epoch.
  Pipeline.submitImages({imagesFromTrace(danglingTrace(), 3), {}});
  EXPECT_EQ(Pipeline.epoch(), 2u);
}

//===----------------------------------------------------------------------===//
// Redelivery and transport faults
//===----------------------------------------------------------------------===//

namespace {

/// A loopback whose next exchange fails: before reaching the server, or
/// after it with the last reply cut in half.  Later exchanges pass.
struct FlakyLoopback : ClientTransport {
  enum class Fault { None, FailConnect, TruncateReply } Next = Fault::None;
  PatchServer &Server;
  explicit FlakyLoopback(PatchServer &Server) : Server(Server) {}
  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override {
    const Fault Now = std::exchange(Next, Fault::None);
    LoopbackTransport Inner(Server);
    if (Now == Fault::FailConnect || !Inner.exchange(Requests, ResponsesOut))
      return false;
    if (Now == Fault::TruncateReply && !ResponsesOut.empty())
      ResponsesOut.back().resize(ResponsesOut.back().size() / 2);
    return true;
  }
};

} // namespace

TEST(FaultMatrix, RedeliveredFramesApplyOnce) {
  const ImageEvidence Evidence{imagesFromTrace(overflowTrace(6), 3), {}};
  DiagnosisPipeline Scratch;
  const RunSummary Summary =
      Scratch.summarize(Evidence.Primary.front(), /*Failed=*/true);
  const std::vector<uint8_t> Images =
      encodeFrame(MessageType::SubmitImages, encodeSubmitImages(Evidence));
  const std::vector<uint8_t> Tokened = encodeFrame(
      MessageType::SubmitSummary,
      encodeSubmitSummary(Summary, /*CleanStreak=*/0, /*Token=*/0x5eed));

  // What a transport that re-sends after a lost reply delivers: every
  // frame twice.  Max-merge makes the second image frame a no-op, and
  // the summary's token suppresses its second copy.
  PatchServer Server;
  std::vector<uint8_t> Response;
  for (const std::vector<uint8_t> *Request : {&Images, &Images, &Tokened,
                                              &Tokened})
    ASSERT_TRUE(Server.handleFrame(*Request, Response));
  EXPECT_EQ(Server.snapshot().Epoch, 1u);
  EXPECT_EQ(Server.cumulativeRuns(), 1u);
  EXPECT_EQ(Server.stats().SummariesIngested, 1u);
  EXPECT_EQ(Server.stats().DuplicatesSuppressed, 1u);

  // Bit-identical to one delivery each: the copies left no trace.
  PatchServer Reference;
  ASSERT_TRUE(Reference.handleFrame(Images, Response));
  ASSERT_TRUE(Reference.handleFrame(Tokened, Response));
  EXPECT_EQ(Server.serializeState(), Reference.serializeState());
}

TEST(FaultMatrix, TruncatedReplyIsRejectedCleanly) {
  PatchServer Server;
  {
    LoopbackTransport Direct(Server);
    PatchClient Seeder(Direct);
    ASSERT_TRUE(
        Seeder.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));
  }
  FlakyLoopback Flaky(Server);
  PatchClient Client(Flaky);

  Flaky.Next = FlakyLoopback::Fault::TruncateReply;
  EXPECT_FALSE(Client.fetchPatches());
  EXPECT_TRUE(Client.patches().empty()); // no half-decoded mirror

  // The connection-level fault is transient: the plain retry succeeds.
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_FALSE(Client.patches().empty());
}

TEST(FaultMatrix, FailConnectDeliversNothing) {
  PatchServer Server;
  FlakyLoopback Flaky(Server);
  PatchClient Client(Flaky);
  DiagnosisPipeline Scratch;
  const RunSummary Summary = Scratch.summarize(
      imagesFromTrace(overflowTrace(6), 3).front(), /*Failed=*/true);

  Flaky.Next = FlakyLoopback::Fault::FailConnect;
  EXPECT_FALSE(Client.submitSummary(Summary, 0));
  EXPECT_EQ(Server.stats().SummariesIngested, 0u);
  EXPECT_EQ(Server.cumulativeRuns(), 0u);
}

TEST(PatchExchange, SoftwareAndHardwareEvidenceMergeIntoOneSet) {
  // One client sees an overflow, another sees physical bit damage: the
  // server's set carries both the site pad and the hardware-page
  // report, under the same max-merge as the site tables.
  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Software(Transport);
  PatchClient Hardware(Transport);
  const ImageEvidence Overflow{imagesFromTrace(overflowTrace(6), 3), {}};
  FaultPlan Fault;
  Fault.Kind = FaultKind::BitFlip;
  Fault.TriggerAllocation = 150;
  Fault.PatternSeed = 7;
  const ImageEvidence Damage{scriptedHardwareEvidenceImages(3, Fault), {}};
  ASSERT_TRUE(Software.submitImages(Overflow));
  ASSERT_TRUE(Hardware.submitImages(Damage));

  CallContext Context;
  Context.pushFrame(ScriptedBugSites().Culprit);
  const PatchSnapshot Merged = Server.snapshot();
  EXPECT_GE(Merged.Patches.padFor(Context.currentSite()), 6u);
  EXPECT_GT(Merged.Patches.hardwareReportCount(), 0u);

  // Re-delivering either evidence set changes nothing.
  const std::vector<uint8_t> Bytes = serializePatchSet(Merged.Patches);
  ASSERT_TRUE(Hardware.submitImages(Damage));
  ASSERT_TRUE(Software.submitImages(Overflow));
  EXPECT_EQ(Server.snapshot().Epoch, Merged.Epoch);
  EXPECT_EQ(serializePatchSet(Server.snapshot().Patches), Bytes);
}

//===----------------------------------------------------------------------===//
// Batching
//===----------------------------------------------------------------------===//

TEST(PatchExchange, BatchedFlushDeliversEverything) {
  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);

  DiagnosisPipeline Local;
  Client.queueImages({imagesFromTrace(overflowTrace(6), 3), {}});
  Local.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  const RunSummary Summary = Local.summarize(
      imagesFromTrace(overflowTrace(6), 1).front(), /*Failed=*/true);
  for (unsigned I = 0; I < 3; ++I) {
    Client.queueSummary(Summary, 0);
    Local.submitSummary(Summary, 0);
  }
  EXPECT_EQ(Client.pendingCount(), 4u);
  ASSERT_TRUE(Client.flush());
  EXPECT_EQ(Client.pendingCount(), 0u);

  const PatchServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.ImagesIngested, 3u);
  EXPECT_EQ(Stats.SummariesIngested, 3u);
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_TRUE(Client.patches() == Local.patches());
}

TEST(PatchExchange, BatchedFlushOverSocket) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/1);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  SocketClientTransport Transport(Front.endpoint());
  PatchClient Client(Transport);
  const RunSummary Summary = DiagnosisPipeline().summarize(
      imagesFromTrace(overflowTrace(6), 1).front(), /*Failed=*/true);
  for (unsigned I = 0; I < 16; ++I)
    Client.queueSummary(Summary, 0);
  ASSERT_TRUE(Client.flush());
  EXPECT_EQ(Server.stats().SummariesIngested, 16u);
  Front.stop();
}

//===----------------------------------------------------------------------===//
// Adversarial wire input (server must reject, never crash)
//===----------------------------------------------------------------------===//

namespace {

/// Connects to \p Ep, writes \p Bytes, half-closes, and drains whatever
/// the server answers — the shape of a hostile or broken peer.  Never
/// blocks: the half-close guarantees the server sees EOF.
void sendRawBytes(const Endpoint &Ep, const std::vector<uint8_t> &Bytes) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Ep.Port);
  ASSERT_EQ(::inet_pton(AF_INET, Ep.Host.c_str(), &Addr.sin_addr), 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  if (!Bytes.empty()) {
    ASSERT_EQ(::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Bytes.size()));
  }
  ::shutdown(Fd, SHUT_WR);
  uint8_t Drain[256];
  while (::recv(Fd, Drain, sizeof(Drain), 0) > 0) {
  }
  ::close(Fd);
}

/// Sends raw bytes to the server and expects a well-formed ErrorReply
/// frame back, then proves the server still answers a good request.
void expectRejectedThenAlive(PatchServer &Server,
                             const std::vector<uint8_t> &Hostile) {
  std::vector<uint8_t> Response;
  Server.handleFrame(Hostile, Response);
  Frame Reply;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(Response.data(), Response.size(), Reply, Consumed),
            FrameError::None);
  EXPECT_EQ(Reply.Type, MessageType::ErrorReply);
  std::string Message;
  EXPECT_TRUE(decodeErrorReply(Reply.Payload, Message));
  EXPECT_FALSE(Message.empty());

  // Still alive: a good fetch succeeds.
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);
  EXPECT_TRUE(Client.fetchPatches());
}

/// Asserts that \p Response is an ErrorReply frame naming \p Reason.
void expectErrorReply(const std::vector<uint8_t> &Response,
                      FrameError Reason) {
  Frame Reply;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(Response.data(), Response.size(), Reply, Consumed),
            FrameError::None);
  ASSERT_EQ(Reply.Type, MessageType::ErrorReply);
  std::string Message;
  ASSERT_TRUE(decodeErrorReply(Reply.Payload, Message));
  EXPECT_EQ(Message, frameErrorName(Reason));
}

/// Hand-assembles \p Payload in the removed v3 layout — version byte 3
/// and the raw payload with no envelope — as a pre-v4 peer sends it.
std::vector<uint8_t> legacyV3Frame(MessageType Type,
                                   const std::vector<uint8_t> &Payload) {
  ByteWriter Writer;
  Writer.writeU32(FrameMagic);
  Writer.writeU8(3);
  Writer.writeU8(static_cast<uint8_t>(Type));
  Writer.writeU32(static_cast<uint32_t>(Payload.size()));
  Writer.writeBytes(Payload.data(), Payload.size());
  Writer.writeU32(frameChecksum(Payload.data(), Payload.size()));
  return Writer.take();
}

} // namespace

TEST(PatchExchange, RejectsTruncatedFrames) {
  PatchServer Server;
  const std::vector<uint8_t> Full =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  for (size_t Cut : {size_t(0), size_t(3), FrameHeaderBytes,
                     Full.size() - 1})
    expectRejectedThenAlive(Server,
                            {Full.begin(), Full.begin() + Cut});
  EXPECT_GE(Server.stats().FramesRejected, 4u);
}

TEST(PatchExchange, RejectsBadChecksum) {
  PatchServer Server;
  std::vector<uint8_t> Bytes =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  Bytes[FrameHeaderBytes] ^= 0x40;
  expectRejectedThenAlive(Server, Bytes);
}

TEST(PatchExchange, RejectsOversizedLengthPrefix) {
  PatchServer Server;
  std::vector<uint8_t> Bytes = encodeFrame(MessageType::Shutdown, {});
  const uint32_t Huge = ~uint32_t(0);
  std::memcpy(Bytes.data() + 6, &Huge, 4);
  expectRejectedThenAlive(Server, Bytes);
  // The forged frame must not have triggered shutdown.
  EXPECT_FALSE(Server.shutdownRequested());
}

TEST(PatchExchange, RejectsUnknownProtocolVersion) {
  PatchServer Server;
  std::vector<uint8_t> Bytes =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  Bytes[4] = ProtocolVersion + 1;
  expectRejectedThenAlive(Server, Bytes);

  // A well-formed frame from a v3 peer is refused by its version byte
  // alone, over loopback and over TCP.
  const uint64_t FetchesBefore = Server.stats().FetchesServed;
  const std::vector<uint8_t> V3 =
      legacyV3Frame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  std::vector<uint8_t> Response;
  EXPECT_FALSE(Server.handleFrame(V3, Response));
  expectErrorReply(Response, FrameError::BadVersion);

  SocketPatchServer Front(Server, /*Workers=*/1);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());
  SocketClientTransport Transport(Front.endpoint());
  std::vector<std::vector<uint8_t>> Responses;
  ASSERT_TRUE(Transport.exchange({V3}, Responses));
  ASSERT_EQ(Responses.size(), 1u);
  expectErrorReply(Responses[0], FrameError::BadVersion);
  EXPECT_EQ(Server.stats().FetchesServed, FetchesBefore);
  Front.stop();
}

TEST(PatchExchange, RejectsMalformedBundlePayload) {
  PatchServer Server;
  // A frame whose checksum is valid but whose payload is not a bundle.
  expectRejectedThenAlive(
      Server, encodeFrame(MessageType::SubmitImages, {1, 2, 3, 4}));
  // And a structurally valid frame wrapping a bundle with an
  // out-of-range dictionary reference (built like the ImageBundle test).
  std::vector<uint8_t> Bundle;
  {
    ByteWriter Writer;
    Writer.writeU32(0x58494231);
    Writer.writeU32(ImageBundleFormatV2);
    Writer.writeVarU64(1);
    Writer.writeVarU64(1);
    Writer.writeU32(0);
    Writer.writeU64(42);
    Writer.writeU32(1);
    Writer.writeF64(1.0);
    Writer.writeF64(2.0);
    Writer.writeU64(3);
    Writer.writeVarU64(1);
    Writer.writeVarU64(0);
    Writer.writeVarU64(16);
    Writer.writeU64(0x1000);
    Writer.writeVarU64(0);
    Writer.writeVarU64(1);
    Writer.writeU8(0x80 | 1);
    Writer.writeVarU64(5);
    Writer.writeVarU64(0);
    Writer.writeVarU64(9); // out-of-range site index
    Writer.writeVarU64(0);
    Writer.writeVarU64(16);
    Writer.writeVarU64(1);
    Writer.writeU8(1);
    Writer.writeVarU64(16);
    Writer.writeU64(0);
    Bundle = Writer.take();
  }
  expectRejectedThenAlive(Server,
                          encodeFrame(MessageType::SubmitImages, Bundle));
}

TEST(PatchExchange, RejectsSlotAmplificationBomb) {
  // A tiny, structurally valid bundle can declare millions of virgin
  // slots (a dozen wire bytes amplify to Count decoded slots).  The
  // wire decode budget (MaxWireSlots) must reject the declaration
  // before materializing anything.
  PatchServer Server;
  std::vector<uint8_t> Bundle;
  {
    ByteWriter Writer;
    Writer.writeU32(0x58494231);          // magic
    Writer.writeU32(ImageBundleFormatV2); // bundle version
    Writer.writeVarU64(1);       // one image
    Writer.writeVarU64(1);       // site table: just "no site"
    Writer.writeU32(0);
    Writer.writeU64(1);   // AllocationTime
    Writer.writeU32(1);   // CanaryValue
    Writer.writeF64(1.0); // p
    Writer.writeF64(2.0); // M
    Writer.writeU64(3);   // seed
    Writer.writeVarU64(1);                // one miniheap
    Writer.writeVarU64(0);                // size class
    Writer.writeVarU64(8);                // object size
    Writer.writeU64(0x1000);              // base
    Writer.writeVarU64(0);                // creation time
    Writer.writeVarU64(MaxWireSlots + 8); // the bomb
    Writer.writeU8(0xff);                 // virgin-run tag
    Writer.writeVarU64(MaxWireSlots + 8);
    Writer.writeU64(0);
    Bundle = Writer.take();
  }
  expectRejectedThenAlive(Server,
                          encodeFrame(MessageType::SubmitImages, Bundle));

  // The bundle decoder itself refuses the declaration under the wire
  // budget.
  std::vector<HeapImage> Out;
  BundleBudget WireBudget{MaxWireSlots, MaxFramePayload};
  EXPECT_FALSE(deserializeImageBundle(Bundle, Out, WireBudget));
}

namespace {

/// A SubmitImages payload (primary bundle, then an empty fallback) whose
/// base image holds one allocated 64 KiB slot, object id 1, and whose
/// member image full-references that slot \p Refs times.  A reference
/// costs two wire bytes and decodes into a copy of the base slot's
/// contents: one literal run of 64 KiB (\p Literal) or 8,192 pattern
/// runs of one word each.
std::vector<uint8_t> fullReferencePayload(bool Literal, uint64_t Refs) {
  constexpr uint64_t SlotBytes = 64 * 1024;
  ByteWriter Writer;
  Writer.writeU32(0x58494231); // "XIB1"
  Writer.writeU32(ImageBundleFormatV2);
  Writer.writeVarU64(2); // base + member
  Writer.writeVarU64(1); // site table: just "no site"
  Writer.writeU32(0);
  for (uint64_t Image = 0; Image < 2; ++Image) {
    Writer.writeU64(1);         // AllocationTime
    Writer.writeU32(1);         // CanaryValue
    Writer.writeF64(1.0);       // p
    Writer.writeF64(2.0);       // M
    Writer.writeU64(3 + Image); // seed
    Writer.writeVarU64(1);      // one miniheap
    Writer.writeVarU64(0);      // size class
    Writer.writeVarU64(SlotBytes);
    Writer.writeU64(0x100000 * (Image + 1)); // base address
    Writer.writeVarU64(0);                   // creation time
    if (Image == 1) {
      Writer.writeVarU64(Refs);
      for (uint64_t R = 0; R < Refs; ++R) {
        Writer.writeU8(SlotRefFullTag);
        Writer.writeVarU64(1); // the base slot's object id
      }
      continue;
    }
    Writer.writeVarU64(1);    // one slot
    Writer.writeU8(0x80 | 1); // HasMeta | Allocated
    Writer.writeVarU64(1);    // object id
    Writer.writeVarU64(0);    // free time
    Writer.writeVarU64(0);    // alloc-site index
    Writer.writeVarU64(0);    // free-site index
    Writer.writeVarU64(SlotBytes);
    if (Literal) {
      Writer.writeVarU64(1);
      Writer.writeU8(0); // literal
      Writer.writeVarU64(SlotBytes);
      for (uint64_t I = 0; I < SlotBytes; ++I)
        Writer.writeU8(static_cast<uint8_t>(I % 251 + 1));
    } else {
      Writer.writeVarU64(SlotBytes / 8);
      for (uint64_t W = 0; W < SlotBytes / 8; ++W) {
        Writer.writeU8(1); // pattern
        Writer.writeVarU64(8);
        Writer.writeU64(W % 2 ? 0x1111111111111111ull : 0x2222222222222222ull);
      }
    }
  }
  serializeImageBundle({}, Writer); // the empty fallback bundle
  return Writer.take();
}

} // namespace

TEST(PatchExchange, RejectsFullReferenceAmplificationBomb) {
  // A few hundred wire bytes of full references would decode into
  // 125 MiB of literal bytes (2,000 copies of 64 KiB) or 75 MiB of run
  // records (400 copies of 8,192 runs): past the contents-byte budget
  // (MaxFramePayload) that bounds a submission like MaxWireSlots does.
  PatchServer Server;
  const std::vector<uint8_t> Literal =
      encodeFrame(MessageType::SubmitImages, fullReferencePayload(true, 2000));
  EXPECT_LT(Literal.size(), 1024u);
  expectRejectedThenAlive(Server, Literal);
  expectRejectedThenAlive(
      Server,
      encodeFrame(MessageType::SubmitImages, fullReferencePayload(false, 400)));

  // Under the budget the same shape decodes: the member's slots are the
  // base slot's copies.
  ImageEvidence Evidence;
  ASSERT_TRUE(decodeSubmitImages(fullReferencePayload(true, 4), Evidence));
  ASSERT_EQ(Evidence.Primary.size(), 2u);
  EXPECT_EQ(Evidence.Primary[1].totalSlots(), 4u);
  EXPECT_EQ(Evidence.Primary[1].pool().size(), 4u * 64 * 1024);
}

TEST(PatchExchange, RejectsCompressedContainerInsideFrame) {
  // The frame envelope compresses the payload and MaxFramePayload bounds
  // what it expands to; a bundle file's "XIC1" container as the primary
  // bundle would nest a second LZ stream past that bound.  Frames carry
  // bare bundles only.
  const std::string Path = ::testing::TempDir() + "/exchange_container.xib";
  ASSERT_TRUE(saveImageBundle(imagesFromTrace(overflowTrace(6), 3), Path));
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(readFileBytes(Path, Payload));
  std::remove(Path.c_str());
  const std::vector<uint8_t> Fallback = serializeImageBundle({});
  Payload.insert(Payload.end(), Fallback.begin(), Fallback.end());

  PatchServer Server;
  expectRejectedThenAlive(Server,
                          encodeFrame(MessageType::SubmitImages, Payload));
}

TEST(PatchExchange, SocketServerSurvivesHostileBytes) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/2);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  // Raw hostile connections: garbage bytes, a truncated header, a bad
  // checksum, an oversized length prefix, and an instant hangup.
  std::vector<uint8_t> BadChecksum =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  BadChecksum[FrameHeaderBytes + 2] ^= 0x80;
  std::vector<uint8_t> Oversized =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  const uint32_t Huge = ~uint32_t(0);
  std::memcpy(Oversized.data() + 6, &Huge, 4);
  std::vector<uint8_t> BadVersion =
      encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0));
  BadVersion[4] = 42;

  const std::vector<std::vector<uint8_t>> HostileStreams = {
      {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe},
      {0x58}, // one byte of a would-be header, then hangup
      BadChecksum,
      Oversized,
      BadVersion,
      {}, // connect-and-hangup
  };
  for (const std::vector<uint8_t> &Hostile : HostileStreams)
    sendRawBytes(Front.endpoint(), Hostile);

  // The server is still healthy: a real client round-trips.
  SocketClientTransport Transport(Front.endpoint());
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Client.epoch(), 0u);
  Front.stop();
}

TEST(PatchExchange, ShutdownFrameStopsSocketServer) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/2);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  SocketClientTransport Transport(Front.endpoint());
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.shutdownServer());
  Front.stop(); // joins; returns promptly because shutdown was accepted
  EXPECT_TRUE(Server.shutdownRequested());
}

//===----------------------------------------------------------------------===//
// Wire v4: compressed frames (PR 10)
//===----------------------------------------------------------------------===//

namespace {

/// Repetitive bytes that the frame envelope will actually compress.
std::vector<uint8_t> compressiblePayload(size_t Size) {
  std::vector<uint8_t> Payload;
  Payload.reserve(Size);
  for (size_t I = 0; I < Size; ++I)
    Payload.push_back(static_cast<uint8_t>((I / 64) % 16));
  return Payload;
}

/// Hand-assembles a v4 frame around an arbitrary (possibly forged)
/// payload envelope, with a valid checksum — the shape of a hostile
/// compressed-frame sender.
std::vector<uint8_t> forgedV4Frame(MessageType Type,
                                   const std::vector<uint8_t> &Envelope) {
  ByteWriter Writer;
  Writer.writeU32(FrameMagic);
  Writer.writeU8(ProtocolVersion);
  Writer.writeU8(static_cast<uint8_t>(Type));
  Writer.writeU32(static_cast<uint32_t>(Envelope.size()));
  Writer.writeBytes(Envelope.data(), Envelope.size());
  Writer.writeU32(frameChecksum(Envelope.data(), Envelope.size()));
  return Writer.take();
}

/// An envelope declaring an expansion past the frame budget: the
/// compression bomb every decoder must reject before allocating.
std::vector<uint8_t> bombEnvelope() {
  ByteWriter Writer;
  Writer.writeU8(PayloadEncodingLz);
  Writer.writeVarU64(uint64_t(MaxFramePayload) + 1);
  Writer.writeU8(0x00); // token bytes; never reached
  return Writer.take();
}

} // namespace

TEST(WireProtocol, V4CompressesAndRoundTrips) {
  const std::vector<uint8_t> Payload = compressiblePayload(32 * 1024);
  const std::vector<uint8_t> V4 =
      encodeFrame(MessageType::SubmitSummary, Payload);
  // The whole frame, header and checksum included, undercuts the bare
  // payload.
  EXPECT_LT(V4.size(), Payload.size());
  EXPECT_EQ(V4[FrameHeaderBytes], PayloadEncodingLz);

  Frame Decoded;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(V4.data(), V4.size(), Decoded, Consumed),
            FrameError::None);
  EXPECT_EQ(Consumed, V4.size());
  EXPECT_EQ(Decoded.Payload, Payload);
}

TEST(WireProtocol, V4StoresIncompressiblePayloadsRaw) {
  // Random bytes cannot shrink; the envelope must cost exactly its
  // one-byte encoding tag, and still round-trip.
  std::vector<uint8_t> Payload(4096);
  uint32_t State = 0x12345678;
  for (uint8_t &B : Payload) {
    State = State * 1664525u + 1013904223u;
    B = static_cast<uint8_t>(State >> 24);
  }
  const std::vector<uint8_t> V4 =
      encodeFrame(MessageType::SubmitSummary, Payload);
  EXPECT_EQ(V4.size(), FrameHeaderBytes + 1 + Payload.size() + 4);
  EXPECT_EQ(V4[FrameHeaderBytes], PayloadEncodingRaw);
  Frame Decoded;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(V4.data(), V4.size(), Decoded, Consumed),
            FrameError::None);
  EXPECT_EQ(Decoded.Payload, Payload);
}

TEST(WireProtocol, FrameLayoutIsPinnedByteForByte) {
  // The wire layout, hand-assembled from the documented format for both
  // envelope encodings: "XPF1" (little-endian), version 4, the message
  // type, the u32 LE envelope length, the envelope, and the u32 LE
  // FNV-1a of the envelope.  Any change here breaks every deployed peer.
  //
  // Raw envelope: a payload below the codec's minimum input rides as
  // 0x00 ++ payload.
  const std::vector<uint8_t> RawFrame{
      0x31, 0x46, 0x50, 0x58, 0x04, 0x02, 0x07, 0x00, 0x00, 0x00, // header
      0x00, 9,    8,    7,    6,    5,    4,                      // envelope
      0x66, 0xc3, 0x42, 0xc7};                                  // FNV-1a
  EXPECT_EQ(encodeFrame(MessageType::SubmitSummary, {9, 8, 7, 6, 5, 4}),
            RawFrame);

  // LZ envelope: 0x01 ++ varint RawSize (32) ++ the block — one
  // sequence (token 0x1f: one literal, match nibble 15; the literal;
  // offset 1 LE; match extension 12, so length 4 + 15 + 12 = 31) and
  // the terminal token with no literals.
  const std::vector<uint8_t> Payload(32, 0x5a);
  const std::vector<uint8_t> LzFrame{
      0x31, 0x46, 0x50, 0x58, 0x04, 0x02, 0x08, 0x00, 0x00, 0x00, // header
      0x01, 0x20, 0x1f, 0x5a, 0x01, 0x00, 0x0c, 0x00,             // envelope
      0xec, 0xcf, 0x01, 0x70};                                  // FNV-1a
  EXPECT_EQ(encodeFrame(MessageType::SubmitSummary, Payload), LzFrame);

  Frame Decoded;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(LzFrame.data(), LzFrame.size(), Decoded, Consumed),
            FrameError::None);
  EXPECT_EQ(Decoded.Payload, Payload);
  ASSERT_EQ(decodeFrame(RawFrame.data(), RawFrame.size(), Decoded, Consumed),
            FrameError::None);
  EXPECT_EQ(Decoded.Payload, std::vector<uint8_t>({9, 8, 7, 6, 5, 4}));
}

TEST(WireProtocol, RejectsCompressionBombBeforeAllocation) {
  const std::vector<uint8_t> Frame =
      forgedV4Frame(MessageType::SubmitSummary, bombEnvelope());
  exterminator::Frame Decoded;
  size_t Consumed = 0;
  EXPECT_EQ(decodeFrame(Frame.data(), Frame.size(), Decoded, Consumed),
            FrameError::OversizedExpansion);

  // Unknown encoding ids and empty envelopes are their own error.
  EXPECT_EQ(decodeFrame(
                forgedV4Frame(MessageType::SubmitSummary, {0x3f, 1, 2}).data(),
                forgedV4Frame(MessageType::SubmitSummary, {0x3f, 1, 2}).size(),
                Decoded, Consumed),
            FrameError::BadEncoding);
  const std::vector<uint8_t> Empty =
      forgedV4Frame(MessageType::SubmitSummary, {});
  EXPECT_EQ(decodeFrame(Empty.data(), Empty.size(), Decoded, Consumed),
            FrameError::BadEncoding);
}

TEST(WireProtocol, RejectsCorruptCompressedBody) {
  // Flip bytes inside a genuine v4 compressed envelope: the expansion
  // must fail as BadEncoding (or the checksum catches it first), never
  // produce wrong payload bytes silently.
  const std::vector<uint8_t> Payload = compressiblePayload(16 * 1024);
  std::vector<uint8_t> Good = encodeFrame(MessageType::SubmitSummary, Payload);
  size_t WrongPayloads = 0;
  for (size_t I = FrameHeaderBytes + 2; I < Good.size() - 4; I += 97) {
    std::vector<uint8_t> Mutated = Good;
    Mutated[I] ^= 0xff;
    Frame Decoded;
    size_t Consumed = 0;
    if (decodeFrame(Mutated.data(), Mutated.size(), Decoded, Consumed) ==
            FrameError::None &&
        Decoded.Payload != Payload)
      ++WrongPayloads; // checksum passed but payload differs: impossible
  }
  EXPECT_EQ(WrongPayloads, 0u);
}

TEST(PatchExchange, CompressionBombGetsErrorReplyOnLoopback) {
  PatchServer Server;
  expectRejectedThenAlive(Server,
                          forgedV4Frame(MessageType::SubmitSummary,
                                        bombEnvelope()));
  EXPECT_GE(Server.stats().FramesRejected, 1u);
}

TEST(PatchExchange, CompressionBombGetsErrorReplyOverTcp) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/1);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  SocketClientTransport Transport(Front.endpoint());
  std::vector<std::vector<uint8_t>> Responses;
  ASSERT_TRUE(Transport.exchange(
      {forgedV4Frame(MessageType::SubmitSummary, bombEnvelope())},
      Responses));
  ASSERT_EQ(Responses.size(), 1u);
  expectErrorReply(Responses[0], FrameError::OversizedExpansion);

  // Still healthy afterwards.
  SocketClientTransport Fresh(Front.endpoint());
  PatchClient Client(Fresh);
  EXPECT_TRUE(Client.fetchPatches());
  Front.stop();
}

TEST(PatchExchange, FatalFrameReplyReachesPipelinedClientOverTcp) {
  // A fatal frame at the head of a pipelined batch: the server answers
  // it with an ErrorReply and closes without reading on.  The lingering
  // close must deliver that reply — an immediate close() turns the
  // unread frames behind it into a reset, which can fail the client's
  // sends or flush the reply from its receive queue — and nothing
  // behind the fatal frame may be ingested.
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/1);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  // Valid summaries behind the bomb, bulky enough (about 1.7 MB in all,
  // random probabilities so the envelope cannot shrink them) that the
  // client is still writing when the server answers: far past what
  // socket buffers absorb, well inside the 4 MiB the lingering close
  // drains.
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  uint64_t State = 1;
  for (SiteId Site = 1; Site <= 4096; ++Site) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Summary.OverflowTrials.push_back(
        {Site, double(State >> 11) / double(uint64_t(1) << 53), true, 8});
  }
  std::vector<std::vector<uint8_t>> Batch{
      forgedV4Frame(MessageType::SubmitSummary, bombEnvelope())};
  for (uint64_t Token = 1; Token <= 24; ++Token)
    Batch.push_back(encodeFrame(MessageType::SubmitSummary,
                                encodeSubmitSummary(Summary, 0, Token)));

  SocketClientTransport Transport(Front.endpoint());
  std::vector<std::vector<uint8_t>> Responses;
  EXPECT_FALSE(Transport.exchange(Batch, Responses));
  ASSERT_EQ(Responses.size(), 1u);
  expectErrorReply(Responses[0], FrameError::OversizedExpansion);
  EXPECT_EQ(Server.stats().SummariesIngested, 0u);

  // The server is still healthy and holds nothing from the batch.
  SocketClientTransport Fresh(Front.endpoint());
  PatchClient Client(Fresh);
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Server.cumulativeRuns(), 0u);
  Front.stop();
}

//===----------------------------------------------------------------------===//
// Endpoint parsing
//===----------------------------------------------------------------------===//

TEST(Endpoint, ParsesUnixAndTcpSpecs) {
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("unix:/tmp/a.sock", Ep));
  EXPECT_EQ(Ep.Family, Endpoint::Unix);
  EXPECT_EQ(Ep.Path, "/tmp/a.sock");

  ASSERT_TRUE(parseEndpoint("tcp:8080", Ep));
  EXPECT_EQ(Ep.Family, Endpoint::Tcp);
  EXPECT_EQ(Ep.Host, "127.0.0.1");
  EXPECT_EQ(Ep.Port, 8080);

  ASSERT_TRUE(parseEndpoint("tcp:10.0.0.8:99", Ep));
  EXPECT_EQ(Ep.Host, "10.0.0.8");
  EXPECT_EQ(Ep.Port, 99);

  EXPECT_FALSE(parseEndpoint("", Ep));
  EXPECT_FALSE(parseEndpoint("unix:", Ep));
  EXPECT_FALSE(parseEndpoint("tcp:", Ep));
  EXPECT_FALSE(parseEndpoint("tcp:notaport", Ep));
  EXPECT_FALSE(parseEndpoint("tcp:70000", Ep));
  EXPECT_FALSE(parseEndpoint("http://x", Ep));
  // Hostnames are rejected at parse time: the connect path has no
  // resolver, so accepting one would mean a retry loop that can never
  // succeed.
  EXPECT_FALSE(parseEndpoint("tcp:localhost:8080", Ep));
}

//===----------------------------------------------------------------------===//
// Exchange-backed cumulative driver
//===----------------------------------------------------------------------===//

TEST(PatchExchange, CumulativeDriverOverExchangeMatchesLocal) {
  // The same buggy workload driven twice with identical seeds: once
  // against a local pipeline, once against a patch server over loopback.
  // The sessions must converge to bit-identical patch sets.
  auto MakeConfig = [] {
    ExterminatorConfig Config;
    Config.MasterSeed = 0xc0de;
    Config.CanaryFillProbability = 0.5;
    Config.Fault.Kind = FaultKind::PrematureFree;
    Config.Fault.TriggerAllocation = 180;
    Config.Fault.PatternSeed = 2;
    return Config;
  };

  EspressoWorkload LocalWork;
  CumulativeDriver Local(LocalWork, MakeConfig());
  const CumulativeOutcome LocalOutcome = Local.run(/*InputSeed=*/5, 150);

  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);
  EspressoWorkload RemoteWork;
  CumulativeDriver Remote(RemoteWork, MakeConfig());
  Remote.attachExchange(Client);
  const CumulativeOutcome RemoteOutcome = Remote.run(/*InputSeed=*/5, 150);

  EXPECT_TRUE(LocalOutcome.Isolated);
  EXPECT_EQ(RemoteOutcome.TransportFailures, 0u);
  EXPECT_EQ(RemoteOutcome.RunsExecuted, LocalOutcome.RunsExecuted);
  EXPECT_EQ(RemoteOutcome.FailuresObserved, LocalOutcome.FailuresObserved);
  EXPECT_EQ(RemoteOutcome.Isolated, LocalOutcome.Isolated);
  EXPECT_EQ(RemoteOutcome.Corrected, LocalOutcome.Corrected);
  EXPECT_TRUE(RemoteOutcome.Patches == LocalOutcome.Patches);
  EXPECT_TRUE(Server.snapshot().Patches == LocalOutcome.Patches);
}

TEST(PatchExchange, TwoClientsShareOneServersPatches) {
  // §6.4 at exchange scale: client A's evidence protects client B.
  PatchServer Server;
  LoopbackTransport Transport(Server);

  PatchClient Alice(Transport);
  ASSERT_TRUE(
      Alice.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));

  PatchClient Bob(Transport);
  ASSERT_TRUE(Bob.fetchPatches());
  EXPECT_FALSE(Bob.patches().empty());
  EXPECT_TRUE(Bob.patches() == Server.snapshot().Patches);
}

TEST(PatchExchange, ConcurrentClientsNeverShareASummaryToken) {
  // Every summary carries a dedup token minted by its client.  Clients
  // minting concurrently in one process must never draw the same token:
  // the server would acknowledge the second summary and then drop it as
  // a retry.
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 250;
  PatchServer Server;
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.OverflowTrials.push_back(OverflowTrial{0xabc, 0.5, false, 0});

  std::atomic<unsigned> Ready{0};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      LoopbackTransport Transport(Server);
      PatchClient Client(Transport);
      Ready.fetch_add(1);
      while (Ready.load() < Threads)
        std::this_thread::yield();
      for (unsigned I = 0; I < PerThread; ++I)
        if (!Client.submitSummary(Summary, 1))
          Failures.fetch_add(1);
    });
  for (std::thread &Worker : Workers)
    Worker.join();

  EXPECT_EQ(Failures.load(), 0u);
  const PatchServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.SummariesIngested, Threads * PerThread);
  EXPECT_EQ(Stats.DuplicatesSuppressed, 0u);
  EXPECT_EQ(Server.cumulativeRuns(), Threads * PerThread);
}

//===----------------------------------------------------------------------===//
// Hardening: stalled peers and connection caps (PR 4)
//===----------------------------------------------------------------------===//

namespace {

/// Connects to a TCP endpoint without sending anything; returns the fd.
int connectRaw(const Endpoint &Ep) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Ep.Port);
  if (::inet_pton(AF_INET, Ep.Host.c_str(), &Addr.sin_addr) != 1 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// True if the server closed \p Fd within \p TimeoutMs (poll reports
/// readable and the read drains to EOF).
bool closedByServer(int Fd, int TimeoutMs) {
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  uint8_t Drain[256];
  for (;;) {
    const auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline)
      return false;
    const int Remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
            .count());
    pollfd Poll{Fd, POLLIN, 0};
    if (::poll(&Poll, 1, Remaining) <= 0)
      continue;
    const ssize_t N = ::recv(Fd, Drain, sizeof(Drain), 0);
    if (N == 0)
      return true; // EOF: the server hung up
    if (N < 0 && errno != EINTR)
      return true; // reset also counts as "not parked"
  }
}

} // namespace

TEST(PatchExchange, StalledPeerCannotParkAWorkerIndefinitely) {
  PatchServer Server;
  // ONE worker: if the stalled connection parked it forever, no other
  // client could ever be served.
  SocketPatchServer Front(Server, /*Workers=*/1);
  Front.setReadTimeout(200);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  // The stalled peer: half a frame header, then silence.
  const int Stalled = connectRaw(Front.endpoint());
  ASSERT_GE(Stalled, 0);
  const uint8_t Partial[4] = {0x58, 0x50, 0x46, 0x31}; // "XPF1"
  ASSERT_EQ(::send(Stalled, Partial, sizeof(Partial), MSG_NOSIGNAL), 4);

  // A well-behaved client still gets served: the worker is freed after
  // at most one read timeout.
  SocketClientTransport Transport(Front.endpoint());
  PatchClient Client(Transport);
  EXPECT_TRUE(Client.fetchPatches());

  // And the stalled connection itself is cut off (ErrorReply + close),
  // not held open forever.
  EXPECT_TRUE(closedByServer(Stalled, /*TimeoutMs=*/5000));
  ::close(Stalled);
  Front.stop();
}

TEST(PatchExchange, TricklingPeerCannotResetTheFrameDeadline) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/1);
  Front.setReadTimeout(250);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  // Slow loris: one header byte at a time, each gap shorter than the
  // deadline.  A per-recv timeout would reset on every byte; the
  // absolute per-frame deadline must not.
  const int Trickler = connectRaw(Front.endpoint());
  ASSERT_GE(Trickler, 0);
  const uint8_t Header[4] = {0x58, 0x50, 0x46, 0x31}; // "XPF1"
  const auto Start = std::chrono::steady_clock::now();
  bool Closed = false;
  for (int I = 0; !Closed && std::chrono::steady_clock::now() - Start <
                                 std::chrono::seconds(5);
       ++I) {
    ::send(Trickler, Header + (I % 4), 1, MSG_NOSIGNAL);
    Closed = closedByServer(Trickler, /*TimeoutMs=*/100);
  }
  EXPECT_TRUE(Closed);
  ::close(Trickler);

  // The worker came back: a real client round-trips.
  SocketClientTransport Transport(Front.endpoint());
  PatchClient Client(Transport);
  EXPECT_TRUE(Client.fetchPatches());
  Front.stop();
}

TEST(PatchExchange, IdlePeerIsCutOffAfterReadTimeout) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/1);
  Front.setReadTimeout(150);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  // Connect and send nothing at all: the worker must not idle on the
  // silent connection past the timeout.
  const int Idle = connectRaw(Front.endpoint());
  ASSERT_GE(Idle, 0);
  EXPECT_TRUE(closedByServer(Idle, /*TimeoutMs=*/5000));
  ::close(Idle);
  Front.stop();
}

TEST(PatchExchange, ConnectionCapShedsExcessConnections) {
  PatchServer Server;
  SocketPatchServer Front(Server, /*Workers=*/2);
  Front.setMaxConnections(2);
  Front.setReadTimeout(0); // the held connections stay parked on purpose
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());

  // Two connections occupy the cap...
  const int First = connectRaw(Front.endpoint());
  const int Second = connectRaw(Front.endpoint());
  ASSERT_GE(First, 0);
  ASSERT_GE(Second, 0);
  // ...so the third is accepted and immediately closed.
  const int Third = connectRaw(Front.endpoint());
  ASSERT_GE(Third, 0);
  EXPECT_TRUE(closedByServer(Third, /*TimeoutMs=*/5000));
  ::close(Third);

  // Releasing capacity lets new connections through again: close one
  // holder and a real client round-trips.  The retry loop absorbs the
  // window in which the worker has not yet noticed the holder's EOF
  // (until it does, the cap still sheds the new connection).
  ::close(First);
  SocketClientTransport Transport(Front.endpoint());
  PatchClient Client(Transport);
  bool Fetched = false;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Fetched && std::chrono::steady_clock::now() < Deadline)
    Fetched = Client.fetchPatches();
  EXPECT_TRUE(Fetched);
  ::close(Second);
  Front.stop();
}

//===----------------------------------------------------------------------===//
// Durable state: crash recovery (StateStore)
//===----------------------------------------------------------------------===//

namespace {

/// A fresh per-test state directory under gtest's temp dir.
std::string freshStateDir(const std::string &Name) {
  const std::string Dir = ::testing::TempDir() + "/xst_" + Name;
  // Start clean: earlier runs of the same test leave files behind —
  // the journal and the whole snapshot ring.
  std::remove((Dir + "/journal.xsj").c_str());
  if (DIR *Handle = ::opendir(Dir.c_str())) {
    std::vector<std::string> Stale;
    while (struct dirent *Entry = ::readdir(Handle)) {
      const std::string File = Entry->d_name;
      if (File.rfind("snapshot", 0) == 0 &&
          File.size() >= 4 &&
          File.compare(File.size() - 4, 4, ".xst") == 0)
        Stale.push_back(Dir + "/" + File);
    }
    ::closedir(Handle);
    for (const std::string &Path : Stale)
      std::remove(Path.c_str());
  }
  return Dir;
}

/// The evidence stream the recovery tests feed: two image sets plus a
/// few summaries (enough to grow both patch and Bayes-trial state).
struct EvidenceStream {
  ImageEvidence Overflow;
  ImageEvidence Dangling;
  std::vector<RunSummary> Summaries;
};

EvidenceStream recoveryEvidence() {
  EvidenceStream Stream;
  Stream.Overflow = {imagesFromTrace(overflowTrace(6), 3), {}};
  Stream.Dangling = {imagesFromTrace(danglingTrace(), 3), {}};
  DiagnosisPipeline Scratch;
  for (const HeapImage &Image : Stream.Overflow.Primary)
    Stream.Summaries.push_back(Scratch.summarize(Image, /*Failed=*/true));
  return Stream;
}

/// Feeds \p Stream to \p Server through a loopback client (the same
/// frames a socket client would send).
void submitStream(PatchServer &Server, const EvidenceStream &Stream) {
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.submitImages(Stream.Overflow));
  ASSERT_TRUE(Client.submitImages(Stream.Dangling));
  for (const RunSummary &Summary : Stream.Summaries)
    ASSERT_TRUE(Client.submitSummary(Summary, /*CleanStreak=*/0));
}

} // namespace

TEST(StatePersistence, RestartReplaysJournalToBitIdenticalState) {
  const std::string Dir = freshStateDir("replay");
  const EvidenceStream Stream = recoveryEvidence();

  // The uninterrupted reference: a local pipeline fed the same stream.
  DiagnosisPipeline Local;
  Local.submitImages(Stream.Overflow);
  Local.submitImages(Stream.Dangling);
  for (const RunSummary &Summary : Stream.Summaries)
    Local.submitSummary(Summary, 0);

  std::vector<uint8_t> PreCrashState;
  {
    // Original server: attach (snapshot interval high enough that all
    // submissions stay in the journal), ingest, then "crash" — no
    // persistNow, no graceful anything; the destructor is all it gets.
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
    submitStream(Original, Stream);
    EXPECT_GT(Original.stats().JournalAppends, 0u);
    EXPECT_EQ(Original.stats().PersistFailures, 0u);
    PreCrashState = Original.serializeState();
  }
  EXPECT_EQ(PreCrashState, Local.serializeState());

  // Recovery: snapshot + journal replay must land on the bit-identical
  // diagnostic state — same patches, same epoch, same Bayes sums.
  PatchServer Recovered;
  StateStore Store(Dir);
  ASSERT_TRUE(Recovered.attachState(Store));
  EXPECT_EQ(Recovered.serializeState(), PreCrashState);
  EXPECT_TRUE(Recovered.snapshot().Patches == Local.patches());
  EXPECT_EQ(Recovered.snapshot().Epoch, Local.epoch());

  // And the recovered classifier keeps classifying identically: one
  // more summary lands on both and must produce the same factors.
  const CumulativeDiagnosis FromLocal =
      Local.submitSummary(Stream.Summaries.front(), 0);
  LoopbackTransport Transport(Recovered);
  PatchClient Client(Transport);
  CumulativeDiagnosis FromRecovered;
  ASSERT_TRUE(
      Client.submitSummary(Stream.Summaries.front(), 0, &FromRecovered));
  ASSERT_EQ(FromRecovered.Overflows.size(), FromLocal.Overflows.size());
  for (size_t I = 0; I < FromLocal.Overflows.size(); ++I) {
    EXPECT_EQ(FromRecovered.Overflows[I].AllocSite,
              FromLocal.Overflows[I].AllocSite);
    EXPECT_EQ(FromRecovered.Overflows[I].LogBayesFactor,
              FromLocal.Overflows[I].LogBayesFactor);
  }
  ASSERT_EQ(FromRecovered.Danglings.size(), FromLocal.Danglings.size());
  for (size_t I = 0; I < FromLocal.Danglings.size(); ++I)
    EXPECT_EQ(FromRecovered.Danglings[I].LogBayesFactor,
              FromLocal.Danglings[I].LogBayesFactor);
  EXPECT_EQ(Recovered.serializeState(), Local.serializeState());
}

TEST(StatePersistence, RetentionKeepsLastK) {
  const std::string Dir = freshStateDir("retain");
  StateStore Store(Dir);
  Store.setSnapshotKeep(3);
  PatchServer Server;
  ASSERT_TRUE(Server.attachState(Store, /*SnapshotInterval=*/1000));
  {
    LoopbackTransport Transport(Server);
    PatchClient Client(Transport);
    ASSERT_TRUE(
        Client.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));
  }
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(Server.persistNow());

  const std::vector<std::string> Ring = Store.snapshotFiles();
  EXPECT_EQ(Ring.size(), 3u);
  // Newest-first, and the head is what snapshotPath() serves.
  ASSERT_FALSE(Ring.empty());
  EXPECT_EQ(Ring.front(), Store.snapshotPath());

  // The pruned directory still recovers the full state.
  PatchServer Recovered;
  StateStore Reopened(Dir);
  ASSERT_TRUE(Recovered.attachState(Reopened));
  EXPECT_EQ(Recovered.serializeState(), Server.serializeState());
}

TEST(StatePersistence, SnapshotIntervalCompactsAndStillRecovers) {
  const std::string Dir = freshStateDir("interval");
  const EvidenceStream Stream = recoveryEvidence();

  std::vector<uint8_t> PreCrashState;
  {
    PatchServer Original;
    StateStore Store(Dir);
    // Interval 1: every submission immediately folds into a snapshot.
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1));
    submitStream(Original, Stream);
    EXPECT_GT(Original.stats().SnapshotsWritten, 1u);
    PreCrashState = Original.serializeState();
  }
  PatchServer Recovered;
  StateStore Store(Dir);
  ASSERT_TRUE(Recovered.attachState(Store));
  EXPECT_EQ(Recovered.serializeState(), PreCrashState);
}

TEST(StatePersistence, TruncatedHeadSnapshotFallsBackToPreviousGeneration) {
  const std::string Dir = freshStateDir("truncsnap");
  const EvidenceStream Stream = recoveryEvidence();

  // Build two durable generations with distinct states: generation A
  // (overflow evidence only) and generation B (dangling evidence on
  // top).  The intermediate attach re-snapshots A, so after pruning
  // (keep defaults to 2) the ring holds one snapshot of each state.
  std::vector<uint8_t> StateA, StateB;
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
    LoopbackTransport Transport(Original);
    PatchClient Client(Transport);
    ASSERT_TRUE(Client.submitImages(Stream.Overflow));
    ASSERT_TRUE(Original.persistNow());
    StateA = Original.serializeState();
  }
  {
    PatchServer Middle;
    StateStore Store(Dir);
    ASSERT_TRUE(Middle.attachState(Store, /*SnapshotInterval=*/1000));
    LoopbackTransport Transport(Middle);
    PatchClient Client(Transport);
    ASSERT_TRUE(Client.submitImages(Stream.Dangling));
    ASSERT_TRUE(Middle.persistNow());
    StateB = Middle.serializeState();
    ASSERT_NE(StateA, StateB);
  }

  // Tear the head snapshot: drop its tail (what an interrupted
  // non-atomic write would have left).
  {
    StateStore Probe(Dir);
    const std::vector<std::string> Ring = Probe.snapshotFiles();
    ASSERT_GE(Ring.size(), 2u);
    std::vector<uint8_t> Snap;
    ASSERT_TRUE(readFileBytes(Probe.snapshotPath(), Snap));
    ASSERT_GT(Snap.size(), 16u);
    Snap.resize(Snap.size() - 11);
    ASSERT_TRUE(writeFileBytes(Probe.snapshotPath(), Snap));
  }

  // Recovery falls back to the previous generation — state A, whole,
  // never a half-load of the torn head.
  {
    PatchServer Recovered;
    StateStore Store(Dir);
    ASSERT_TRUE(Recovered.attachState(Store));
    EXPECT_EQ(Recovered.serializeState(), StateA);
  }

  // When every snapshot in the ring is torn there is nothing left to
  // fall back to: attach must fail and leave the pipeline blank.
  {
    StateStore Probe(Dir);
    for (const std::string &Path : Probe.snapshotFiles()) {
      std::vector<uint8_t> Snap;
      ASSERT_TRUE(readFileBytes(Path, Snap));
      ASSERT_GT(Snap.size(), 16u);
      Snap.resize(Snap.size() - 11);
      ASSERT_TRUE(writeFileBytes(Path, Snap));
    }
    PatchServer Recovered;
    StateStore Store(Dir);
    std::string Error;
    EXPECT_FALSE(Recovered.attachState(Store, 64, &Error));
    EXPECT_FALSE(Error.empty());
    EXPECT_EQ(Recovered.snapshot().Epoch, 0u);
    EXPECT_TRUE(Recovered.snapshot().Patches.empty());
  }
}

TEST(StatePersistence, TornJournalTailIsSkipped) {
  const std::string Dir = freshStateDir("torntail");
  std::vector<uint8_t> PreCrashState;
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
    submitStream(Original, recoveryEvidence());
    PreCrashState = Original.serializeState();
  }
  // Simulate a crash mid-append: a record whose length prefix promises
  // more bytes than the file holds.
  StateStore Probe(Dir);
  std::vector<uint8_t> Journal;
  ASSERT_TRUE(readFileBytes(Probe.journalPath(), Journal));
  const std::vector<uint8_t> Torn = {0x40, 0x00, 0x00, 0x00, 1, 2, 3};
  Journal.insert(Journal.end(), Torn.begin(), Torn.end());
  ASSERT_TRUE(writeFileBytes(Probe.journalPath(), Journal));

  PatchServer Recovered;
  StateStore Store(Dir);
  ASSERT_TRUE(Recovered.attachState(Store));
  EXPECT_EQ(Recovered.serializeState(), PreCrashState);
}

TEST(StatePersistence, CorruptedJournalRecordStopsReplayThere) {
  const std::string Dir = freshStateDir("badsum");
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
    submitStream(Original, recoveryEvidence());
  }
  // Flip one byte inside the last record's payload: its checksum no
  // longer matches, so replay must stop before it — without crashing.
  StateStore Probe(Dir);
  std::vector<uint8_t> Journal;
  ASSERT_TRUE(readFileBytes(Probe.journalPath(), Journal));
  ASSERT_GT(Journal.size(), 20u);
  Journal[Journal.size() - 10] ^= 0xff;
  ASSERT_TRUE(writeFileBytes(Probe.journalPath(), Journal));

  PatchServer Recovered;
  StateStore Store(Dir);
  ASSERT_TRUE(Recovered.attachState(Store));
  // The last record (the third summary) is gone; everything before it
  // replayed.
  EXPECT_EQ(Recovered.cumulativeRuns(), 2u);
}

TEST(StatePersistence, RecoveredServerKeepsEpochAndClientRefetchesOnce) {
  const std::string Dir = freshStateDir("refetch");
  const EvidenceStream Stream = recoveryEvidence();

  uint64_t OldInstance = 0, OldEpoch = 0;
  PatchSet OldPatches;
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store));
    submitStream(Original, Stream);
    LoopbackTransport Transport(Original);
    PatchClient Client(Transport);
    ASSERT_TRUE(Client.fetchPatches());
    OldInstance = Client.serverInstance();
    OldEpoch = Client.epoch();
    OldPatches = Client.patches();
    ASSERT_GT(OldEpoch, 0u);
  }

  PatchServer Recovered;
  StateStore Store(Dir);
  ASSERT_TRUE(Recovered.attachState(Store));
  // Same epoch, fresh instance: the (instance, epoch) staleness pair
  // can never collide with the pre-crash server's.
  ASSERT_EQ(Recovered.snapshot().Epoch, OldEpoch);
  ASSERT_NE(Recovered.instance(), OldInstance);

  // A client still holding the pre-crash pair re-fetches exactly once...
  LoopbackTransport Transport(Recovered);
  auto FetchWith = [&](uint64_t Epoch, uint64_t Instance,
                       PatchesReply &Out) {
    std::vector<std::vector<uint8_t>> Responses;
    ASSERT_TRUE(Transport.exchange(
        {encodeFrame(MessageType::FetchPatches,
                     encodeFetchPatches(Epoch, Instance))},
        Responses));
    Frame Reply;
    size_t Consumed = 0;
    ASSERT_EQ(decodeFrame(Responses[0].data(), Responses[0].size(), Reply,
                          Consumed),
              FrameError::None);
    ASSERT_TRUE(decodePatchesReply(Reply.Payload, Out));
  };
  PatchesReply First;
  FetchWith(OldEpoch, OldInstance, First);
  EXPECT_TRUE(First.Modified);
  EXPECT_TRUE(First.Patches == OldPatches);
  EXPECT_EQ(First.Epoch, OldEpoch);
  EXPECT_EQ(First.Instance, Recovered.instance());

  // ...and holding the recovered pair, not again.
  PatchesReply Second;
  FetchWith(First.Epoch, First.Instance, Second);
  EXPECT_FALSE(Second.Modified);
}

TEST(StatePersistence, SeedMergesIntoRestoredStateAndIsJournaled) {
  const std::string Dir = freshStateDir("seed");
  const EvidenceStream Stream = recoveryEvidence();
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store));
    submitStream(Original, Stream);
  }

  PatchSet Seed;
  Seed.addPad(0xfeedface, 96); // a site the evidence never produced
  PatchSet Expected;
  {
    PatchServer Recovered;
    StateStore Store(Dir);
    ASSERT_TRUE(Recovered.attachState(Store));
    const PatchSnapshot Restored = Recovered.snapshot();
    const uint64_t EpochBefore = Restored.Epoch;
    Recovered.seedPatches(Seed); // state dir is the base; seed merges in
    Expected = Restored.Patches;
    Expected.merge(Seed);
    EXPECT_TRUE(Recovered.snapshot().Patches == Expected);
    EXPECT_EQ(Recovered.snapshot().Epoch, EpochBefore + 1);
    // Crash again (no persistNow): the seed must have been journaled.
  }
  PatchServer Again;
  StateStore Store(Dir);
  ASSERT_TRUE(Again.attachState(Store));
  EXPECT_TRUE(Again.snapshot().Patches == Expected);
}

TEST(StatePersistence, ForeignJournalConflictingEpochsRejected) {
  const std::string DirA = freshStateDir("conflict_a");
  const std::string DirB = freshStateDir("conflict_b");

  // Server A: fresh attach (snapshot generation 1, epoch 0), then one
  // epoch-bumping image submission left in the journal.
  {
    PatchServer A;
    StateStore Store(DirA);
    ASSERT_TRUE(A.attachState(Store, /*SnapshotInterval=*/1000));
    LoopbackTransport Transport(A);
    PatchClient Client(Transport);
    ASSERT_TRUE(
        Client.submitImages({imagesFromTrace(overflowTrace(6), 3), {}}));
    ASSERT_EQ(A.snapshot().Epoch, 1u);
  }
  // Server B: seeded *before* attach, so its generation-1 snapshot
  // already sits at epoch 1 with different patches.
  {
    PatchServer B;
    PatchSet Seed;
    Seed.addPad(0xb00b00, 32);
    B.seedPatches(Seed);
    StateStore Store(DirB);
    ASSERT_TRUE(B.attachState(Store, /*SnapshotInterval=*/1000));
  }
  // Graft A's journal (same generation, records expecting EpochAfter 1)
  // onto B's snapshot: replaying A's delta on top of B's state lands on
  // epoch 2 ≠ 1 — the journal does not belong to this snapshot.
  std::vector<uint8_t> ForeignJournal;
  ASSERT_TRUE(
      readFileBytes(StateStore(DirA).journalPath(), ForeignJournal));
  ASSERT_TRUE(
      writeFileBytes(StateStore(DirB).journalPath(), ForeignJournal));

  PatchServer Grafted;
  StateStore Store(DirB);
  std::string Error;
  EXPECT_FALSE(Grafted.attachState(Store, 64, &Error));
  EXPECT_NE(Error.find("conflicting epochs"), std::string::npos);
  // The failed attach left the serving pipeline untouched — no
  // partially replayed foreign history.
  EXPECT_EQ(Grafted.snapshot().Epoch, 0u);
  EXPECT_TRUE(Grafted.snapshot().Patches.empty());
}

TEST(StatePersistence, CorruptedJournalHeaderIsRejected) {
  const std::string Dir = freshStateDir("badheader");
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
    submitStream(Original, recoveryEvidence());
  }
  // Header writes are atomic, so a flipped magic byte is external
  // corruption of records clients were told are durable: refuse to
  // serve rather than silently dropping them.
  StateStore Probe(Dir);
  std::vector<uint8_t> Journal;
  ASSERT_TRUE(readFileBytes(Probe.journalPath(), Journal));
  Journal[0] ^= 0xff;
  ASSERT_TRUE(writeFileBytes(Probe.journalPath(), Journal));

  PatchServer Recovered;
  StateStore Store(Dir);
  std::string Error;
  EXPECT_FALSE(Recovered.attachState(Store, 64, &Error));
}

TEST(StatePersistence, JournalWithoutSnapshotIsCorrupt) {
  const std::string Dir = freshStateDir("orphan");
  {
    PatchServer Original;
    StateStore Store(Dir);
    ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
    submitStream(Original, recoveryEvidence());
  }
  StateStore Probe(Dir);
  ASSERT_EQ(std::remove(Probe.snapshotPath().c_str()), 0);

  PatchServer Recovered;
  StateStore Store(Dir);
  std::string Error;
  EXPECT_FALSE(Recovered.attachState(Store, 64, &Error));
}

TEST(StatePersistence, SnapshotsAreCompressedStrictlySmallerThanRaw) {
  // The PR 10 acceptance pin: the on-disk snapshot file must be
  // strictly smaller than the raw pipeline state it holds, and load
  // back bit-identically.
  const std::string Dir = freshStateDir("codecsnap");
  PatchServer Server;
  submitStream(Server, recoveryEvidence());
  const std::vector<uint8_t> RawState = Server.serializeState();
  ASSERT_GT(RawState.size(), 0u);

  {
    StateStore Store(Dir);
    ASSERT_TRUE(Store.writeSnapshot(RawState));
    std::vector<uint8_t> FileBytes;
    ASSERT_TRUE(readFileBytes(Store.snapshotPath(), FileBytes));
    EXPECT_LT(FileBytes.size(), RawState.size())
        << "snapshot file " << FileBytes.size() << " B vs raw state "
        << RawState.size() << " B";
  }

  std::vector<uint8_t> Restored;
  std::vector<StateStore::JournalRecord> Records;
  StateStore Reopened(Dir);
  ASSERT_EQ(Reopened.load(Restored, Records),
            StateStore::LoadResult::Restored);
  EXPECT_EQ(Restored, RawState);
  EXPECT_TRUE(Records.empty());
}

TEST(StatePersistence, RemovedFormatVersionsAreRefusedNotFresh) {
  // Snapshot version 1 (the state blob stored raw) and journal versions
  // 1 and 2 are no longer read.  A directory holding one must load as
  // Corrupt and fail attach: loading it as fresh would drop
  // acknowledged history, and half-reading it would fabricate some.
  enum class Removed { SnapshotV1, JournalV1, JournalV2 };
  for (const Removed Case :
       {Removed::SnapshotV1, Removed::JournalV1, Removed::JournalV2}) {
    SCOPED_TRACE(static_cast<int>(Case));
    const std::string Dir = freshStateDir("removedversion");
    {
      PatchServer Original;
      StateStore Store(Dir);
      ASSERT_TRUE(Original.attachState(Store, /*SnapshotInterval=*/1000));
      submitStream(Original, recoveryEvidence());
    }
    StateStore Probe(Dir);
    ASSERT_EQ(Probe.snapshotFiles().size(), 1u);
    const std::string Path = Case == Removed::SnapshotV1
                                 ? Probe.snapshotPath()
                                 : Probe.journalPath();
    std::vector<uint8_t> Bytes;
    ASSERT_TRUE(readFileBytes(Path, Bytes));
    if (Case == Removed::SnapshotV1) {
      // Re-encode in the version-1 layout: the same fields with the
      // state blob raw instead of in a codec envelope, checksummed.
      StateStore::SnapshotContents Snapshot;
      ASSERT_TRUE(StateStore::parseSnapshot(Bytes, Snapshot));
      ByteWriter V1;
      V1.writeU32(readFrameU32(Bytes.data())); // "XST1"
      V1.writeU8(1);
      V1.writeU64(Snapshot.Generation);
      V1.writeBlob(Snapshot.State);
      V1.writeU32(frameChecksum(V1.buffer().data(), V1.size()));
      Bytes = V1.buffer();
    } else {
      Bytes[4] = Case == Removed::JournalV1 ? 1 : 2; // header version
    }
    ASSERT_TRUE(writeFileBytes(Path, Bytes));

    std::vector<uint8_t> State;
    std::vector<StateStore::JournalRecord> Records;
    EXPECT_EQ(Probe.load(State, Records), StateStore::LoadResult::Corrupt);
    PatchServer Recovered;
    StateStore Store(Dir);
    std::string Error;
    EXPECT_FALSE(Recovered.attachState(Store, 64, &Error));
    EXPECT_FALSE(Error.empty());
  }
}
