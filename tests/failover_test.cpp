//===- tests/failover_test.cpp - Replicated-fleet robustness tests ----------===//
//
// Covers the fault-tolerant exchange tier: the v2 wire messages
// (MergePatches / ReplicateSummary and their replies), snapshot
// rotation and corrupt-head fallback in StateStore, FailoverTransport's
// retry budget and jittered backoff envelope, the FaultyTransport fault
// matrix (dropped replies must not double-count summaries; duplicated
// batches must be epoch-idempotent), and ReplicaSet convergence —
// including a deterministic in-process chaos run that kills and
// restarts a server mid-stream and pins that the surviving fleet
// converges to a patch set bit-identical to a no-failure run.
//
//===----------------------------------------------------------------------===//

#include "exchange/FailoverTransport.h"
#include "exchange/FaultyTransport.h"
#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "exchange/Replication.h"
#include "exchange/StateStore.h"
#include "exchange/Transport.h"

#include "TestHelpers.h"
#include "diagnose/DiagnosisPipeline.h"
#include "patch/PatchIO.h"
#include "support/Serializer.h"
#include "workload/ScriptedBugs.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <memory>
#include <string>
#include <vector>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

//===----------------------------------------------------------------------===//
// Scaffolding
//===----------------------------------------------------------------------===//

/// A transport whose endpoint is permanently down.
struct DeadTransport : ClientTransport {
  bool exchange(const std::vector<std::vector<uint8_t>> &,
                std::vector<std::vector<uint8_t>> &) override {
    return false;
  }
  std::string lastError() const override { return "endpoint down"; }
};

/// A loopback that can be re-pointed at a different server — or at
/// nothing.  The in-process form of SIGKILL (Target = nullptr) and of
/// restarting the process (Target = the replacement server, which has a
/// fresh instance id, like a real restart).
struct RebindableLoopback : ClientTransport {
  PatchServer *Target = nullptr;
  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override {
    if (!Target)
      return false;
    LoopbackTransport Inner(*Target);
    return Inner.exchange(Requests, ResponsesOut);
  }
  std::string lastError() const override {
    return Target ? std::string() : "server killed";
  }
};

std::string freshStateDir(const std::string &Name) {
  const std::string Dir = ::testing::TempDir() + "/xfo_" + Name;
  std::remove((Dir + "/journal.xsj").c_str());
  if (DIR *Handle = ::opendir(Dir.c_str())) {
    std::vector<std::string> Stale;
    while (struct dirent *Entry = ::readdir(Handle)) {
      const std::string File = Entry->d_name;
      if (File.rfind("snapshot", 0) == 0 && File.size() >= 4 &&
          File.compare(File.size() - 4, 4, ".xst") == 0)
        Stale.push_back(Dir + "/" + File);
    }
    ::closedir(Handle);
    for (const std::string &Path : Stale)
      std::remove(Path.c_str());
  }
  return Dir;
}

ImageEvidence overflowEvidence() {
  return {imagesFromTrace(scriptedOverflowTrace(6), 3), {}};
}

ImageEvidence danglingEvidence() {
  return {imagesFromTrace(scriptedDanglingTrace(), 3), {}};
}

RunSummary failedRunSummary() {
  DiagnosisPipeline Scratch;
  return Scratch.summarize(overflowEvidence().Primary.front(),
                           /*Failed=*/true);
}

/// Fast-retry policy for tests: real waiting is the backoff suite's
/// business, everyone else just wants the walk.
FailoverPolicy quickPolicy(unsigned MaxAttempts = 6) {
  FailoverPolicy Policy;
  Policy.MaxAttempts = MaxAttempts;
  Policy.BaseBackoffMs = 1;
  Policy.MaxBackoffMs = 2;
  return Policy;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire codec: the replication messages (protocol v2)
//===----------------------------------------------------------------------===//

TEST(FleetWireCodec, MergePatchesRoundTrip) {
  PatchSet Delta;
  Delta.addPad(0x1111, 24);
  Delta.addFrontPad(0x2222, 8);
  Delta.addDeferral(0x3333, 0x4444, 77);

  const std::vector<uint8_t> Payload = encodeMergePatches(Delta);
  PatchSet Out;
  Out.addPad(0x9999, 1); // must be cleared, not merged into
  ASSERT_TRUE(decodeMergePatches(Payload, Out));
  EXPECT_TRUE(Out == Delta);

  // A truncated payload is rejected all-or-nothing.
  std::vector<uint8_t> Torn(Payload.begin(), Payload.end() - 3);
  PatchSet Ignored;
  EXPECT_FALSE(decodeMergePatches(Torn, Ignored));
}

TEST(FleetWireCodec, MergeReplyRoundTrip) {
  MergeReply Reply;
  Reply.Instance = 0xabcdef0123456789ull;
  Reply.Epoch = 42;
  Reply.Changed = true;
  const std::vector<uint8_t> Payload = encodeMergeReply(Reply);
  MergeReply Out;
  ASSERT_TRUE(decodeMergeReply(Payload, Out));
  EXPECT_EQ(Out.Instance, Reply.Instance);
  EXPECT_EQ(Out.Epoch, Reply.Epoch);
  EXPECT_TRUE(Out.Changed);

  // The flag byte is strictly 0 or 1: anything else is a framing bug,
  // not a boolean.
  std::vector<uint8_t> Tampered = Payload;
  Tampered.back() = 2;
  EXPECT_FALSE(decodeMergeReply(Tampered, Out));
}

TEST(FleetWireCodec, ReplicateReplyRoundTrip) {
  ReplicateAck Ack;
  Ack.Instance = 7;
  Ack.Epoch = 9;
  Ack.Applied = false;
  const std::vector<uint8_t> Payload = encodeReplicateReply(Ack);
  ReplicateAck Out;
  Out.Applied = true;
  ASSERT_TRUE(decodeReplicateReply(Payload, Out));
  EXPECT_EQ(Out.Instance, 7u);
  EXPECT_EQ(Out.Epoch, 9u);
  EXPECT_FALSE(Out.Applied);
}

TEST(FleetWireCodec, SummaryCarriesDedupToken) {
  const RunSummary Summary = failedRunSummary();
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

//===----------------------------------------------------------------------===//
// Snapshot rotation
//===----------------------------------------------------------------------===//

TEST(SnapshotRotation, RetentionKeepsLastK) {
  const std::string Dir = freshStateDir("retain");
  StateStore Store(Dir);
  Store.setSnapshotKeep(3);
  PatchServer Server;
  ASSERT_TRUE(Server.attachState(Store, /*SnapshotInterval=*/1000));
  {
    LoopbackTransport Transport(Server);
    PatchClient Client(Transport);
    ASSERT_TRUE(Client.submitImages(overflowEvidence()));
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

//===----------------------------------------------------------------------===//
// Failover: retry budget and backoff envelope
//===----------------------------------------------------------------------===//

TEST(FailoverBackoff, ExhaustsBudgetWithinBackoffEnvelope) {
  DeadTransport D1, D2;
  FailoverPolicy Policy;
  Policy.MaxAttempts = 6;
  Policy.BaseBackoffMs = 2;
  Policy.MaxBackoffMs = 8;
  Policy.JitterFraction = 0.5;
  Policy.Seed = 42;
  FailoverTransport Transport({&D1, &D2}, Policy, {"d1", "d2"});

  std::vector<std::vector<uint8_t>> Responses;
  const auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Transport.exchange(
      {encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0))},
      Responses));
  const auto ElapsedMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - Start)
          .count();

  EXPECT_EQ(Transport.stats().Attempts, 6u);
  EXPECT_EQ(Transport.stats().Exhausted, 1u);
  // One sleep between consecutive attempts: budget − 1 of them, each
  // inside [capped·(1−jitter), capped] for its failure ordinal.
  const std::vector<unsigned> &Backoffs = Transport.backoffHistory();
  ASSERT_EQ(Backoffs.size(), 5u);
  uint64_t TotalSleptMs = 0;
  for (size_t I = 0; I < Backoffs.size(); ++I) {
    const unsigned Capped =
        std::min(Policy.BaseBackoffMs << I, Policy.MaxBackoffMs);
    EXPECT_LE(Backoffs[I], Capped) << "backoff " << I;
    EXPECT_GE(Backoffs[I] + 1, Capped / 2) << "backoff " << I;
    TotalSleptMs += Backoffs[I];
  }
  // The sleeps really happened (sleep_for never wakes early).
  EXPECT_GE(static_cast<uint64_t>(ElapsedMs) + 1, TotalSleptMs);

  // Per-endpoint roll-up names every endpoint and its failure.
  EXPECT_NE(Transport.lastError().find("d1"), std::string::npos);
  EXPECT_NE(Transport.lastError().find("d2"), std::string::npos);
  EXPECT_NE(Transport.lastError().find("endpoint down"),
            std::string::npos);

  // The jitter stream is deterministic: the same policy replays the
  // same backoff sequence.
  FailoverTransport Replay({&D1, &D2}, Policy, {"d1", "d2"});
  EXPECT_FALSE(Replay.exchange(
      {encodeFrame(MessageType::FetchPatches, encodeFetchPatches(0, 0))},
      Responses));
  EXPECT_EQ(Replay.backoffHistory(), Backoffs);
}

TEST(FailoverBackoff, FailsOverToHealthyEndpointAndSticks) {
  PatchServer Server;
  LoopbackTransport Live(Server);
  DeadTransport Dead;
  FailoverTransport Transport({&Dead, &Live}, quickPolicy(4),
                              {"dead", "live"});
  PatchClient Client(Transport);

  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Transport.stats().Attempts, 2u);
  EXPECT_EQ(Transport.stats().Failovers, 1u);
  EXPECT_EQ(Transport.stats().Exhausted, 0u);

  // Sticky preference: the next exchange goes straight to the endpoint
  // that worked.
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_EQ(Transport.stats().Attempts, 3u);
}

TEST(FailoverBackoff, RotatePolicySpreadsExchanges) {
  PatchServer A, B;
  LoopbackTransport ToA(A), ToB(B);
  FailoverPolicy Policy = quickPolicy(2);
  Policy.Rotate = true;
  FailoverTransport Transport({&ToA, &ToB}, Policy, {"a", "b"});
  PatchClient Client(Transport);
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(Client.fetchPatches());
  // Four fetches, two servers, round-robin: two each.
  EXPECT_EQ(A.stats().FetchesServed, 2u);
  EXPECT_EQ(B.stats().FetchesServed, 2u);
}

//===----------------------------------------------------------------------===//
// Fault matrix: what each injected fault must and must not change
//===----------------------------------------------------------------------===//

TEST(FaultMatrix, DroppedReplyRetryAppliesSummaryExactlyOnce) {
  PatchServer Server;
  LoopbackTransport Inner(Server);
  FaultyTransport Faulty(Inner);
  // The server applies the batch but the client never hears back; the
  // failover layer retries the *same encoded frame* — same token.
  Faulty.push(TransportFault::DropReply);
  FailoverTransport Transport({&Faulty}, quickPolicy(4), {"flaky"});
  PatchClient Client(Transport);

  const RunSummary Summary = failedRunSummary();
  ASSERT_TRUE(Client.submitSummary(Summary, /*CleanStreak=*/0));
  EXPECT_EQ(Server.stats().SummariesIngested, 1u);
  EXPECT_EQ(Server.stats().DuplicatesSuppressed, 1u);
  EXPECT_EQ(Server.cumulativeRuns(), 1u);

  // Bit-identical to a single clean application: the retry left no
  // trace in the diagnostic state.
  PatchServer Reference;
  LoopbackTransport RefTransport(Reference);
  PatchClient RefClient(RefTransport);
  ASSERT_TRUE(RefClient.submitSummary(Summary, 0));
  EXPECT_EQ(Server.serializeState(), Reference.serializeState());
}

TEST(FaultMatrix, DuplicatedBatchIsEpochAndTrialIdempotent) {
  PatchServer Server;
  LoopbackTransport Inner(Server);
  FaultyTransport Faulty(Inner);
  PatchClient Client(Faulty);

  // Images delivered twice: max-merge makes the second pass a no-op, so
  // the epoch bumps exactly once.
  Faulty.push(TransportFault::Duplicate);
  ASSERT_TRUE(Client.submitImages(overflowEvidence()));
  EXPECT_EQ(Server.snapshot().Epoch, 1u);

  // A summary delivered twice counts one trial; the duplicate is
  // token-suppressed.
  Faulty.push(TransportFault::Duplicate);
  ASSERT_TRUE(Client.submitSummary(failedRunSummary(), 0));
  EXPECT_EQ(Server.cumulativeRuns(), 1u);
  EXPECT_EQ(Server.stats().DuplicatesSuppressed, 1u);
}

TEST(FaultMatrix, TruncatedReplyIsRejectedCleanly) {
  PatchServer Server;
  LoopbackTransport Inner(Server);
  FaultyTransport Faulty(Inner);
  PatchClient Client(Faulty);
  {
    LoopbackTransport Direct(Server);
    PatchClient Seeder(Direct);
    ASSERT_TRUE(Seeder.submitImages(overflowEvidence()));
  }

  Faulty.push(TransportFault::TruncateReply);
  EXPECT_FALSE(Client.fetchPatches());
  EXPECT_TRUE(Client.patches().empty()); // no half-decoded mirror

  // The connection-level fault is transient: the plain retry succeeds.
  ASSERT_TRUE(Client.fetchPatches());
  EXPECT_FALSE(Client.patches().empty());
}

TEST(FaultMatrix, FailConnectDeliversNothing) {
  PatchServer Server;
  LoopbackTransport Inner(Server);
  FaultyTransport Faulty(Inner);
  PatchClient Client(Faulty);
  Faulty.push(TransportFault::FailConnect);
  EXPECT_FALSE(Client.submitSummary(failedRunSummary(), 0));
  EXPECT_EQ(Server.stats().SummariesIngested, 0u);
  EXPECT_EQ(Server.cumulativeRuns(), 0u);
}

//===----------------------------------------------------------------------===//
// Replication: convergence, no-restream, anti-entropy repair
//===----------------------------------------------------------------------===//

namespace {

/// An in-process fleet of three servers in a full replication mesh over
/// rebindable loopbacks, pumped by hand for determinism.
struct Fleet {
  std::unique_ptr<PatchServer> Servers[3];
  std::unique_ptr<ReplicaSet> Replicas[3];
  /// Mesh[From][To] is From's link to To (nullptr on the diagonal);
  /// borrowed from the owning ReplicaSet.
  RebindableLoopback *Mesh[3][3] = {};

  Fleet() {
    for (int I = 0; I < 3; ++I)
      Servers[I] = std::make_unique<PatchServer>();
    for (int From = 0; From < 3; ++From) {
      Replicas[From] = std::make_unique<ReplicaSet>(*Servers[From]);
      for (int To = 0; To < 3; ++To) {
        if (To == From)
          continue;
        auto Link = std::make_unique<RebindableLoopback>();
        Link->Target = Servers[To].get();
        Mesh[From][To] = Link.get();
        Replicas[From]->addPeer("s" + std::to_string(To),
                                std::move(Link));
      }
    }
  }

  /// SIGKILL server \p Victim: its replication links die with it and
  /// every link *to* it goes dark (queues on the survivors retain).
  void kill(int Victim) {
    Replicas[Victim].reset();
    Servers[Victim].reset();
    for (int From = 0; From < 3; ++From)
      if (From != Victim && Mesh[From][Victim])
        Mesh[From][Victim]->Target = nullptr;
  }

  /// Restart \p Victim as a fresh process: empty state, fresh instance,
  /// new replication links into the surviving mesh.
  void restart(int Victim) {
    Servers[Victim] = std::make_unique<PatchServer>();
    Replicas[Victim] = std::make_unique<ReplicaSet>(*Servers[Victim]);
    for (int To = 0; To < 3; ++To) {
      if (To == Victim)
        continue;
      auto Link = std::make_unique<RebindableLoopback>();
      Link->Target = Servers[To].get();
      Mesh[Victim][To] = Link.get();
      Replicas[Victim]->addPeer("s" + std::to_string(To),
                                std::move(Link));
      Mesh[To][Victim]->Target = Servers[Victim].get();
    }
  }

  /// One deterministic pump round: every live stream queue drains, then
  /// every server runs one anti-entropy pass.
  void pump() {
    for (auto &R : Replicas)
      if (R)
        R->drainOnce();
    for (auto &R : Replicas)
      if (R)
        R->antiEntropyOnce();
  }

  std::vector<uint8_t> patchBytes(int I) const {
    return serializePatchSet(Servers[I]->snapshot().Patches);
  }
};

} // namespace

TEST(FleetReplication, StreamedSubmissionConvergesWholeMesh) {
  Fleet F;
  LoopbackTransport Transport(*F.Servers[0]);
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.submitImages(overflowEvidence()));
  ASSERT_TRUE(Client.submitSummary(failedRunSummary(), 0));

  // One drain delivers the journal stream to both peers directly; no
  // anti-entropy needed on the hot path.
  ASSERT_TRUE(F.Replicas[0]->drainOnce());
  EXPECT_EQ(F.patchBytes(1), F.patchBytes(0));
  EXPECT_EQ(F.patchBytes(2), F.patchBytes(0));
  EXPECT_FALSE(F.Servers[0]->snapshot().Patches.empty());

  // Summaries replicated exactly once each, and the receivers did not
  // re-forward them (no-restream: each server saw one copy).
  for (int I = 1; I < 3; ++I) {
    EXPECT_EQ(F.Servers[I]->stats().ReplicatedSummaries, 1u) << I;
    EXPECT_EQ(F.Servers[I]->cumulativeRuns(), 1u) << I;
    EXPECT_EQ(F.Servers[I]->stats().DuplicatesSuppressed, 0u) << I;
  }

  // Converged: further pump rounds change nothing and the patch bytes
  // stay bit-identical.
  const std::vector<uint8_t> Before = F.patchBytes(0);
  F.pump();
  F.pump();
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(F.patchBytes(I), Before) << I;
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(F.Servers[I]->cumulativeRuns(), 1u) << I;
}

TEST(FleetReplication, AntiEntropyDeliversTransitivelyDownAChain) {
  // A chain, not a mesh: A only knows B, B only knows C.  Patch state
  // must reach C transitively — purely via B's anti-entropy full-set
  // push, since streamed records are never re-forwarded (the
  // no-restream rule).
  PatchServer A, B, C;
  ReplicaSet RA(A), RB(B);
  auto LinkAB = std::make_unique<RebindableLoopback>();
  LinkAB->Target = &B;
  RA.addPeer("b", std::move(LinkAB));
  auto LinkBC = std::make_unique<RebindableLoopback>();
  LinkBC->Target = &C;
  RB.addPeer("c", std::move(LinkBC));

  LoopbackTransport Transport(A);
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.submitImages(overflowEvidence()));
  ASSERT_TRUE(Client.submitSummary(failedRunSummary(), 0));

  // Streaming reaches B (A's only peer) and stops there.
  ASSERT_TRUE(RA.drainOnce());
  ASSERT_TRUE(RB.drainOnce());
  EXPECT_FALSE(B.snapshot().Patches.empty());
  EXPECT_TRUE(C.snapshot().Patches.empty());
  EXPECT_EQ(C.stats().ReplicatedSummaries, 0u);

  // B's anti-entropy push carries the merged set one hop further.
  // Summaries do not transit (the documented loss bound): the trial
  // history lives where it was streamed, not beyond.
  EXPECT_EQ(RB.antiEntropyOnce(), 1u);
  EXPECT_EQ(serializePatchSet(C.snapshot().Patches),
            serializePatchSet(A.snapshot().Patches));
  EXPECT_EQ(B.cumulativeRuns(), 1u);
  EXPECT_EQ(C.cumulativeRuns(), 0u);
}

TEST(FleetReplication, RestartedPeerResyncsFromSurvivors) {
  Fleet F;
  LoopbackTransport Transport(*F.Servers[0]);
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.submitImages(overflowEvidence()));
  F.pump();
  ASSERT_EQ(F.patchBytes(1), F.patchBytes(0));

  // Kill server 2 after convergence, submit more evidence, restart it:
  // the fresh instance holds nothing until anti-entropy pushes the full
  // set back into it (its fresh instance id re-arms every pull, and the
  // survivors' push cursors re-arm on their next epoch check).
  F.kill(2);
  ASSERT_TRUE(Client.submitImages(danglingEvidence()));
  F.Replicas[0]->drainOnce(); // server 1 gets it; link to 2 is dark
  F.restart(2);
  EXPECT_TRUE(F.Servers[2]->snapshot().Patches.empty());
  F.pump();
  F.pump();
  EXPECT_EQ(F.patchBytes(2), F.patchBytes(0));
  EXPECT_EQ(F.patchBytes(1), F.patchBytes(0));
  EXPECT_FALSE(F.Servers[2]->snapshot().Patches.empty());
}

TEST(FleetReplication, ChaosKillConvergesBitIdenticalToNoFailureRun) {
  // The no-failure reference: one server fed the whole evidence stream.
  const ImageEvidence Overflow = overflowEvidence();
  const ImageEvidence Dangling = danglingEvidence();
  std::vector<RunSummary> Summaries;
  {
    DiagnosisPipeline Scratch;
    for (const HeapImage &Image : Overflow.Primary)
      Summaries.push_back(Scratch.summarize(Image, /*Failed=*/true));
  }
  std::vector<uint8_t> ReferenceBytes;
  uint64_t ReferenceRuns = 0;
  {
    PatchServer Reference;
    LoopbackTransport Transport(Reference);
    PatchClient Client(Transport);
    ASSERT_TRUE(Client.submitImages(Overflow));
    ASSERT_TRUE(Client.submitImages(Dangling));
    for (const RunSummary &Summary : Summaries)
      ASSERT_TRUE(Client.submitSummary(Summary, 0));
    ReferenceBytes = serializePatchSet(Reference.snapshot().Patches);
    ReferenceRuns = Reference.cumulativeRuns();
  }

  // The chaos run: a three-server fleet, a failover client whose
  // preferred endpoint is the one that gets killed, and a kill +
  // restart in the middle of the stream.
  Fleet F;
  RebindableLoopback ClientLinks[3];
  for (int I = 0; I < 3; ++I)
    ClientLinks[I].Target = F.Servers[I].get();
  FailoverTransport Transport(
      {&ClientLinks[1], &ClientLinks[0], &ClientLinks[2]},
      quickPolicy(/*MaxAttempts=*/6), {"s1", "s0", "s2"});
  PatchClient Client(Transport);

  // Phase 1: overflow evidence lands on server 1, replicates out.
  ASSERT_TRUE(Client.submitImages(Overflow));
  F.pump();

  // Phase 2: SIGKILL the client's preferred server mid-run.  Every
  // remaining submission must still complete within the retry budget —
  // the client walks to a survivor.
  F.kill(1);
  ClientLinks[1].Target = nullptr;
  ASSERT_TRUE(Client.submitImages(Dangling));
  for (const RunSummary &Summary : Summaries)
    ASSERT_TRUE(Client.submitSummary(Summary, 0));
  EXPECT_GT(Transport.stats().Failovers, 0u);
  EXPECT_EQ(Transport.stats().Exhausted, 0u);
  F.pump();

  // Phase 3: the killed server restarts empty and rejoins.
  F.restart(1);
  ClientLinks[1].Target = F.Servers[1].get();
  F.pump();
  F.pump();

  // The fleet — including the restarted server — converges to patch
  // bytes bit-identical to the no-failure single-server run.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(F.patchBytes(I), ReferenceBytes) << "server " << I;
  EXPECT_FALSE(ReferenceBytes.empty());

  // And no summary was double-counted anywhere along the way: the
  // survivors hold exactly the reference trial history.
  EXPECT_EQ(F.Servers[0]->cumulativeRuns() +
                F.Servers[2]->cumulativeRuns(),
            2 * ReferenceRuns);
}

TEST(FleetReplication, MixedSoftwareAndHardwareEvidenceConvergesFleetWide) {
  // PR 9 acceptance: a fleet where one member sees an overflow and
  // another sees physical bit damage must converge to one set carrying
  // both the site pad and the hardware-page report — the hardware table
  // rides the same journal / anti-entropy machinery as the site tables.
  Fleet F;

  LoopbackTransport T0(*F.Servers[0]);
  PatchClient Software(T0);
  ASSERT_TRUE(Software.submitImages(overflowEvidence()));

  FaultPlan Fault;
  Fault.Kind = FaultKind::BitFlip;
  Fault.TriggerAllocation = 150;
  Fault.PatternSeed = 7;
  LoopbackTransport T1(*F.Servers[1]);
  PatchClient Hardware(T1);
  ASSERT_TRUE(Hardware.submitImages(
      {scriptedHardwareEvidenceImages(3, Fault), {}}));

  F.pump();
  F.pump();

  CallContext Context;
  Context.pushFrame(ScriptedBugSites().Culprit);
  const SiteId Culprit = Context.currentSite();
  const std::vector<uint8_t> Reference = F.patchBytes(0);
  for (int I = 0; I < 3; ++I) {
    const PatchSet &Merged = F.Servers[I]->snapshot().Patches;
    EXPECT_GE(Merged.padFor(Culprit), 6u) << I;
    EXPECT_GT(Merged.hardwareReportCount(), 0u) << I;
    EXPECT_EQ(F.patchBytes(I), Reference) << I;
  }

  // Converged for good: further rounds are no-ops.
  F.pump();
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(F.patchBytes(I), Reference) << I;
}
