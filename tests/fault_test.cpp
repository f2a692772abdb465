// Tests for the fault-injection subsystem: spec parsing, injector
// determinism, the go-back-N ReliableLink (drops, corruption, duplicates,
// lost acks, zero-copy delivery, retry exhaustion, QP errors, region
// invalidation, reset/recovery), the verbs reliable RDMA path, CkDirect put
// recovery and error completions, and the run-level invariants (unarmed
// plan = bit-identical run, same seed = byte-identical trace).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckdirect/ckdirect.hpp"
#include "fault/fault.hpp"
#include "fault/reliable.hpp"
#include "harness/machines.hpp"
#include "harness/pingpong.hpp"
#include "ib/verbs.hpp"
#include "net/fabric.hpp"
#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "topo/fat_tree.hpp"

namespace ckd {
namespace {

TEST(FaultSpec, EmptyIsUnarmed) {
  const fault::FaultPlan plan = fault::parseFaultSpec("");
  EXPECT_TRUE(plan.rules.empty());
  EXPECT_FALSE(plan.armed());
  EXPECT_EQ(plan.summary(), "no faults");
}

TEST(FaultSpec, ZeroRateRulesStayUnarmed) {
  const fault::FaultPlan plan = fault::parseFaultSpec("drop:0,corrupt:0");
  EXPECT_EQ(plan.rules.size(), 2u);
  EXPECT_FALSE(plan.armed());
}

TEST(FaultSpec, ParsesRulesAndOptions) {
  const fault::FaultPlan plan = fault::parseFaultSpec(
      "drop:0.01,corrupt:0.005;class=bulk;src=2;dst=3,"
      "delay:0.02;jitter=8,duplicate:0;nth=5");
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].kind, fault::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.01);
  EXPECT_EQ(plan.rules[0].cls, fault::MsgClass::kAny);
  EXPECT_EQ(plan.rules[1].kind, fault::FaultKind::kCorrupt);
  EXPECT_EQ(plan.rules[1].cls, fault::MsgClass::kBulk);
  EXPECT_EQ(plan.rules[1].src, 2);
  EXPECT_EQ(plan.rules[1].dst, 3);
  EXPECT_EQ(plan.rules[2].kind, fault::FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(plan.rules[2].delay_us, 8.0);
  EXPECT_EQ(plan.rules[3].nth, 5u);
  EXPECT_TRUE(plan.armed());
}

TEST(FaultSpec, RelPseudoRuleSetsReliabilityKnobs) {
  const fault::FaultPlan plan = fault::parseFaultSpec(
      "rel:0;timeout=12.5;backoff=3;budget=4;appbudget=2,drop:0.1");
  EXPECT_DOUBLE_EQ(plan.rel.timeout_us, 12.5);
  EXPECT_DOUBLE_EQ(plan.rel.backoff, 3.0);
  EXPECT_EQ(plan.rel.retry_budget, 4);
  EXPECT_EQ(plan.rel.app_retry_budget, 2);
  ASSERT_EQ(plan.rules.size(), 1u);  // rel is not a rule
  EXPECT_TRUE(plan.armed());
}

TEST(FaultSpec, MalformedSpecsAbort) {
  EXPECT_DEATH(fault::parseFaultSpec("bogus:0.1"), "unknown fault kind");
  EXPECT_DEATH(fault::parseFaultSpec("drop"), "kind:probability");
  EXPECT_DEATH(fault::parseFaultSpec("drop:1.5"), "in \\[0,1\\]");
  EXPECT_DEATH(fault::parseFaultSpec("drop:0.1;what=3"), "unknown rule option");
}

TEST(FaultInjector, SameSeedSameDecisions) {
  const fault::FaultPlan plan =
      fault::parseFaultSpec("drop:0.3,delay:0.3;jitter=4,corrupt:0.2");
  sim::TraceRecorder traceA, traceB;
  fault::FaultInjector a(plan, 42, traceA);
  fault::FaultInjector b(plan, 42, traceB);
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.decideWire(0.0, 0, 1, 1000, fault::MsgClass::kBulk);
    const auto fb = b.decideWire(0.0, 0, 1, 1000, fault::MsgClass::kBulk);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_EQ(fa.corrupt, fb.corrupt);
    EXPECT_DOUBLE_EQ(fa.extra_delay_us, fb.extra_delay_us);
  }
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k)
    EXPECT_EQ(a.count(static_cast<fault::FaultKind>(k)),
              b.count(static_cast<fault::FaultKind>(k)));
}

TEST(FaultInjector, NthFiresDeterministically) {
  const fault::FaultPlan plan = fault::parseFaultSpec("drop:0;nth=3");
  sim::TraceRecorder trace;
  fault::FaultInjector inj(plan, 1, trace);
  int drops = 0;
  for (int i = 1; i <= 9; ++i) {
    const auto f = inj.decideWire(0.0, 0, 1, 100, fault::MsgClass::kPacket);
    if (f.drop) ++drops;
    EXPECT_EQ(f.drop, i % 3 == 0) << "message " << i;
  }
  EXPECT_EQ(drops, 3);
  EXPECT_EQ(inj.count(fault::FaultKind::kDrop), 3u);
}

TEST(FaultInjector, FiltersRestrictMatches) {
  const fault::FaultPlan plan =
      fault::parseFaultSpec("drop:0;nth=1;src=0;dst=1;class=bulk");
  sim::TraceRecorder trace;
  fault::FaultInjector inj(plan, 1, trace);
  EXPECT_FALSE(
      inj.decideWire(0.0, 2, 1, 100, fault::MsgClass::kBulk).drop);
  EXPECT_FALSE(
      inj.decideWire(0.0, 0, 2, 100, fault::MsgClass::kBulk).drop);
  EXPECT_FALSE(
      inj.decideWire(0.0, 0, 1, 100, fault::MsgClass::kControl).drop);
  EXPECT_TRUE(inj.decideWire(0.0, 0, 1, 100, fault::MsgClass::kBulk).drop);
}

// ---------------------------------------------------------------------------
// ReliableLink over a faulty fabric.

class ReliableLinkTest : public ::testing::Test {
 protected:
  ReliableLinkTest()
      : topo_(std::make_shared<topo::FatTree>(4, 1)),
        fabric_(engine_, topo_, net::abeParams()) {}

  void arm(const std::string& spec, std::uint64_t seed = 7) {
    const fault::FaultPlan plan = fault::parseFaultSpec(spec);
    fabric_.installFaults(plan, seed);
    link_ = std::make_unique<fault::ReliableLink>(fabric_, plan.rel);
  }

  fault::ReliableLink::Send makeSend(int tag) {
    fault::ReliableLink::Send send;
    send.src = 0;
    send.dst = 1;
    send.wireBytes = 4096;
    send.cls = fault::MsgClass::kBulk;
    send.payload.assign(64, static_cast<std::byte>(tag));
    send.on_deliver = [this, tag](std::vector<std::byte>&& image) {
      deliveredTags_.push_back(tag);
      deliveredImages_.push_back(std::move(image));
    };
    send.on_acked = [this]() { ++acked_; };
    send.on_error = [this](fault::WcStatus status) {
      errors_.push_back(status);
    };
    return send;
  }

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
  std::unique_ptr<fault::ReliableLink> link_;
  std::vector<int> deliveredTags_;
  std::vector<std::vector<std::byte>> deliveredImages_;
  int acked_ = 0;
  std::vector<fault::WcStatus> errors_;
};

TEST_F(ReliableLinkTest, DropsAreRetransmittedInOrderExactlyOnce) {
  arm("drop:0;nth=3;class=bulk");
  for (int i = 0; i < 6; ++i) link_->post(0, makeSend(i));
  engine_.run();
  EXPECT_EQ(deliveredTags_, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(acked_, 6);
  EXPECT_TRUE(errors_.empty());
  EXPECT_GT(link_->retransmits(), 0u);
}

TEST_F(ReliableLinkTest, CorruptionIsCaughtAndPayloadArrivesClean) {
  // nth=3, not 2: with go-back-N's deterministic retransmission pattern an
  // even nth can resonate (the same sequence number always lands on a
  // corrupted transmission slot and the flow never makes progress).
  arm("corrupt:0;nth=3;class=bulk");
  for (int i = 0; i < 4; ++i) link_->post(0, makeSend(i));
  engine_.run();
  ASSERT_EQ(deliveredTags_, (std::vector<int>{0, 1, 2, 3}));
  for (int i = 0; i < 4; ++i) {
    // The corrupted copies were discarded; every delivered image is intact.
    const std::vector<std::byte> want(64, static_cast<std::byte>(i));
    EXPECT_EQ(deliveredImages_[static_cast<std::size_t>(i)], want);
  }
  EXPECT_GT(link_->retransmits(), 0u);
  EXPECT_GT(engine_.trace().count(sim::TraceTag::kFaultCorrupt), 0u);
}

TEST_F(ReliableLinkTest, DuplicatesAreDeliveredExactlyOnce) {
  arm("duplicate:0;nth=1;class=bulk");
  for (int i = 0; i < 5; ++i) link_->post(0, makeSend(i));
  engine_.run();
  EXPECT_EQ(deliveredTags_, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(acked_, 5);
  EXPECT_GT(engine_.trace().count(sim::TraceTag::kRelDupDrop), 0u);
}

TEST_F(ReliableLinkTest, DeliversThePostedImageWithoutCopying) {
  // The link holds one payload image per message: transmissions carry no
  // copy, and the in-sequence arrival hands on_deliver the posted buffer —
  // also when that arrival is a retransmission (the second message's first
  // copy is dropped).
  arm("drop:0;nth=2;class=bulk");
  std::vector<const std::byte*> posted;
  std::vector<const std::byte*> delivered;
  for (int i = 0; i < 2; ++i) {
    fault::ReliableLink::Send send = makeSend(i);
    posted.push_back(send.payload.data());
    send.on_deliver = [&delivered](std::vector<std::byte>&& image) {
      delivered.push_back(image.data());
    };
    link_->post(0, std::move(send));
  }
  engine_.run();
  EXPECT_GT(link_->retransmits(), 0u);
  EXPECT_EQ(delivered, posted);
}

TEST_F(ReliableLinkTest, LostAcksRetransmitDeliveredMessagesDeliveringOnce) {
  // Every second ack is dropped, so the sender times out and retransmits
  // messages the receiver already delivered. Those copies must be discarded
  // as duplicates: each message is delivered once, with its bytes intact,
  // and the re-acks still complete every post.
  arm("drop:0;nth=2;class=control");
  // An even count: the last message's ack is a dropped one, so no later
  // ack covers it and the sender must retransmit.
  constexpr int kPosts = 4;
  for (int i = 0; i < kPosts; ++i) link_->post(0, makeSend(i));
  engine_.run();
  ASSERT_EQ(deliveredTags_, (std::vector<int>{0, 1, 2, 3}));
  for (int i = 0; i < kPosts; ++i) {
    const std::vector<std::byte> want(64, static_cast<std::byte>(i));
    EXPECT_EQ(deliveredImages_[static_cast<std::size_t>(i)], want);
  }
  EXPECT_EQ(acked_, kPosts);
  EXPECT_TRUE(errors_.empty());
  EXPECT_GT(link_->retransmits(), 0u);
  EXPECT_GT(engine_.trace().count(sim::TraceTag::kRelDupDrop), 0u);
}

TEST_F(ReliableLinkTest, RetransmittedWireImagesKeepTheOriginalTraceId) {
  // One logical message, N wire attempts: every retransmission (and every
  // injected duplicate) must carry the trace id minted at post time, never a
  // fresh one — otherwise the causal graph would sprout phantom chains.
  arm("drop:0;nth=3;class=bulk,duplicate:0;nth=7;class=bulk");
  engine_.trace().enable();
  std::vector<std::uint64_t> posted;
  for (int i = 0; i < 6; ++i) {
    fault::ReliableLink::Send send = makeSend(i);
    send.traceId = engine_.trace().mintId();
    posted.push_back(send.traceId);
    link_->post(0, std::move(send));
  }
  engine_.run();
  EXPECT_EQ(deliveredTags_, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_GT(link_->retransmits(), 0u);

  std::map<std::uint64_t, int> submits;
  const std::vector<sim::TraceEvent> events = engine_.trace().snapshot();
  for (const sim::TraceEvent& ev : events) {
    if (ev.id == 0) continue;  // acks/naks ride outside any chain
    const bool known =
        std::find(posted.begin(), posted.end(), ev.id) != posted.end();
    EXPECT_TRUE(known) << "wire event minted a fresh chain id " << ev.id;
    if (ev.tag == sim::TraceTag::kFabricSubmit) ++submits[ev.id];
  }
  // At least one message hit the wire more than once under its original id.
  int multiAttempt = 0;
  for (const auto& [id, n] : submits) multiAttempt += n > 1;
  EXPECT_GT(multiAttempt, 0);

  // The analyzer folds all attempts into one chain per logical message.
  const sim::CausalGraph graph(events);
  for (const std::uint64_t id : posted)
    EXPECT_NE(graph.chain(id), nullptr);
  bool sawRetry = false;
  for (const sim::CausalChain& c : graph.chains())
    sawRetry |= c.attempts > 0;  // counts kRelRetransmit events on the chain
  EXPECT_TRUE(sawRetry);
}

TEST_F(ReliableLinkTest, RetryBudgetExhaustionErrorsAndResetRecovers) {
  // Every bulk transmission is dropped: the entry can never be delivered,
  // so after retry_budget consecutive timeouts it completes with
  // WC_RETRY_EXC and the channel enters the error state.
  arm("drop:1;class=bulk,rel:0;timeout=5;budget=2");
  link_->post(0, makeSend(0));
  engine_.run();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0], fault::WcStatus::kRetryExceeded);
  EXPECT_EQ(acked_, 0);
  EXPECT_TRUE(deliveredTags_.empty());
  EXPECT_TRUE(link_->channelInError(0));

  // Posting to an errored channel flushes immediately, like a QP in ERROR.
  link_->post(0, makeSend(1));
  ASSERT_EQ(errors_.size(), 2u);
  EXPECT_EQ(errors_[1], fault::WcStatus::kQpError);

  link_->resetChannel(0);
  EXPECT_FALSE(link_->channelInError(0));
}

TEST_F(ReliableLinkTest, ResetChannelClearsTheStaleDeliveryEstimate) {
  // Regression: resetChannel() left Flow::lastEta at the dead sequence
  // space's value. The retransmission timer waits out the contention-free
  // ETA of the newest outstanding copy, so when a flow died while a
  // multi-megabyte write was still on the wire (a QP error at post time —
  // virtual now far below that write's ETA), the first packet-scale send on
  // the reset channel inherited the dead write's multi-millisecond timeout:
  // its retransmission stalled for the big write's wire time instead of its
  // own.
  arm("qp_error:0;nth=2,drop:0;nth=2;class=bulk,rel:0;timeout=5;budget=4");
  fault::ReliableLink::Send big = makeSend(0);
  big.wireBytes = 32u << 20;
  link_->post(0, std::move(big));  // on the wire; ETA is milliseconds out
  link_->post(0, makeSend(1));     // 2nd post: QP error, flow fails at t=0
  ASSERT_EQ(errors_.size(), 2u);
  EXPECT_TRUE(link_->channelInError(0));
  link_->resetChannel(0);

  // Packet-scale probe: its first copy is dropped (2nd bulk wire op), so
  // its delivery time is dominated by the retransmission timer — which must
  // be sized from the probe's own ETA, not the dead 32 MB write's.
  sim::Time probeDeliveredAt = -1.0;
  fault::ReliableLink::Send probe = makeSend(2);
  probe.on_deliver = [this, &probeDeliveredAt](std::vector<std::byte>&&) {
    probeDeliveredAt = engine_.now();
  };
  link_->post(0, std::move(probe));
  engine_.run();
  ASSERT_GT(probeDeliveredAt, 0.0);
  // The run's horizon covers the dead big copy's wire arrival, so it bounds
  // the stale ETA from below; the probe must complete far earlier.
  EXPECT_LT(probeDeliveredAt, engine_.now() / 10.0)
      << "post-reset timer still carries the failed big write's ETA";
}

TEST_F(ReliableLinkTest, InjectedQpErrorFlushesAtPost) {
  arm("qp_error:0;nth=1");
  link_->post(0, makeSend(0));
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0], fault::WcStatus::kQpError);
  EXPECT_TRUE(link_->channelInError(0));
}

TEST_F(ReliableLinkTest, RegionInvalidationNaksWithRemoteAccess) {
  arm("region_invalid:0;nth=1");
  link_->post(0, makeSend(0));
  engine_.run();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0], fault::WcStatus::kRemoteAccess);
  EXPECT_TRUE(deliveredTags_.empty());
  EXPECT_TRUE(link_->channelInError(0));
}

TEST_F(ReliableLinkTest, ChannelsAreIndependent) {
  // Channel 0 is rendered useless; channel 1 (different dst) still works.
  arm("drop:1;class=bulk;dst=1,rel:0;timeout=5;budget=2");
  link_->post(0, makeSend(0));
  fault::ReliableLink::Send other = makeSend(1);
  other.dst = 2;
  link_->post(1, std::move(other));
  engine_.run();
  EXPECT_EQ(deliveredTags_, (std::vector<int>{1}));
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_TRUE(link_->channelInError(0));
  EXPECT_FALSE(link_->channelInError(1));
}

// ---------------------------------------------------------------------------
// Verbs reliable RDMA path.

TEST(FaultVerbs, RdmaWritesSurviveDrops) {
  sim::Engine engine;
  auto topo = std::make_shared<topo::FatTree>(4, 1);
  net::Fabric fabric(engine, topo, net::abeParams());
  fabric.installFaults(fault::parseFaultSpec("drop:0;nth=3;class=bulk"), 11);
  ib::IbVerbs verbs(fabric);

  constexpr std::size_t kBytes = 512;
  std::vector<std::vector<std::byte>> src(3), dst(3);
  int remoteDone = 0, localDone = 0;
  for (int i = 0; i < 3; ++i) {
    src[i].assign(kBytes, static_cast<std::byte>(i + 1));
    dst[i].assign(kBytes, std::byte{0});
    ib::IbVerbs::RdmaWrite w;
    w.qp = verbs.connect(0, 1);
    w.local_addr = src[i].data();
    w.local_region = verbs.registerMemory(0, src[i].data(), kBytes);
    w.remote_addr = dst[i].data();
    w.remote_region = verbs.registerMemory(1, dst[i].data(), kBytes);
    w.bytes = kBytes;
    w.on_local_complete = [&localDone] { ++localDone; };
    w.on_remote_delivered = [&remoteDone] { ++remoteDone; };
    verbs.postRdmaWrite(std::move(w));
  }
  engine.run();
  EXPECT_EQ(remoteDone, 3);
  EXPECT_EQ(localDone, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(std::memcmp(dst[i].data(), src[i].data(), kBytes), 0)
        << "write " << i;
  EXPECT_GT(engine.trace().count(sim::TraceTag::kRelRetransmit), 0u);
}

// ---------------------------------------------------------------------------
// CkDirect recovery.

TEST(FaultCkDirect, PutDeliversCorrectBytesUnderDrops) {
  charm::MachineConfig machine = harness::abeMachine(2, 1);
  machine.faults = fault::parseFaultSpec("drop:0.3,corrupt:0.1");
  machine.faultSeed = 5;
  charm::Runtime rts(machine);

  constexpr std::size_t kBytes = 256;
  std::vector<std::byte> sendBuf(kBytes), recvBuf(kBytes, std::byte{0});
  for (std::size_t i = 0; i < kBytes; ++i)
    sendBuf[i] = static_cast<std::byte>(i * 3 + 1);
  bool arrived = false;
  direct::Handle h = direct::createHandle(
      rts, 1, recvBuf.data(), kBytes, 0xDEADBEEFCAFEBABEull, [&]() {
        arrived = true;
        EXPECT_EQ(std::memcmp(recvBuf.data(), sendBuf.data(), kBytes), 0);
      });
  direct::assocLocal(h, 0, sendBuf.data());
  rts.seed([h]() { direct::put(h); });
  rts.run();
  EXPECT_TRUE(arrived);
  EXPECT_GT(rts.engine().trace().count(sim::TraceTag::kFaultDrop) +
                rts.engine().trace().count(sim::TraceTag::kFaultCorrupt),
            0u);
}

void expectPutErrorSurfaces(charm::MachineConfig machine) {
  // All bulk/packet data is dropped: the link exhausts its retry budget,
  // the manager re-puts app_retry_budget times, then the application's
  // error callback gets the completion.
  machine.faults = fault::parseFaultSpec(
      "drop:1;class=bulk,drop:1;class=packet,"
      "rel:0;timeout=5;budget=1;appbudget=2");
  machine.faultSeed = 2;
  charm::Runtime rts(machine);

  std::vector<std::byte> sendBuf(64, std::byte{1}), recvBuf(64, std::byte{0});
  bool arrived = false;
  std::vector<fault::WcStatus> statuses;
  direct::Handle h = direct::createHandle(rts, 1, recvBuf.data(), 64,
                                          0xDEADBEEFCAFEBABEull,
                                          [&]() { arrived = true; });
  direct::assocLocal(h, 0, sendBuf.data());
  direct::setErrorCallback(
      h, [&](fault::WcStatus status) { statuses.push_back(status); });
  rts.seed([h]() { direct::put(h); });
  rts.run();

  EXPECT_FALSE(arrived);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], fault::WcStatus::kRetryExceeded);
  const direct::Manager* mgr = direct::Manager::peek(rts);
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(mgr->putRetries(), 2u);  // == appbudget
}

TEST(FaultCkDirect, PutErrorSurfacesOnIb) {
  expectPutErrorSurfaces(harness::abeMachine(2, 1));
}

TEST(FaultCkDirect, PutErrorSurfacesOnBgp) {
  expectPutErrorSurfaces(harness::surveyorMachine(2, 1));
}

TEST(FaultCkDirectDeath, PermanentFailureWithoutCallbackAborts) {
  charm::MachineConfig machine = harness::abeMachine(2, 1);
  machine.faults = fault::parseFaultSpec(
      "drop:1;class=bulk,rel:0;timeout=5;budget=1;appbudget=1");
  charm::Runtime rts(machine);
  std::vector<std::byte> sendBuf(64, std::byte{1}), recvBuf(64, std::byte{0});
  direct::Handle h = direct::createHandle(rts, 1, recvBuf.data(), 64,
                                          0xDEADBEEFCAFEBABEull, []() {});
  direct::assocLocal(h, 0, sendBuf.data());
  rts.seed([h]() { direct::put(h); });
  EXPECT_DEATH(rts.run(), "no error callback");
}

// ---------------------------------------------------------------------------
// Run-level invariants.

TEST(FaultDeterminism, UnarmedPlanIsBitIdenticalToNoPlan) {
  harness::PingpongConfig cfg;
  cfg.bytes = 10000;
  cfg.iterations = 20;
  cfg.trace = true;
  harness::ProfileReport base, withPlan;
  cfg.profile = &base;
  const charm::MachineConfig plain = harness::abeMachine(2, 1);
  const double rttPlain = harness::ckdirectPingpongRtt(plain, cfg);

  charm::MachineConfig unarmed = plain;
  unarmed.faults = fault::parseFaultSpec("drop:0,corrupt:0");  // never fires
  ASSERT_FALSE(unarmed.faults.armed());
  cfg.profile = &withPlan;
  const double rttUnarmed = harness::ckdirectPingpongRtt(unarmed, cfg);

  EXPECT_EQ(rttPlain, rttUnarmed);  // bit-identical, not just close
  ASSERT_EQ(base.traceEvents.size(), withPlan.traceEvents.size());
  for (std::size_t i = 0; i < base.traceEvents.size(); ++i) {
    EXPECT_EQ(base.traceEvents[i].time, withPlan.traceEvents[i].time);
    EXPECT_EQ(base.traceEvents[i].tag, withPlan.traceEvents[i].tag);
  }
}

TEST(FaultDeterminism, SameSeedGivesByteIdenticalTrace) {
  charm::MachineConfig machine = harness::abeMachine(2, 1);
  machine.faults =
      fault::parseFaultSpec("drop:0.05,corrupt:0.02,duplicate:0.02,delay:0.1");
  machine.faultSeed = 31;

  harness::PingpongConfig cfg;
  cfg.bytes = 10000;
  cfg.iterations = 50;
  cfg.trace = true;

  harness::ProfileReport a, b;
  cfg.profile = &a;
  const double rttA = harness::ckdirectPingpongRtt(machine, cfg);
  cfg.profile = &b;
  const double rttB = harness::ckdirectPingpongRtt(machine, cfg);

  EXPECT_EQ(rttA, rttB);
  EXPECT_GT(a.tagCounts[static_cast<std::size_t>(sim::TraceTag::kFaultDrop)],
            0u);
  // The retained event streams — what --trace-dump serializes — match
  // event for event: same virtual times, PEs, tags, and values.
  ASSERT_EQ(a.traceEvents.size(), b.traceEvents.size());
  for (std::size_t i = 0; i < a.traceEvents.size(); ++i) {
    EXPECT_EQ(a.traceEvents[i].time, b.traceEvents[i].time);
    EXPECT_EQ(a.traceEvents[i].pe, b.traceEvents[i].pe);
    EXPECT_EQ(a.traceEvents[i].tag, b.traceEvents[i].tag);
    EXPECT_EQ(a.traceEvents[i].value, b.traceEvents[i].value);
  }
  for (std::size_t i = 0; i < sim::kTraceTagCount; ++i)
    EXPECT_EQ(a.tagCounts[i], b.tagCounts[i]);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  charm::MachineConfig machine = harness::abeMachine(2, 1);
  machine.faults = fault::parseFaultSpec("drop:0.1,delay:0.2;jitter=6");

  harness::PingpongConfig cfg;
  cfg.bytes = 10000;
  cfg.iterations = 50;

  machine.faultSeed = 1;
  const double rttA = harness::ckdirectPingpongRtt(machine, cfg);
  machine.faultSeed = 2;
  const double rttB = harness::ckdirectPingpongRtt(machine, cfg);
  EXPECT_NE(rttA, rttB);
}

}  // namespace
}  // namespace ckd
