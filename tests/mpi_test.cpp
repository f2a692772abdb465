// Tests for the mini-MPI layer: matching semantics (tags, wildcards, FIFO,
// unexpected messages), eager vs rendezvous, and PSCW one-sided windows.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "fault/fault.hpp"
#include "mpi/mini_mpi.hpp"
#include "net/cost_params.hpp"
#include "sim/engine.hpp"
#include "topo/fat_tree.hpp"

namespace ckd::mpi {
namespace {

class MpiTest : public ::testing::Test {
 protected:
  MpiTest()
      : topo_(std::make_shared<topo::FatTree>(4, 1)),
        fabric_(engine_, topo_, net::abeParams()),
        mpi_(fabric_, mvapichCosts()) {}

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
  MiniMpi mpi_;
};

TEST_F(MpiTest, BasicSendRecv) {
  std::vector<double> send{1.0, 2.0, 3.0};
  std::vector<double> recv(3, 0.0);
  MiniMpi::RecvResult result;
  mpi_.irecv(1, 0, 7, recv.data(), recv.size() * 8,
             [&](const MiniMpi::RecvResult& r) { result = r; });
  mpi_.isend(0, 1, 7, send.data(), send.size() * 8);
  engine_.run();
  EXPECT_EQ(result.source, 0);
  EXPECT_EQ(result.tag, 7);
  EXPECT_EQ(result.bytes, 24u);
  EXPECT_EQ(recv, send);
}

TEST_F(MpiTest, UnexpectedMessageMatchedLater) {
  std::vector<int> payload{42};
  mpi_.isend(0, 1, 3, payload.data(), sizeof(int));
  engine_.run();
  EXPECT_EQ(mpi_.unexpectedCount(1), 1u);
  int got = 0;
  bool done = false;
  mpi_.irecv(1, 0, 3, &got, sizeof(int),
             [&](const MiniMpi::RecvResult&) { done = true; });
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(mpi_.unexpectedCount(1), 0u);
}

TEST_F(MpiTest, TagsMustMatch) {
  int a = 0, b = 0;
  bool gotA = false, gotB = false;
  mpi_.irecv(1, 0, 5, &a, sizeof(int),
             [&](const MiniMpi::RecvResult&) { gotA = true; });
  mpi_.irecv(1, 0, 6, &b, sizeof(int),
             [&](const MiniMpi::RecvResult&) { gotB = true; });
  const int v6 = 66;
  mpi_.isend(0, 1, 6, &v6, sizeof(int));
  engine_.run();
  EXPECT_FALSE(gotA);
  EXPECT_TRUE(gotB);
  EXPECT_EQ(b, 66);
}

TEST_F(MpiTest, WildcardsMatchAnything) {
  int got = 0;
  MiniMpi::RecvResult result;
  mpi_.irecv(2, MiniMpi::kAnySource, MiniMpi::kAnyTag, &got, sizeof(int),
             [&](const MiniMpi::RecvResult& r) { result = r; });
  const int v = 9;
  mpi_.isend(3, 2, 17, &v, sizeof(int));
  engine_.run();
  EXPECT_EQ(got, 9);
  EXPECT_EQ(result.source, 3);
  EXPECT_EQ(result.tag, 17);
}

TEST_F(MpiTest, FifoMatchingOrder) {
  // Two sends with the same tag: the first posted recv gets the first sent.
  int first = 0, second = 0;
  const int v1 = 1, v2 = 2;
  mpi_.irecv(1, 0, 0, &first, sizeof(int), {});
  mpi_.irecv(1, 0, 0, &second, sizeof(int), {});
  mpi_.isend(0, 1, 0, &v1, sizeof(int));
  mpi_.isend(0, 1, 0, &v2, sizeof(int));
  engine_.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST_F(MpiTest, RendezvousLargeMessage) {
  // 64 KB > MVAPICH's 16 KB threshold: rendezvous path.
  std::vector<std::byte> send(64 * 1024, std::byte{7});
  std::vector<std::byte> recv(64 * 1024, std::byte{0});
  bool done = false;
  mpi_.irecv(1, 0, 1, recv.data(), recv.size(),
             [&](const MiniMpi::RecvResult& r) {
               done = true;
               EXPECT_EQ(r.bytes, send.size());
             });
  mpi_.isend(0, 1, 1, send.data(), send.size());
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(recv, send);
}

TEST_F(MpiTest, RendezvousBeforeRecvPosted) {
  std::vector<std::byte> send(64 * 1024, std::byte{9});
  mpi_.isend(0, 1, 2, send.data(), send.size());
  engine_.run();  // RTS parked, no data moved yet
  std::vector<std::byte> recv(64 * 1024, std::byte{0});
  bool done = false;
  mpi_.irecv(1, 0, 2, recv.data(), recv.size(),
             [&](const MiniMpi::RecvResult&) { done = true; });
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(recv, send);
}

TEST_F(MpiTest, SendCompletionFires) {
  std::vector<std::byte> send(128, std::byte{1});
  std::vector<std::byte> recv(128);
  bool sent = false;
  mpi_.irecv(1, 0, 0, recv.data(), recv.size(), {});
  mpi_.isend(0, 1, 0, send.data(), send.size(), [&] { sent = true; });
  engine_.run();
  EXPECT_TRUE(sent);
}

// --- one-sided -----------------------------------------------------------------

TEST_F(MpiTest, PutPscwFullEpoch) {
  std::vector<double> winBuf(16, 0.0);
  std::vector<double> src(4, 3.5);
  const auto win = mpi_.createWindow(1, winBuf.data(), winBuf.size() * 8);
  bool waited = false, started = false;
  engine_.at(0.0, [&] {
    mpi_.winPost(win, {0});
    mpi_.winWait(win, [&] { waited = true; });
    mpi_.winStart(win, 0, [&] {
      started = true;
      mpi_.put(win, 0, 8 * 4, src.data(), src.size() * 8);  // offset 4 dbls
      mpi_.winComplete(win, 0);
    });
  });
  engine_.run();
  EXPECT_TRUE(started);
  EXPECT_TRUE(waited);
  EXPECT_DOUBLE_EQ(winBuf[3], 0.0);
  EXPECT_DOUBLE_EQ(winBuf[4], 3.5);
  EXPECT_DOUBLE_EQ(winBuf[7], 3.5);
  EXPECT_DOUBLE_EQ(winBuf[8], 0.0);
}

TEST_F(MpiTest, WaitBlocksUntilAllPutsLand) {
  std::vector<std::byte> winBuf(256 * 1024, std::byte{0});
  std::vector<std::byte> big(128 * 1024, std::byte{4});  // rendezvous-sized
  const auto win = mpi_.createWindow(1, winBuf.data(), winBuf.size());
  double waitedAt = -1;
  engine_.at(0.0, [&] {
    mpi_.winPost(win, {0});
    mpi_.winWait(win, [&] {
      waitedAt = engine_.now();
      // Every byte must already be in place when wait completes.
      EXPECT_EQ(winBuf[128 * 1024 - 1], std::byte{4});
    });
    mpi_.winStart(win, 0, [&] {
      mpi_.put(win, 0, 0, big.data(), big.size());
      mpi_.winComplete(win, 0);
    });
  });
  engine_.run();
  EXPECT_GT(waitedAt, 0.0);
}

TEST_F(MpiTest, PutOutsideEpochAborts) {
  std::vector<double> winBuf(8, 0.0);
  const auto win = mpi_.createWindow(1, winBuf.data(), 64);
  double v = 1.0;
  EXPECT_DEATH(mpi_.put(win, 0, 0, &v, 8), "PSCW");
}

TEST_F(MpiTest, PutPastWindowEndAborts) {
  std::vector<double> winBuf(8, 0.0);
  const auto win = mpi_.createWindow(1, winBuf.data(), 64);
  std::vector<double> src(8, 0.0);
  engine_.at(0.0, [&] {
    mpi_.winPost(win, {0});
    mpi_.winStart(win, 0, [&] {
      EXPECT_DEATH(mpi_.put(win, 0, 8, src.data(), 64), "past the end");
    });
  });
  engine_.run();
}

TEST_F(MpiTest, MultipleOriginsOneExposure) {
  std::vector<double> winBuf(2, 0.0);
  const auto win = mpi_.createWindow(0, winBuf.data(), 16);
  bool waited = false;
  double v1 = 1.0, v2 = 2.0;
  engine_.at(0.0, [&] {
    mpi_.winPost(win, {1, 2});
    mpi_.winWait(win, [&] { waited = true; });
    mpi_.winStart(win, 1, [&] {
      mpi_.put(win, 1, 0, &v1, 8);
      mpi_.winComplete(win, 1);
    });
    mpi_.winStart(win, 2, [&] {
      mpi_.put(win, 2, 8, &v2, 8);
      mpi_.winComplete(win, 2);
    });
  });
  engine_.run();
  EXPECT_TRUE(waited);
  EXPECT_DOUBLE_EQ(winBuf[0], 1.0);
  EXPECT_DOUBLE_EQ(winBuf[1], 2.0);
}

TEST_F(MpiTest, WinCompleteWithoutStartAborts) {
  std::vector<double> winBuf(8, 0.0);
  const auto win = mpi_.createWindow(1, winBuf.data(), 64);
  EXPECT_DEATH(mpi_.winComplete(win, 0), "without a started epoch");
}

// --- RDMA channel (the Liu et al. persistent-association design) ---------------

TEST_F(MpiTest, RdmaEagerSmallMessage) {
  mpi_.enableRdmaChannel();
  std::vector<int> send{7, 8, 9};
  std::vector<int> recv(3, 0);
  bool done = false;
  mpi_.irecv(1, 0, 4, recv.data(), recv.size() * sizeof(int),
             [&](const MiniMpi::RecvResult& r) {
               done = true;
               EXPECT_EQ(r.bytes, 12u);
             });
  mpi_.isend(0, 1, 4, send.data(), send.size() * sizeof(int));
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(recv, send);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kMpiRdmaEager), 1u);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kMpiRdmaRndv), 0u);
  // One slot consumed; the freed slot is owed but under the return
  // threshold, so no explicit credit message flew.
  EXPECT_EQ(mpi_.sendCredits(0, 1), mvapichCosts().rdma_credits - 1);
  EXPECT_EQ(mpi_.creditReturnMessages(), 0u);
}

TEST_F(MpiTest, RdmaCrossoverAtSlotSize) {
  mpi_.enableRdmaChannel();
  const std::size_t slot = mvapichCosts().rdma_slot_bytes;
  std::vector<std::byte> sEager(slot, std::byte{3}), rEager(slot);
  std::vector<std::byte> sRndv(2 * slot, std::byte{5}), rRndv(2 * slot);
  int done = 0;
  mpi_.irecv(1, 0, 0, rEager.data(), rEager.size(),
             [&](const MiniMpi::RecvResult&) { ++done; });
  mpi_.irecv(1, 0, 1, rRndv.data(), rRndv.size(),
             [&](const MiniMpi::RecvResult&) { ++done; });
  mpi_.isend(0, 1, 0, sEager.data(), sEager.size());  // == slot: eager
  mpi_.isend(0, 1, 1, sRndv.data(), sRndv.size());    // > slot: rendezvous
  engine_.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(rEager, sEager);
  EXPECT_EQ(rRndv, sRndv);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kMpiRdmaEager), 1u);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kMpiRdmaRndv), 1u);
}

TEST_F(MpiTest, CreditExhaustionStallsThenDrains) {
  mpi_.enableRdmaChannel();
  const int credits = mvapichCosts().rdma_credits;
  const int total = credits + 4;
  std::vector<int> send(static_cast<std::size_t>(total));
  std::vector<int> recv(static_cast<std::size_t>(total), -1);
  for (int i = 0; i < total; ++i) send[static_cast<std::size_t>(i)] = 100 + i;
  for (int i = 0; i < total; ++i)
    mpi_.isend(0, 1, 9, &send[static_cast<std::size_t>(i)], sizeof(int));
  engine_.run();  // no recvs posted: the ring fills, the tail stalls
  EXPECT_EQ(mpi_.creditStalls(), 4u);
  EXPECT_EQ(mpi_.sendCredits(0, 1), 0);
  EXPECT_EQ(mpi_.unexpectedCount(1), static_cast<std::size_t>(credits));
  int got = 0;
  for (int i = 0; i < total; ++i)
    mpi_.irecv(1, 0, 9, &recv[static_cast<std::size_t>(i)], sizeof(int),
               [&](const MiniMpi::RecvResult&) { ++got; });
  engine_.run();  // copy-out frees slots -> credits return -> stalled drain
  EXPECT_EQ(got, total);
  EXPECT_EQ(recv, send);  // FIFO order survives the stall
  EXPECT_GE(mpi_.creditReturnMessages(), 1u);
  EXPECT_EQ(mpi_.unexpectedCount(1), 0u);
}

TEST_F(MpiTest, BidirectionalTrafficPiggybacksCredits) {
  mpi_.enableRdmaChannel();
  constexpr int kRounds = 4;
  int a = 1, b = 0;
  int pongs = 0;
  std::function<void(int)> round = [&](int r) {
    mpi_.irecv(1, 0, r, &b, sizeof(int), [&, r](const MiniMpi::RecvResult&) {
      mpi_.irecv(0, 1, r, &a, sizeof(int),
                 [&, r](const MiniMpi::RecvResult&) {
                   ++pongs;
                   if (r + 1 < kRounds) round(r + 1);
                 });
      mpi_.isend(1, 0, r, &b, sizeof(int));
    });
    mpi_.isend(0, 1, r, &a, sizeof(int));
  };
  round(0);
  engine_.run();
  EXPECT_EQ(pongs, kRounds);
  // Replies carried the freed-slot credits in their headers: no explicit
  // credit traffic on a balanced ping-pong.
  EXPECT_GT(mpi_.piggybackedCredits(), 0u);
  EXPECT_EQ(mpi_.creditReturnMessages(), 0u);
}

TEST(MpiRdmaChannel, RdmaEagerBeatsClassicEagerLatency) {
  const auto oneWay = [](bool rdma) {
    sim::Engine engine;
    auto topo = std::make_shared<topo::FatTree>(4, 1);
    net::Fabric fabric(engine, topo, net::abeParams());
    MiniMpi mp(fabric, mvapichCosts());
    if (rdma) mp.enableRdmaChannel();
    std::vector<std::byte> send(4096, std::byte{1}), recv(4096);
    double at = -1.0;
    mp.irecv(1, 0, 0, recv.data(), recv.size(),
             [&](const MiniMpi::RecvResult&) { at = engine.now(); });
    mp.isend(0, 1, 0, send.data(), send.size());
    engine.run();
    EXPECT_EQ(recv, send);
    return at;
  };
  const double classic = oneWay(false);
  const double viaRdma = oneWay(true);
  ASSERT_GT(classic, 0.0);
  ASSERT_GT(viaRdma, 0.0);
  // The persistent-slot design dodges the bounce-buffer copy bump the
  // classic eager path pays around 4 KB.
  EXPECT_LT(viaRdma, classic);
}

// --- RDMA channel under wire faults (reliable-link regressions) ----------------
//
// Without armReliability() an armed injector breaks the channel outright: a
// dropped slot write loses its persistent slot (and piggybacked credits)
// forever, a dropped credit return deadlocks stalled senders, and corrupted
// payloads land as-is. These tests pin the reliable-link fix: exact bytes,
// no wedges, and credit conservation after the storm.

class MpiFaultTest : public ::testing::Test {
 protected:
  MpiFaultTest()
      : topo_(std::make_shared<topo::FatTree>(4, 1)),
        fabric_(engine_, topo_, net::abeParams()),
        mpi_(fabric_, mvapichCosts()) {
    storm_ = fault::parseFaultSpec(
        "drop:0.08,corrupt:0.04,duplicate:0.04,delay:0.1;jitter=3");
    fabric_.installFaults(storm_, /*seed=*/7);
    mpi_.enableRdmaChannel();
    mpi_.armReliability(storm_.rel);
  }

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
  MiniMpi mpi_;
  fault::FaultPlan storm_;
};

TEST_F(MpiFaultTest, EagerPingpongSurvivesStormByteExact) {
  constexpr int kRounds = 40;
  std::vector<std::byte> ping(1024), pong(1024), out(1024);
  int got = 0;
  std::function<void(int)> round = [&](int r) {
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j] = static_cast<std::byte>((r * 131 + static_cast<int>(j)) & 0xff);
    mpi_.irecv(1, 0, r, ping.data(), ping.size(),
               [&, r](const MiniMpi::RecvResult&) {
                 EXPECT_EQ(ping, out);
                 mpi_.isend(1, 0, r, ping.data(), ping.size());
               });
    mpi_.irecv(0, 1, r, pong.data(), pong.size(),
               [&, r](const MiniMpi::RecvResult&) {
                 EXPECT_EQ(pong, out);
                 if (++got < kRounds) round(r + 1);
               });
    mpi_.isend(0, 1, r, out.data(), out.size());
  };
  round(0);
  engine_.run();
  EXPECT_EQ(got, kRounds);           // no wedge: every round completed
  EXPECT_GT(mpi_.linkRetransmits(), 0u);
  // Quiesced and fully matched: every persistent slot is accounted for.
  const int ring = mvapichCosts().rdma_credits;
  EXPECT_EQ(mpi_.sendCredits(0, 1) + mpi_.owedCredits(0, 1), ring);
  EXPECT_EQ(mpi_.sendCredits(1, 0) + mpi_.owedCredits(1, 0), ring);
}

TEST_F(MpiFaultTest, CreditBurstUnderFaultsConservesSlots) {
  // Overrun the ring with no receives posted: stalled tail, then explicit
  // credit returns while drops/corruption fire. A lost slot write or a
  // dropped credit message would wedge the drain or leak a slot.
  const int ring = mvapichCosts().rdma_credits;
  const int total = ring + 6;
  std::vector<int> send(static_cast<std::size_t>(total));
  std::vector<int> recv(static_cast<std::size_t>(total), -1);
  for (int i = 0; i < total; ++i) send[static_cast<std::size_t>(i)] = 500 + i;
  for (int i = 0; i < total; ++i)
    mpi_.isend(0, 1, 3, &send[static_cast<std::size_t>(i)], sizeof(int));
  engine_.run();
  EXPECT_GT(mpi_.creditStalls(), 0u);
  int got = 0;
  for (int i = 0; i < total; ++i)
    mpi_.irecv(1, 0, 3, &recv[static_cast<std::size_t>(i)], sizeof(int),
               [&](const MiniMpi::RecvResult&) { ++got; });
  engine_.run();
  EXPECT_EQ(got, total);
  EXPECT_EQ(recv, send);  // FIFO survives retransmission reordering pressure
  EXPECT_EQ(mpi_.sendCredits(0, 1) + mpi_.owedCredits(0, 1), ring);
}

TEST_F(MpiFaultTest, RendezvousUnderFaultsDeliversIntact) {
  // RTS/grant are control messages and the payload is a multi-slot bulk
  // write — all on the reliable link; corruption must never reach the
  // user buffer.
  const std::size_t n = 3 * mvapichCosts().rdma_slot_bytes;
  std::vector<std::byte> send(n), recv(n, std::byte{0});
  for (std::size_t j = 0; j < n; ++j)
    send[j] = static_cast<std::byte>((j * 7 + 1) & 0xff);
  bool done = false;
  mpi_.irecv(1, 0, 2, recv.data(), recv.size(),
             [&](const MiniMpi::RecvResult& r) {
               done = true;
               EXPECT_EQ(r.bytes, n);
             });
  mpi_.isend(0, 1, 2, send.data(), send.size());
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(recv, send);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kMpiRdmaRndv), 1u);
}

TEST(MpiReliability, ArmedLinkIsNoopWithoutFaults) {
  // Arming the link on a clean fabric must not change delivered bytes or
  // trigger retransmissions (timers only fire for unacked frames).
  sim::Engine engine;
  auto topo = std::make_shared<topo::FatTree>(4, 1);
  net::Fabric fabric(engine, topo, net::abeParams());
  MiniMpi mp(fabric, mvapichCosts());
  mp.enableRdmaChannel();
  mp.armReliability(fault::ReliabilityParams{});
  std::vector<int> send{1, 2, 3}, recv(3, 0);
  bool done = false;
  mp.irecv(1, 0, 0, recv.data(), recv.size() * sizeof(int),
           [&](const MiniMpi::RecvResult&) { done = true; });
  mp.isend(0, 1, 0, send.data(), send.size() * sizeof(int));
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(recv, send);
  EXPECT_EQ(mp.linkRetransmits(), 0u);
}

TEST(MpiReliability, ArmingTwiceAborts) {
  sim::Engine engine;
  auto topo = std::make_shared<topo::FatTree>(4, 1);
  net::Fabric fabric(engine, topo, net::abeParams());
  MiniMpi mp(fabric, mvapichCosts());
  mp.armReliability(fault::ReliabilityParams{});
  EXPECT_DEATH(mp.armReliability(fault::ReliabilityParams{}), "armed twice");
}

TEST(MpiCosts, FlavorPresets) {
  const auto vmi = mpichVmiCosts();
  const auto mvapich = mvapichCosts();
  const auto ibm = ibmBgpCosts();
  EXPECT_GT(vmi.eager_threshold_bytes, mvapich.eager_threshold_bytes);
  EXPECT_TRUE(ibm.eagerFor(500000));  // no rendezvous on BG/P
  EXPECT_FALSE(mvapich.eagerFor(500000));
  EXPECT_TRUE(mvapich.inBump(4096));
  EXPECT_FALSE(mvapich.inBump(16 * 1024));
  EXPECT_TRUE(mvapich.putEagerFor(20 * 1024));
  EXPECT_FALSE(mvapich.eagerFor(20 * 1024));
}

}  // namespace
}  // namespace ckd::mpi
