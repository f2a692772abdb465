// Tests for the verbs-like InfiniBand layer: registration checks, RDMA
// write payload movement, in-order delivery, send/recv with RNR parking,
// and the deliberate out-of-order ablation mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "ib/verbs.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "topo/fat_tree.hpp"

namespace ckd {
namespace {

class IbTest : public ::testing::Test {
 protected:
  IbTest()
      : topo_(std::make_shared<topo::FatTree>(4, 1)),
        fabric_(engine_, topo_, net::abeParams()),
        verbs_(fabric_) {}

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
  ib::IbVerbs verbs_;
};

TEST_F(IbTest, RegistrationAndCoverage) {
  std::vector<std::byte> buf(256);
  const auto region = verbs_.registerMemory(0, buf.data(), buf.size());
  EXPECT_TRUE(verbs_.regionValid(region));
  EXPECT_TRUE(verbs_.regionCovers(region, buf.data(), 256));
  EXPECT_TRUE(verbs_.regionCovers(region, buf.data() + 100, 156));
  EXPECT_FALSE(verbs_.regionCovers(region, buf.data() + 100, 157));
  EXPECT_EQ(verbs_.regionCount(0), 1u);
  verbs_.deregisterMemory(region);
  EXPECT_FALSE(verbs_.regionValid(region));
  EXPECT_EQ(verbs_.regionCount(0), 0u);
}

TEST_F(IbTest, DefaultRegionIdIsInvalid) {
  EXPECT_FALSE(verbs_.regionValid(ib::RegionId{}));
}

TEST_F(IbTest, DeregisteredSlotsAreReused) {
  std::vector<std::byte> a(64), b(64), c(64);
  const auto ra = verbs_.registerMemory(0, a.data(), a.size());
  const auto rb = verbs_.registerMemory(0, b.data(), b.size());
  EXPECT_EQ(verbs_.regionCount(0), 2u);

  verbs_.deregisterMemory(ra);
  EXPECT_EQ(verbs_.regionCount(0), 1u);
  // The freed slot is recycled for the next registration...
  const auto rc = verbs_.registerMemory(0, c.data(), c.size());
  EXPECT_EQ(verbs_.regionCount(0), 2u);
  EXPECT_TRUE(verbs_.regionValid(rc));
  EXPECT_TRUE(verbs_.regionCovers(rc, c.data(), c.size()));
  // ...but the stale id, whose generation predates the reuse, stays dead:
  // it must not alias the new region occupying the same slot.
  EXPECT_FALSE(verbs_.regionValid(ra));
  EXPECT_FALSE(verbs_.regionCovers(ra, c.data(), c.size()));
  EXPECT_TRUE(verbs_.regionValid(rb));
}

TEST_F(IbTest, ManyRegisterDeregisterCyclesKeepCountsExact) {
  std::vector<std::byte> buf(128);
  for (int i = 0; i < 100; ++i) {
    const auto r = verbs_.registerMemory(2, buf.data(), buf.size());
    EXPECT_TRUE(verbs_.regionValid(r));
    EXPECT_EQ(verbs_.regionCount(2), 1u);
    verbs_.deregisterMemory(r);
    EXPECT_FALSE(verbs_.regionValid(r));
    EXPECT_EQ(verbs_.regionCount(2), 0u);
  }
}

TEST_F(IbTest, DoubleDeregisterDies) {
  std::vector<std::byte> buf(64);
  const auto r = verbs_.registerMemory(0, buf.data(), buf.size());
  verbs_.deregisterMemory(r);
  EXPECT_DEATH(verbs_.deregisterMemory(r), "already-freed");
}

TEST_F(IbTest, QpCaching) {
  const auto qp1 = verbs_.connect(0, 1);
  const auto qp2 = verbs_.connect(0, 1);
  const auto qp3 = verbs_.connect(1, 0);  // directional: different QP
  EXPECT_EQ(qp1, qp2);
  EXPECT_NE(qp1, qp3);
  EXPECT_EQ(verbs_.qpSource(qp1), 0);
  EXPECT_EQ(verbs_.qpDestination(qp1), 1);
}

TEST_F(IbTest, RdmaWriteMovesRealBytes) {
  std::vector<std::byte> src(512), dst(512, std::byte{0});
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i * 7);
  const auto srcRegion = verbs_.registerMemory(0, src.data(), src.size());
  const auto dstRegion = verbs_.registerMemory(1, dst.data(), dst.size());

  bool localDone = false, remoteDone = false;
  ib::IbVerbs::RdmaWrite w;
  w.qp = verbs_.connect(0, 1);
  w.local_addr = src.data();
  w.local_region = srcRegion;
  w.remote_addr = dst.data();
  w.remote_region = dstRegion;
  w.bytes = src.size();
  w.on_local_complete = [&] { localDone = true; };
  w.on_remote_delivered = [&] {
    remoteDone = true;
    EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  };
  verbs_.postRdmaWrite(std::move(w));
  // Nothing moved before the simulated delivery time.
  EXPECT_EQ(dst[0], std::byte{0});
  engine_.run();
  EXPECT_TRUE(localDone);
  EXPECT_TRUE(remoteDone);
  EXPECT_EQ(verbs_.rdmaWritesPosted(), 1u);
}

TEST_F(IbTest, StagedWriteKeepsPostTimeBytesUnderPortContention) {
  // A write that does not pin its source may reuse it from the local
  // completion on (the PGAS/DART rule). With two bulk writes sharing node
  // 0's injection port, the local completion fires at the contention-free
  // bound, before the data lands; the staged image taken at post time, not
  // the overwritten source, must be what arrives.
  constexpr std::size_t kBytes = 64 * 1024;
  std::vector<std::byte> srcA(kBytes, std::byte{1}), srcB(kBytes, std::byte{2});
  std::vector<std::byte> dstA(kBytes), dstB(kBytes);
  auto post = [&](std::vector<std::byte>& src, std::vector<std::byte>& dst,
                  int dstPe, std::function<void()> onLocal,
                  std::function<void()> onRemote) {
    ib::IbVerbs::RdmaWrite w;
    w.qp = verbs_.connect(0, dstPe);
    w.local_addr = src.data();
    w.local_region = verbs_.registerMemory(0, src.data(), src.size());
    w.remote_addr = dst.data();
    w.remote_region = verbs_.registerMemory(dstPe, dst.data(), dst.size());
    w.bytes = kBytes;
    w.on_local_complete = std::move(onLocal);
    w.on_remote_delivered = std::move(onRemote);
    verbs_.postRdmaWrite(std::move(w));
  };
  bool aLanded = false, overwroteBeforeLanding = false;
  post(
      srcA, dstA, 1,
      [&] {
        overwroteBeforeLanding = !aLanded;
        std::fill(srcA.begin(), srcA.end(), std::byte{0xEE});
      },
      [&] { aLanded = true; });
  post(srcB, dstB, 2, {}, {});
  engine_.run();
  EXPECT_TRUE(aLanded);
  EXPECT_TRUE(overwroteBeforeLanding);
  EXPECT_EQ(std::count(dstA.begin(), dstA.end(), std::byte{1}),
            static_cast<std::ptrdiff_t>(kBytes));
  EXPECT_EQ(std::count(dstB.begin(), dstB.end(), std::byte{2}),
            static_cast<std::ptrdiff_t>(kBytes));
}

TEST_F(IbTest, SenderMayOverwriteAfterPost) {
  // The model captures the payload at post time (local buffer reusable),
  // matching a completed send queue entry semantics.
  std::vector<std::byte> src(64, std::byte{5}), dst(64, std::byte{0});
  const auto srcRegion = verbs_.registerMemory(0, src.data(), src.size());
  const auto dstRegion = verbs_.registerMemory(1, dst.data(), dst.size());
  ib::IbVerbs::RdmaWrite w;
  w.qp = verbs_.connect(0, 1);
  w.local_addr = src.data();
  w.local_region = srcRegion;
  w.remote_addr = dst.data();
  w.remote_region = dstRegion;
  w.bytes = 64;
  verbs_.postRdmaWrite(std::move(w));
  std::fill(src.begin(), src.end(), std::byte{9});
  engine_.run();
  EXPECT_EQ(dst[0], std::byte{5});
}

TEST_F(IbTest, RdmaWriteValidatesRegions) {
  std::vector<std::byte> src(64), dst(64);
  const auto srcRegion = verbs_.registerMemory(0, src.data(), src.size());
  const auto dstRegion = verbs_.registerMemory(1, dst.data(), dst.size());
  ib::IbVerbs::RdmaWrite w;
  w.qp = verbs_.connect(0, 1);
  w.local_addr = src.data();
  w.local_region = srcRegion;
  w.remote_addr = dst.data();
  w.remote_region = dstRegion;
  w.bytes = 128;  // larger than either region
  EXPECT_DEATH(verbs_.postRdmaWrite(std::move(w)), "region");
}

TEST_F(IbTest, RdmaWriteRejectsWrongDestinationPe) {
  std::vector<std::byte> src(64), dst(64);
  const auto srcRegion = verbs_.registerMemory(0, src.data(), src.size());
  // Region belongs to PE 2, but the QP targets PE 1.
  const auto dstRegion = verbs_.registerMemory(2, dst.data(), dst.size());
  ib::IbVerbs::RdmaWrite w;
  w.qp = verbs_.connect(0, 1);
  w.local_addr = src.data();
  w.local_region = srcRegion;
  w.remote_addr = dst.data();
  w.remote_region = dstRegion;
  w.bytes = 64;
  EXPECT_DEATH(verbs_.postRdmaWrite(std::move(w)), "destination");
}

TEST_F(IbTest, InOrderDeliveryPerQp) {
  // Back-to-back writes to adjacent slots land in post order.
  std::vector<std::byte> src1(64, std::byte{1}), src2(64, std::byte{2});
  std::vector<std::byte> dst(128, std::byte{0});
  const auto r1 = verbs_.registerMemory(0, src1.data(), 64);
  const auto r2 = verbs_.registerMemory(0, src2.data(), 64);
  const auto rd = verbs_.registerMemory(1, dst.data(), 128);
  std::vector<int> arrivals;
  auto makeWrite = [&](const std::vector<std::byte>& src, ib::RegionId reg,
                       std::size_t off, int tag) {
    ib::IbVerbs::RdmaWrite w;
    w.qp = verbs_.connect(0, 1);
    w.local_addr = src.data();
    w.local_region = reg;
    w.remote_addr = dst.data() + off;
    w.remote_region = rd;
    w.bytes = 64;
    w.on_remote_delivered = [&arrivals, tag] { arrivals.push_back(tag); };
    verbs_.postRdmaWrite(std::move(w));
  };
  makeWrite(src1, r1, 0, 1);
  makeWrite(src2, r2, 64, 2);
  engine_.run();
  EXPECT_EQ(arrivals, (std::vector<int>{1, 2}));
}

TEST_F(IbTest, SendRecvMatchesPostedBuffer) {
  const auto qp = verbs_.connect(0, 1);
  std::vector<std::byte> payload(100, std::byte{42});
  std::vector<std::byte> recvBuf(128, std::byte{0});
  std::size_t received = 0;
  verbs_.postRecv(qp, recvBuf.data(), recvBuf.size(),
                  [&](std::size_t n) { received = n; });
  EXPECT_EQ(verbs_.postedRecvCount(qp), 1u);
  verbs_.postSend(qp, payload.data(), payload.size());
  engine_.run();
  EXPECT_EQ(received, 100u);
  EXPECT_EQ(recvBuf[99], std::byte{42});
  EXPECT_EQ(verbs_.postedRecvCount(qp), 0u);
}

TEST_F(IbTest, SendWithoutRecvParksUntilPosted) {
  const auto qp = verbs_.connect(0, 1);
  std::vector<std::byte> payload(64, std::byte{7});
  verbs_.postSend(qp, payload.data(), payload.size());
  engine_.run();  // arrives with no receive posted -> parked (RNR model)
  std::vector<std::byte> recvBuf(64, std::byte{0});
  std::size_t received = 0;
  verbs_.postRecv(qp, recvBuf.data(), recvBuf.size(),
                  [&](std::size_t n) { received = n; });
  EXPECT_EQ(received, 64u);
  EXPECT_EQ(recvBuf[0], std::byte{7});
}

TEST_F(IbTest, UnorderedChunkModeBreaksTailFirstInvariant) {
  // The ablation: with deliberate out-of-order chunking, the *tail* of the
  // buffer is populated before the head — exactly the hazard the RC
  // in-order guarantee removes for sentinel-based detection.
  verbs_.setUnorderedChunksForTest(4);
  std::vector<std::byte> src(4096);
  std::iota(reinterpret_cast<unsigned char*>(src.data()),
            reinterpret_cast<unsigned char*>(src.data()) + src.size(), 0);
  std::vector<std::byte> dst(4096, std::byte{0});
  const auto rs = verbs_.registerMemory(0, src.data(), src.size());
  const auto rd = verbs_.registerMemory(1, dst.data(), dst.size());
  bool tailSeen = false;
  bool headMissingAtTail = false;
  ib::IbVerbs::RdmaWrite w;
  w.qp = verbs_.connect(0, 1);
  w.local_addr = src.data();
  w.local_region = rs;
  w.remote_addr = dst.data();
  w.remote_region = rd;
  w.bytes = src.size();
  w.on_remote_delivered = [&] {
    tailSeen = true;
    // At the moment the last byte is in place, the head has NOT arrived.
    headMissingAtTail = (dst[0] == std::byte{0});
  };
  verbs_.postRdmaWrite(std::move(w));
  engine_.run();
  EXPECT_TRUE(tailSeen);
  EXPECT_TRUE(headMissingAtTail);
  // Eventually everything lands.
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

}  // namespace
}  // namespace ckd
