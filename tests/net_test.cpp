// Tests for the topology and fabric models: hop counts, NIC sharing,
// serialization math, port contention, delivery ordering.

#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "topo/fat_tree.hpp"
#include "topo/torus3d.hpp"

namespace ckd {
namespace {

TEST(FatTree, NodeAssignment) {
  topo::FatTree t(4, 8);
  EXPECT_EQ(t.numPes(), 32);
  EXPECT_EQ(t.numNodes(), 4);
  EXPECT_EQ(t.nodeOf(0), 0);
  EXPECT_EQ(t.nodeOf(7), 0);
  EXPECT_EQ(t.nodeOf(8), 1);
  EXPECT_TRUE(t.sameNode(0, 7));
  EXPECT_FALSE(t.sameNode(7, 8));
}

TEST(FatTree, HopCounts) {
  topo::FatTree t(48, 1, /*nodesPerSwitch=*/24);
  EXPECT_EQ(t.hops(0, 0), 0);
  EXPECT_EQ(t.hops(0, 1), 2);    // same leaf switch
  EXPECT_EQ(t.hops(0, 24), 4);   // across the spine
  EXPECT_EQ(t.injectionSharers(0), 1);
}

TEST(Torus3D, PowerOfTwoFactorization) {
  const auto t = topo::Torus3D::forPes(2048, 4);  // 512 nodes
  const auto d = t.dims();
  EXPECT_EQ(d[0] * d[1] * d[2], 512);
  EXPECT_EQ(t.numPes(), 2048);
  // Near-cubic: 8x8x8.
  EXPECT_EQ(d[0], 8);
  EXPECT_EQ(d[1], 8);
  EXPECT_EQ(d[2], 8);
}

TEST(Torus3D, WraparoundDistance) {
  topo::Torus3D t(8, 8, 8, 1);
  // Node 0 is (0,0,0); node 7 is (7,0,0): wraparound distance 1.
  EXPECT_EQ(t.hops(0, 7), 1);
  // Node (4,0,0): max distance 4 in x.
  EXPECT_EQ(t.hops(0, 4), 4);
  EXPECT_EQ(t.hops(0, 0), 0);
}

TEST(Torus3D, AverageHops) {
  topo::Torus3D t(8, 8, 8, 1);
  EXPECT_DOUBLE_EQ(t.averageHops(), 6.0);  // 3 * 8/4
}

TEST(XferClass, SerializationMath) {
  net::XferClass cls{/*alpha*/ 5.0, /*per_byte*/ 2e-3, /*per_packet*/ 0.5,
                     /*mtu*/ 1024};
  // 2500 bytes -> 3 packets.
  EXPECT_DOUBLE_EQ(cls.serialization(2500), 2500 * 2e-3 + 3 * 0.5);
  EXPECT_DOUBLE_EQ(cls.serialization(0), 0.5);  // one (empty) packet
  net::XferClass noPackets{1.0, 1e-3, 0.0, 0};
  EXPECT_DOUBLE_EQ(noPackets.serialization(1000), 1.0);
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : topo_(std::make_shared<topo::FatTree>(4, 2)),
        fabric_(engine_, topo_, net::abeParams()) {}

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
};

TEST_F(FabricTest, IntraNodeUsesMemcpyPath) {
  double delivered = -1;
  // PEs 0 and 1 share node 0.
  fabric_.submit(0, 1, 1000, net::XferKind::kPacket,
                 [&] { delivered = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_DOUBLE_EQ(delivered, p.intra_alpha_us + p.intra_per_byte_us * 1000);
}

TEST_F(FabricTest, InterNodeLatencyIncludesHops) {
  double delivered = -1;
  fabric_.submit(0, 2, 0, net::XferKind::kControl,
                 [&] { delivered = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_DOUBLE_EQ(delivered, p.control.alpha_us + 2 * p.per_hop_us);
}

TEST_F(FabricTest, InjectionPortSharesBandwidthRoundRobin) {
  // Two concurrent bulk messages from node 0 (PEs 0 and 1 share it) to
  // different destinations share the injection port: each takes about
  // twice its solo serialization time to finish.
  std::vector<double> deliveries;
  fabric_.submit(0, 2, 10000, net::XferKind::kRdma,
                 [&] { deliveries.push_back(engine_.now()); });
  fabric_.submit(1, 4, 10000, net::XferKind::kRdma,
                 [&] { deliveries.push_back(engine_.now()); });
  EXPECT_EQ(fabric_.injectQueueLength(0), 2u);
  engine_.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const double ser = fabric_.params().rdma.serialization(10000);
  const double alpha = fabric_.params().rdma.alpha_us;
  // Both finish close to 2x the solo serialization (fair sharing), well
  // after a solo message would have (ser).
  EXPECT_GT(deliveries[0], ser + alpha);
  EXPECT_NEAR(deliveries[1], 2 * ser + alpha +
                                 2 * fabric_.params().per_hop_us,
              ser / 4);
  EXPECT_EQ(fabric_.injectQueueLength(0), 0u);
}

TEST_F(FabricTest, SoloBulkMessageCostsExactlySerialization) {
  // A lone bulk transfer must take ser + latency — the round-robin port
  // adds nothing when uncontended (calibration invariant).
  double delivered = -1;
  fabric_.submit(0, 2, 100000, net::XferKind::kRdma,
                 [&] { delivered = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_NEAR(delivered,
              p.rdma.serialization(100000) + p.rdma.alpha_us +
                  2 * p.per_hop_us,
              1e-9);
}

TEST_F(FabricTest, SmallMessageBypassesBusyPort) {
  // A single-packet message submitted behind a large transfer is not
  // stalled by it (packet interleaving).
  double bigAt = -1, smallAt = -1;
  fabric_.submit(0, 2, 500000, net::XferKind::kRdma,
                 [&] { bigAt = engine_.now(); });
  fabric_.submit(0, 2, 200, net::XferKind::kPacket,
                 [&] { smallAt = engine_.now(); });
  engine_.run();
  EXPECT_LT(smallAt, bigAt);
  EXPECT_LT(smallAt, 10.0);  // latency-bound, not behind 500 KB
}

TEST_F(FabricTest, EjectionPortSerializesManyToOne) {
  // Incast: two full-rate streams from different nodes into one node can
  // only drain at the destination's aggregate link rate — the second
  // message completes around 2x the solo serialization.
  std::vector<double> deliveries;
  fabric_.submit(2, 0, 20000, net::XferKind::kRdma,
                 [&] { deliveries.push_back(engine_.now()); });
  fabric_.submit(4, 0, 20000, net::XferKind::kRdma,
                 [&] { deliveries.push_back(engine_.now()); });
  engine_.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const double ser = fabric_.params().rdma.serialization(20000);
  EXPECT_GT(deliveries[1], deliveries[0]);
  EXPECT_NEAR(deliveries[1], 2 * ser, ser / 10);
}

TEST_F(FabricTest, ControlSkipsPorts) {
  // A huge RDMA transfer should not delay a control message.
  double controlAt = -1;
  fabric_.submit(0, 2, 1000000, net::XferKind::kRdma, [] {});
  fabric_.submit(0, 2, 16, net::XferKind::kControl,
                 [&] { controlAt = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_DOUBLE_EQ(controlAt,
                   p.control.alpha_us + 2 * p.per_hop_us +
                       p.control.per_byte_us * 16);
}

TEST_F(FabricTest, SameRouteEqualSizeDeliveryIsFifo) {
  // Equal-size transfers on one route complete in submission order (the
  // per-message atomicity CkDirect's sentinel relies on — a message is
  // placed wholly, and back-to-back puts on one channel stay ordered).
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    fabric_.submit(0, 2, 10000, net::XferKind::kRdma,
                   [&order, i] { order.push_back(i); });
  engine_.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(FabricTest, ZeroByteSubmitsDeliver) {
  // Degenerate sizes must still round-trip through every path: a zero-byte
  // bulk transfer is one empty wire packet, a zero-byte control message is
  // pure latency. Neither may hang or divide by zero.
  double bulkAt = -1, controlAt = -1, intraAt = -1;
  fabric_.submit(0, 2, 0, net::XferKind::kRdma,
                 [&] { bulkAt = engine_.now(); });
  fabric_.submit(0, 2, 0, net::XferKind::kControl,
                 [&] { controlAt = engine_.now(); });
  fabric_.submit(0, 1, 0, net::XferKind::kPacket,
                 [&] { intraAt = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_DOUBLE_EQ(bulkAt, p.rdma.serialization(0) + p.rdma.alpha_us +
                               2 * p.per_hop_us);
  EXPECT_DOUBLE_EQ(controlAt, p.control.alpha_us + 2 * p.per_hop_us);
  EXPECT_DOUBLE_EQ(intraAt, p.intra_alpha_us);
  EXPECT_EQ(fabric_.bytesSubmitted(), 0u);
  EXPECT_EQ(fabric_.messagesSubmitted(), 3u);
}

TEST_F(FabricTest, SamePeSubmitUsesSelfPath) {
  double packetAt = -1, bulkAt = -1;
  fabric_.submit(0, 0, 4096, net::XferKind::kPacket,
                 [&] { packetAt = engine_.now(); });
  fabric_.submit(0, 0, 4096, net::XferKind::kRdma,
                 [&] { bulkAt = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_DOUBLE_EQ(packetAt, p.self_alpha_us + p.self_per_byte_us * 4096);
  EXPECT_DOUBLE_EQ(bulkAt, p.self_alpha_us + p.self_per_byte_us * 4096);
  // Self-sends never touch the node's injection port.
  EXPECT_EQ(fabric_.injectQueueLength(0), 0u);
}

TEST_F(FabricTest, ControlStaysTimelyUnderBulkSaturation) {
  // Both PEs of node 0 flood the injection port with bulk transfers; a
  // control message submitted last must still deliver at the uncontended
  // latency (control-class traffic never queues behind bulk).
  for (int i = 0; i < 4; ++i) {
    fabric_.submit(0, 2, 400000, net::XferKind::kRdma, [] {});
    fabric_.submit(1, 4, 400000, net::XferKind::kRdma, [] {});
  }
  EXPECT_GT(fabric_.injectQueueLength(0), 0u);
  double controlAt = -1;
  fabric_.submit(0, 2, 16, net::XferKind::kControl,
                 [&] { controlAt = engine_.now(); });
  engine_.run();
  const auto& p = fabric_.params();
  EXPECT_DOUBLE_EQ(controlAt,
                   p.control.alpha_us + 2 * p.per_hop_us +
                       p.control.per_byte_us * 16);
}

TEST_F(FabricTest, UnarmedPlanInstallsNothing) {
  fault::FaultPlan plan;  // no rules: armed() == false
  fabric_.installFaults(plan, 123);
  EXPECT_EQ(fabric_.faults(), nullptr);
  double delivered = -1;
  fabric_.submit(0, 2, 1000, net::XferKind::kPacket,
                 [&] { delivered = engine_.now(); });
  engine_.run();
  EXPECT_GT(delivered, 0.0);
}

TEST_F(FabricTest, FaultsSpareIntraNodeTraffic) {
  // drop:1 kills every inter-node message, but co-located and same-PE
  // submits never cross the wire and must be untouched.
  fabric_.installFaults(fault::parseFaultSpec("drop:1"), 9);
  ASSERT_NE(fabric_.faults(), nullptr);
  bool intra = false, self = false, inter = false;
  fabric_.submit(0, 1, 1000, net::XferKind::kPacket, [&] { intra = true; });
  fabric_.submit(0, 0, 1000, net::XferKind::kPacket, [&] { self = true; });
  fabric_.submit(0, 2, 1000, net::XferKind::kPacket, [&] { inter = true; });
  engine_.run();
  EXPECT_TRUE(intra);
  EXPECT_TRUE(self);
  EXPECT_FALSE(inter);
  EXPECT_EQ(fabric_.faults()->count(fault::FaultKind::kDrop), 1u);
}

TEST_F(FabricTest, TracksStats) {
  fabric_.submit(0, 2, 123, net::XferKind::kPacket, [] {});
  fabric_.submit(0, 2, 77, net::XferKind::kControl, [] {});
  EXPECT_EQ(fabric_.messagesSubmitted(), 2u);
  EXPECT_EQ(fabric_.bytesSubmitted(), 200u);
  // The transfer count is the engine's always-on fabric.submit tag.
  EXPECT_EQ(engine_.trace().count(sim::TraceTag::kFabricSubmit), 2u);
  engine_.run();
}

TEST(CostParams, PresetsAreSane) {
  const auto abe = net::abeParams();
  EXPECT_TRUE(abe.has_rdma);
  EXPECT_LT(abe.rdma.per_byte_us, abe.packet.per_byte_us);
  const auto bgp = net::surveyorParams();
  EXPECT_FALSE(bgp.has_rdma);
  // classFor(kRdma) falls back to the packet class on BG/P.
  EXPECT_EQ(&bgp.classFor(net::XferKind::kRdma),
            &bgp.classFor(net::XferKind::kPacket));
  const auto t3 = net::t3Params();
  EXPECT_GT(t3.rdma.alpha_us, abe.rdma.alpha_us);
}

}  // namespace
}  // namespace ckd
