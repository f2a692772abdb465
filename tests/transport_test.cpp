// Integration tests for the machine layers under the runtime: protocol
// selection, rendezvous bookkeeping, header-size modeling, request
// recycling, and delivery through every path (eager, rendezvous, DCMF
// short/normal, local, intra-node).

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "charm/maps.hpp"
#include "charm/marshal.hpp"
#include "charm/proxy.hpp"
#include "charm/runtime.hpp"
#include "charm/transport.hpp"
#include "harness/machines.hpp"

namespace ckd::charm {
namespace {

class Echo final : public Chare {
 public:
  std::vector<double> lastPayload;
  int hits = 0;
  void take(Message& msg) {
    ++hits;
    Unpacker up(msg.payload());
    lastPayload = up.getVector<double>();
  }
};

struct Rig {
  explicit Rig(MachineConfig machine, int elems = 2)
      : rts(std::move(machine)) {
    proxy = makeArray<Echo>(rts, "echo", elems,
                            blockMap(elems, rts.numPes()),
                            [](std::int64_t) { return std::make_unique<Echo>(); });
    ep = proxy.registerEntry("take", &Echo::take);
  }
  void sendDoubles(std::int64_t dest, std::size_t count) {
    std::vector<double> values(count);
    for (std::size_t i = 0; i < count; ++i) values[i] = 0.25 * static_cast<double>(i);
    Packer pk;
    pk.putVector(values);
    rts.engine().after(0.0,
                       [this, dest, pk = std::move(pk)]() mutable {
                         proxy[dest].send(ep, std::move(pk));
                       });
    rts.run();
  }
  Runtime rts;
  ArrayProxy<Echo> proxy;
  EntryId ep = -1;
};

class EagerSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EagerSizes, PayloadIntactThroughIbEager) {
  Rig rig(harness::abeMachine(2, 1));
  rig.sendDoubles(1, GetParam());
  ASSERT_EQ(rig.proxy[1].local().hits, 1);
  ASSERT_EQ(rig.proxy[1].local().lastPayload.size(), GetParam());
  if (GetParam() > 0) {
    EXPECT_DOUBLE_EQ(rig.proxy[1].local().lastPayload.back(),
                     0.25 * static_cast<double>(GetParam() - 1));
  }
}

TEST_P(EagerSizes, PayloadIntactThroughDcmf) {
  Rig rig(harness::surveyorMachine(2, 1));
  rig.sendDoubles(1, GetParam());
  ASSERT_EQ(rig.proxy[1].local().hits, 1);
  ASSERT_EQ(rig.proxy[1].local().lastPayload.size(), GetParam());
}

// 0, tiny (short DCMF path), just under / over the 224 B DCMF split, and
// just under / over the IB 24 KB rendezvous threshold.
INSTANTIATE_TEST_SUITE_P(Sizes, EagerSizes,
                         ::testing::Values(0, 1, 16, 17, 26, 27, 3000, 3100,
                                           8192));

TEST(TransportCounters, RendezvousUsedAboveThreshold) {
  Rig rig(harness::abeMachine(2, 1));
  rig.sendDoubles(1, 512);  // ~4 KB: eager
  EXPECT_EQ(rig.rts.ibVerbs().rdmaWritesPosted(), 0u);
  rig.rts.engine().after(0, [] {});
  std::vector<double> big(8192, 1.0);  // 64 KB payload: rendezvous
  Packer pk;
  pk.putVector(big);
  rig.rts.engine().after(1.0, [&] { rig.proxy[1].send(rig.ep, std::move(pk)); });
  rig.rts.run();
  EXPECT_EQ(rig.proxy[1].local().hits, 2);
  EXPECT_EQ(rig.rts.ibVerbs().rdmaWritesPosted(), 1u);
}

TEST(TransportCounters, RendezvousRegionsAreReleased) {
  Rig rig(harness::abeMachine(2, 1));
  for (int i = 0; i < 5; ++i) rig.sendDoubles(1, 8192);
  EXPECT_EQ(rig.proxy[1].local().hits, 5);
  EXPECT_EQ(rig.rts.ibVerbs().regionCount(0), 0u);
  EXPECT_EQ(rig.rts.ibVerbs().regionCount(1), 0u);
}

TEST(TransportCounters, SameNodeRendezvousToOnePeStaysIntact) {
  // PEs 0 and 1 share a node and each rendezvous 64 KB to PE 2 at the same
  // instant. Their payload writes share the node's injection port, so a
  // local completion can fire before its write lands; the transport keeps
  // each message image pinned until both have happened, so both payloads
  // arrive intact and every region is released at quiescence.
  class Collector final : public Chare {
   public:
    std::vector<std::vector<double>> got;
    void take(Message& msg) {
      Unpacker up(msg.payload());
      got.push_back(up.getVector<double>());
    }
  };
  Runtime rts(harness::abeMachine(4, 2));
  auto proxy = makeArray<Collector>(
      rts, "col", 4, [](std::int64_t i) { return static_cast<int>(i); },
      [](std::int64_t) { return std::make_unique<Collector>(); });
  const EntryId ep = proxy.registerEntry("take", &Collector::take);
  rts.seed([&] {
    for (int src = 0; src < 2; ++src) {
      std::vector<double> values(8192);
      for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = src + 0.001 * static_cast<double>(i);
      Packer pk;
      pk.putVector(values);
      Envelope env;
      env.kind = MsgKind::kUser;
      env.srcPe = src;
      env.dstPe = 2;
      env.arrayId = proxy.id();
      env.elemIndex = 2;
      env.entry = ep;
      rts.sendMessage(Message::adopt(env, std::move(pk)));
    }
  });
  rts.run();
  const auto& got = proxy[2].local().got;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(rts.ibVerbs().rdmaWritesPosted(), 2u);
  for (const std::vector<double>& values : got) {
    ASSERT_EQ(values.size(), 8192u);
    const double src = values[0];
    EXPECT_TRUE(src == 0.0 || src == 1.0);
    bool intact = true;
    for (std::size_t i = 0; i < values.size(); ++i)
      intact = intact && values[i] == src + 0.001 * static_cast<double>(i);
    EXPECT_TRUE(intact);
  }
  EXPECT_NE(got[0][0], got[1][0]);
  for (int pe = 0; pe < 4; ++pe) EXPECT_EQ(rts.ibVerbs().regionCount(pe), 0u);
}

TEST(HeaderModel, SmallerHeaderShortensEagerPingRtt) {
  MachineConfig slim = harness::abeMachine(2, 1);
  slim.costs.header_bytes = 0;
  Rig fat(harness::abeMachine(2, 1));
  Rig thin(std::move(slim));
  fat.sendDoubles(1, 100);
  thin.sendDoubles(1, 100);
  EXPECT_LT(thin.rts.now(), fat.rts.now());
}

TEST(LocalPath, SamePeDeliverySkipsMachineLayer) {
  Rig rig(harness::abeMachine(2, 1), /*elems=*/4);  // elems 0,1 on PE 0
  rig.sendDoubles(1, 64);
  EXPECT_EQ(rig.proxy[1].local().hits, 1);
  EXPECT_EQ(rig.rts.fabric().messagesSubmitted(), 0u);
}

TEST(LocalPath, IntraNodeUsesSharedMemoryTiming) {
  // PEs 0 and 1 share a node: delivery must use the intra path (cheaper
  // than the wire alpha).
  Rig rig(harness::abeMachine(4, 2));
  rig.sendDoubles(1, 16);
  EXPECT_EQ(rig.proxy[1].local().hits, 1);
  const auto& p = rig.rts.fabric().params();
  // Completed well before a wire alpha could have elapsed plus scheduling.
  EXPECT_LT(rig.rts.now(), p.packet.alpha_us + 10.0);
}

TEST(BgpRequests, PoolRecyclesAcrossManyMessages) {
  Rig rig(harness::surveyorMachine(2, 1));
  rig.rts.seed([&] {
    for (int i = 0; i < 50; ++i) {
      Packer pk;
      std::vector<double> v(8, static_cast<double>(i));
      pk.putVector(v);
      rig.proxy[1].send(rig.ep, std::move(pk));
    }
  });
  rig.rts.run();
  EXPECT_EQ(rig.proxy[1].local().hits, 50);
}

TEST(Ordering, SameSizeMessagesArriveInSendOrder) {
  Rig rig(harness::abeMachine(2, 1));
  std::vector<int> order;
  class Collector final : public Chare {
   public:
    std::vector<std::int64_t> tags;
    void take(Message& msg) {
      Unpacker up(msg.payload());
      tags.push_back(up.get<std::int64_t>());
    }
  };
  Runtime& rts = rig.rts;
  auto proxy = makeArray<Collector>(rts, "col", 2, blockMap(2, 2),
                                    [](std::int64_t) { return std::make_unique<Collector>(); });
  const EntryId ep = proxy.registerEntry("take", &Collector::take);
  rts.seed([&] {
    for (std::int64_t i = 0; i < 20; ++i) {
      Packer pk;
      pk.put<std::int64_t>(i);
      proxy[1].send(ep, std::move(pk));
    }
  });
  rts.run();
  const auto& tags = proxy[1].local().tags;
  ASSERT_EQ(tags.size(), 20u);
  for (std::int64_t i = 0; i < 20; ++i)
    EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
  (void)order;
}

}  // namespace
}  // namespace ckd::charm
