// Tests for the message-driven runtime: envelopes, marshalling, entry
// dispatch, scheduler semantics (costs, system work, poll hook), broadcast
// trees, reductions, and transport protocol selection.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "charm/maps.hpp"
#include "charm/marshal.hpp"
#include "charm/proxy.hpp"
#include "charm/runtime.hpp"
#include "charm/transport.hpp"
#include "harness/machines.hpp"

namespace ckd::charm {
namespace {

// --- marshalling -------------------------------------------------------------

TEST(Marshal, RoundTripScalars) {
  Packer pk;
  pk.put<std::int32_t>(-7).put<double>(2.5).put<std::uint8_t>(255);
  Unpacker up(pk.bytes());
  EXPECT_EQ(up.get<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(up.get<double>(), 2.5);
  EXPECT_EQ(up.get<std::uint8_t>(), 255);
  EXPECT_TRUE(up.empty());
}

TEST(Marshal, RoundTripSpans) {
  Packer pk;
  std::vector<double> values{1.0, 2.0, 3.0};
  pk.putVector(values);
  pk.put<std::int32_t>(9);
  Unpacker up(pk.bytes());
  const auto got = up.getVector<double>();
  EXPECT_EQ(got, values);
  EXPECT_EQ(up.get<std::int32_t>(), 9);
}

TEST(Marshal, EmptySpan) {
  Packer pk;
  pk.putSpan<double>({});
  Unpacker up(pk.bytes());
  EXPECT_TRUE(up.getSpan<double>().empty());
}

TEST(Marshal, OverrunAborts) {
  Packer pk;
  pk.put<std::int32_t>(1);
  Unpacker up(pk.bytes());
  up.get<std::int32_t>();
  EXPECT_DEATH(up.get<std::int32_t>(), "past the end");
}

// A marshalled send hands the packer's block to the message as its wire
// image; every transport path must still deliver the payload intact: eager
// (0 B, 100 B), rendezvous (32 KiB) and a rendezvous image past
// BufferPool::kMaxPooledBytes (5 MiB), whose packer grew unpooled.
class PackedSink final : public Chare {
 public:
  std::vector<std::byte> got;
  std::size_t payloadBytes = 0;
  int hits = 0;
  void take(Message& msg) {
    ++hits;
    payloadBytes = msg.payloadBytes();
    if (payloadBytes == 0) return;
    Unpacker up(msg.payload());
    const auto bytes = up.getSpan<std::byte>();
    got.assign(bytes.begin(), bytes.end());
  }
};

class PackedSendSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedSendSizes, MovedPackerRoundTripsIntact) {
  const std::size_t n = GetParam();
  Runtime rts(harness::abeMachine(2, 1));
  auto proxy = makeArray<PackedSink>(
      rts, "sink", 2, blockMap(2, rts.numPes()),
      [](std::int64_t) { return std::make_unique<PackedSink>(); });
  const EntryId ep = proxy.registerEntry("take", &PackedSink::take);
  std::vector<std::byte> sent(n);
  for (std::size_t i = 0; i < n; ++i)
    sent[i] = static_cast<std::byte>((i * 131u + 7u) & 0xFFu);
  Packer pk;
  if (n > 0) pk.putSpan<std::byte>(sent);
  rts.seed([&] { proxy[1].send(ep, std::move(pk)); });
  rts.run();
  EXPECT_EQ(pk.size(), 0u);  // the block left with the message
  const PackedSink& sink = proxy[1].local();
  ASSERT_EQ(sink.hits, 1);
  EXPECT_EQ(sink.payloadBytes, n == 0 ? 0 : n + sizeof(std::uint64_t));
  EXPECT_TRUE(sink.got == sent);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedSendSizes,
                         ::testing::Values(0, 100, 32 * 1024, 5u << 20));

TEST(Marshal, GrowthPastPooledSizesKeepsBytes) {
  // Many small appends walk the packer through every size class and past
  // BufferPool::kMaxPooledBytes; each growth must carry the bytes along.
  Packer pk;
  const std::size_t count = (util::BufferPool::kMaxPooledBytes / 8) + 1000;
  for (std::size_t i = 0; i < count; ++i) pk.put<std::uint64_t>(i);
  ASSERT_EQ(pk.size(), count * 8);
  Unpacker up(pk.bytes());
  bool intact = true;
  for (std::size_t i = 0; i < count; ++i)
    intact = intact && up.get<std::uint64_t>() == i;
  EXPECT_TRUE(intact);
}

// --- message wire format -------------------------------------------------------

TEST(Message, WireRoundTrip) {
  Envelope env;
  env.srcPe = 1;
  env.dstPe = 2;
  env.arrayId = 3;
  env.elemIndex = 77;
  env.entry = 5;
  std::vector<std::byte> payload(100, std::byte{0xAB});
  auto msg = Message::make(env, payload);
  EXPECT_EQ(msg->wireBytes(), kWireHeaderBytes + 100);
  auto copy = Message::fromWire(msg->wire());
  EXPECT_EQ(copy->env().elemIndex, 77);
  EXPECT_EQ(copy->env().entry, 5);
  EXPECT_EQ(copy->payload()[99], std::byte{0xAB});
}

TEST(Message, CorruptHeaderAborts) {
  std::vector<std::byte> junk(kWireHeaderBytes + 4, std::byte{0x11});
  EXPECT_DEATH(Message::fromWire(junk), "corrupt");
}

// --- chare arrays and dispatch ---------------------------------------------------

class Counter final : public Chare {
 public:
  ArrayProxy<Counter> proxy;
  EntryId epBump = -1, epDone = -1;
  int bumps = 0;
  std::vector<double> lastReduction;

  void bump(Message& msg) {
    ++bumps;
    if (!msg.payload().empty()) {
      Unpacker up(msg.payload());
      bumpBy = up.get<std::int32_t>();
    }
  }
  void reduced(Message& msg) {
    Unpacker up(msg.payload());
    lastReduction = up.getVector<double>();
  }
  int bumpBy = 0;
};

struct Fixture {
  explicit Fixture(int pes = 4, int elems = 8)
      : rts(harness::abeMachine(pes, 1)) {
    proxy = makeArray<Counter>(rts, "counter", elems,
                               blockMap(elems, rts.numPes()),
                               [](std::int64_t) { return std::make_unique<Counter>(); });
    epBump = proxy.registerEntry("bump", &Counter::bump);
    epDone = proxy.registerEntry("reduced", &Counter::reduced);
    for (std::int64_t i = 0; i < elems; ++i) {
      proxy[i].local().proxy = proxy;
      proxy[i].local().epBump = epBump;
      proxy[i].local().epDone = epDone;
    }
  }
  Runtime rts;
  ArrayProxy<Counter> proxy;
  EntryId epBump = -1, epDone = -1;
};

TEST(Array, PlacementFollowsMap) {
  Fixture f(4, 8);
  EXPECT_EQ(f.rts.homePe(f.proxy.id(), 0), 0);
  EXPECT_EQ(f.rts.homePe(f.proxy.id(), 7), 3);
  EXPECT_EQ(f.rts.elementsOnPe(f.proxy.id(), 0).size(), 2u);
}

TEST(Array, SendInvokesEntry) {
  Fixture f;
  Packer pk;
  pk.put<std::int32_t>(42);
  f.rts.seed([&] { f.proxy[5].send(f.epBump, std::move(pk)); });
  f.rts.run();
  EXPECT_EQ(f.proxy[5].local().bumps, 1);
  EXPECT_EQ(f.proxy[5].local().bumpBy, 42);
  EXPECT_EQ(f.proxy[4].local().bumps, 0);
}

TEST(Array, BroadcastReachesEveryElement) {
  Fixture f(4, 8);
  f.rts.seed([&] { f.proxy.broadcast(f.epBump); });
  f.rts.run();
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(f.proxy[i].local().bumps, 1) << "element " << i;
}

TEST(Array, BroadcastOnManyPes) {
  Fixture f(16, 64);
  f.rts.seed([&] { f.proxy.broadcast(f.epBump); });
  f.rts.run();
  for (std::int64_t i = 0; i < 64; ++i)
    EXPECT_EQ(f.proxy[i].local().bumps, 1);
}

TEST(Reduction, SumAcrossElements) {
  Fixture f(4, 8);
  f.rts.seed([&] {
    for (std::int64_t i = 0; i < 8; ++i) {
      const double v[] = {static_cast<double>(i), 1.0};
      f.rts.contribute(f.proxy.id(), i, v, ReduceOp::kSum, f.epDone);
    }
  });
  f.rts.run();
  for (std::int64_t i = 0; i < 8; ++i) {
    const auto& r = f.proxy[i].local().lastReduction;
    ASSERT_EQ(r.size(), 2u) << "element " << i;
    EXPECT_DOUBLE_EQ(r[0], 28.0);
    EXPECT_DOUBLE_EQ(r[1], 8.0);
  }
}

TEST(Reduction, MinMax) {
  Fixture f(2, 4);
  f.rts.seed([&] {
    for (std::int64_t i = 0; i < 4; ++i) {
      const double v[] = {static_cast<double>(i)};
      f.rts.contribute(f.proxy.id(), i, v, ReduceOp::kMax, f.epDone);
    }
  });
  f.rts.run();
  EXPECT_DOUBLE_EQ(f.proxy[0].local().lastReduction[0], 3.0);
}

TEST(Reduction, BarrierDeliversEmptyPayload) {
  Fixture f(4, 8);
  f.rts.seed([&] {
    for (std::int64_t i = 0; i < 8; ++i)
      f.rts.contribute(f.proxy.id(), i, {}, ReduceOp::kNop, f.epDone);
  });
  f.rts.run();
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_TRUE(f.proxy[i].local().lastReduction.empty());
}

TEST(Reduction, SequentialRoundsKeepSeparateState) {
  Fixture f(2, 4);
  // Two rounds back to back; second uses different values.
  f.rts.seed([&] {
    for (std::int64_t i = 0; i < 4; ++i) {
      const double v[] = {1.0};
      f.rts.contribute(f.proxy.id(), i, v, ReduceOp::kSum, f.epDone);
    }
    for (std::int64_t i = 0; i < 4; ++i) {
      const double v[] = {10.0};
      f.rts.contribute(f.proxy.id(), i, v, ReduceOp::kSum, f.epDone);
    }
  });
  f.rts.run();
  EXPECT_DOUBLE_EQ(f.proxy[0].local().lastReduction[0], 40.0);
}

// --- scheduler timing semantics ---------------------------------------------------

TEST(Scheduler, ChargesAdvanceVirtualTime) {
  Fixture f(2, 2);
  double tInside = -1, tAfterCharge = -1;
  // Use a poll hook as an arbitrary handler context.
  f.rts.seed([&] { f.proxy[1].send(f.epBump); });
  f.rts.run();
  const sim::Time busy = f.rts.processor(1).busyTotal();
  // recv + sched overheads were charged for the one message.
  const auto& costs = f.rts.costs();
  EXPECT_NEAR(busy, costs.recv_overhead_us + costs.sched_overhead_us, 1e-9);
  (void)tInside;
  (void)tAfterCharge;
}

TEST(Scheduler, SystemWorkBypassesQueueCosts) {
  Runtime rts(harness::abeMachine(2, 1));
  double ranAt = -1;
  rts.seed([&] {
    rts.scheduler(1).enqueueSystemWork(2.0, [&] {
      ranAt = rts.scheduler(1).currentTime();
    });
  });
  rts.run();
  // System work charges its cost but no scheduling overhead.
  EXPECT_DOUBLE_EQ(ranAt, 2.0);
  EXPECT_DOUBLE_EQ(rts.processor(1).busyTotal(), 2.0);
}

TEST(Scheduler, PollHookRunsEveryPump) {
  Fixture f(2, 2);
  int polls = 0;
  f.rts.scheduler(1).setPollHook([&] { ++polls; });
  f.rts.seed([&] {
    f.proxy[1].send(f.epBump);
    f.proxy[1].send(f.epBump);
  });
  f.rts.run();
  EXPECT_GE(polls, 2);  // one per pump, two messages -> at least two pumps
}

TEST(Scheduler, MessagesOnOnePeSerialize) {
  Fixture f(2, 2);
  f.rts.seed([&] {
    f.proxy[1].send(f.epBump);
    f.proxy[1].send(f.epBump);
  });
  f.rts.run();
  const auto& costs = f.rts.costs();
  EXPECT_NEAR(f.rts.processor(1).busyTotal(),
              2 * (costs.recv_overhead_us + costs.sched_overhead_us), 1e-9);
  EXPECT_EQ(f.proxy[1].local().bumps, 2);
}

// --- transport protocol selection ---------------------------------------------------

TEST(Transport, SmallMessagesGoEager) {
  Fixture f(2, 2);
  Packer pk;
  std::vector<double> data(16, 1.0);
  pk.putVector(data);
  f.rts.seed([&] { f.proxy[1].send(f.epBump, std::move(pk)); });
  f.rts.run();
  // Access the transport through message counters: eager only.
  EXPECT_EQ(f.proxy[1].local().bumps, 1);
}

TEST(Transport, LargeMessagesUseRendezvousRdma) {
  Runtime rts(harness::abeMachine(2, 1));
  auto proxy = makeArray<Counter>(rts, "c", 2, blockMap(2, 2),
                                  [](std::int64_t) { return std::make_unique<Counter>(); });
  const EntryId ep = proxy.registerEntry("bump", &Counter::bump);
  Packer pk;
  std::vector<double> data(8192, 3.0);  // 64 KB > 24 KB threshold
  pk.putVector(data);
  rts.seed([&] { rts.sendToElement(proxy.id(), 1, ep, pk.bytes()); });
  rts.run();
  EXPECT_EQ(proxy[1].local().bumps, 1);
  // The rendezvous path registers (and releases) memory on both sides.
  EXPECT_EQ(rts.ibVerbs().rdmaWritesPosted(), 1u);
  EXPECT_EQ(rts.ibVerbs().regionCount(0), 0u);
  EXPECT_EQ(rts.ibVerbs().regionCount(1), 0u);
}

TEST(Transport, BgpAllMessagesThroughDcmf) {
  Runtime rts(harness::surveyorMachine(8, 4));
  auto proxy = makeArray<Counter>(rts, "c", 2, blockMap(2, rts.numPes()),
                                  [](std::int64_t) { return std::make_unique<Counter>(); });
  const EntryId ep = proxy.registerEntry("bump", &Counter::bump);
  rts.seed([&] { rts.sendToElement(proxy.id(), 1, ep, {}); });
  rts.run();
  EXPECT_EQ(proxy[1].local().bumps, 1);
}

TEST(Transport, LocalDeliverySkipsNetwork) {
  Fixture f(2, 4);  // elements 0,1 on PE 0
  f.rts.seed([&] { f.proxy[1].send(f.epBump); });
  f.rts.run();
  EXPECT_EQ(f.proxy[1].local().bumps, 1);
  EXPECT_EQ(f.rts.fabric().messagesSubmitted(), 0u);
}

TEST(Runtime, DeliveryToWrongPeAborts) {
  Fixture f(2, 2);
  Envelope env;
  env.kind = MsgKind::kUser;
  env.srcPe = 0;
  env.dstPe = 0;  // element 1 lives on PE 1
  env.arrayId = f.proxy.id();
  env.elemIndex = 1;
  env.entry = f.epBump;
  auto msg = Message::make(env, {});
  EXPECT_DEATH(
      {
        f.rts.scheduler(0).enqueue(std::move(msg));
        f.rts.run();
      },
      "does not own");
}

}  // namespace
}  // namespace ckd::charm
