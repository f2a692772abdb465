// Tests for the CkDirect API on both machine layers: channel setup, put
// delivery and callbacks, sentinel semantics, ready/readyMark/readyPollQ,
// multicast from one send buffer, polling-queue behavior, and the
// synchronization-discipline checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "ckdirect/ckdirect.hpp"
#include "ckdirect/manager_ib.hpp"
#include "harness/machines.hpp"

namespace ckd::direct {
namespace {

constexpr std::uint64_t kOob = 0xFFF0123456789ABCull;

struct Channel {
  std::vector<double> send;
  std::vector<double> recv;
  Handle handle;
  int arrivals = 0;

  Channel(charm::Runtime& rts, int fromPe, int toPe, std::size_t n) {
    send.assign(n, 0.0);
    recv.assign(n, 0.0);
    handle = createHandle(rts, toPe, recv.data(), n * sizeof(double), kOob,
                          [this] { ++arrivals; });
    assocLocal(handle, fromPe, send.data());
  }
};

TEST(CkDirectIb, PutDeliversBytesAndCallback) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  Channel ch(rts, 0, 1, 64);
  for (std::size_t i = 0; i < 64; ++i) ch.send[i] = 0.5 * static_cast<double>(i);
  rts.seed([&] { put(ch.handle); });
  rts.run();
  EXPECT_EQ(ch.arrivals, 1);
  EXPECT_EQ(std::memcmp(ch.recv.data(), ch.send.data(), 64 * 8), 0);
}

TEST(CkDirectIb, CreateHandleWritesSentinel) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  std::vector<double> recv(8, 1.0);
  createHandle(rts, 1, recv.data(), 8 * sizeof(double), kOob, [] {});
  std::uint64_t tail;
  std::memcpy(&tail, recv.data() + 7, 8);
  EXPECT_EQ(tail, kOob);
}

TEST(CkDirectIb, HandleEntersPollQueueOnCreation) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  std::vector<double> recv(8, 0.0);
  createHandle(rts, 1, recv.data(), 64, kOob, [] {});
  EXPECT_EQ(Manager::of(rts).pollQueueLength(1), 1u);
  EXPECT_EQ(Manager::of(rts).pollQueueLength(0), 0u);
}

TEST(CkDirectIb, CallbackLeavesPollQueueUntilReady) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  Channel ch(rts, 0, 1, 16);
  ch.send[15] = 42.0;
  rts.seed([&] { put(ch.handle); });
  rts.run();
  EXPECT_EQ(ch.arrivals, 1);
  EXPECT_EQ(Manager::of(rts).pollQueueLength(1), 0u);
  ready(ch.handle);
  EXPECT_EQ(Manager::of(rts).pollQueueLength(1), 1u);
  // ready() re-armed the sentinel.
  std::uint64_t tail;
  std::memcpy(&tail, ch.recv.data() + 15, 8);
  EXPECT_EQ(tail, kOob);
}

TEST(CkDirectIb, RepeatedIterations) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  std::vector<double> send(32, 0.0), recv(32, 0.0);
  int rounds = 0;
  Handle h = createHandle(rts, 1, recv.data(), 32 * 8, kOob, [&] {
    ++rounds;
    EXPECT_DOUBLE_EQ(recv[0], static_cast<double>(rounds));
  });
  assocLocal(h, 0, send.data());
  // Chain 5 put/ready cycles.
  std::function<void()> cycle = [&] {
    if (rounds >= 5) return;
    send[0] = static_cast<double>(rounds + 1);
    send[31] = static_cast<double>(rounds + 1);
    put(h);
    rts.engine().after(100.0, [&] {
      ready(h);
      cycle();
    });
  };
  rts.seed([&] { cycle(); });
  rts.run();
  EXPECT_EQ(rounds, 5);
}

TEST(CkDirectIb, OneSendBufferManyHandles) {
  // §2: "The same local send buffer can be associated with multiple
  // different handles" — the multicast pattern.
  charm::Runtime rts(harness::abeMachine(4, 1));
  std::vector<double> send(16, 3.25);
  struct Sink {
    std::vector<double> recv;
    int arrivals = 0;
  };
  std::vector<Sink> sinks(3);
  std::vector<Handle> handles;
  for (int i = 0; i < 3; ++i) {
    sinks[static_cast<std::size_t>(i)].recv.assign(16, 0.0);
    Sink* sink = &sinks[static_cast<std::size_t>(i)];
    Handle h = createHandle(rts, i + 1, sink->recv.data(), 16 * 8, kOob,
                            [sink] { ++sink->arrivals; });
    assocLocal(h, 0, send.data());
    handles.push_back(h);
  }
  rts.seed([&] {
    for (const auto& h : handles) put(h);
  });
  rts.run();
  for (const auto& sink : sinks) {
    EXPECT_EQ(sink.arrivals, 1);
    EXPECT_DOUBLE_EQ(sink.recv[7], 3.25);
  }
}

TEST(CkDirectIb, PutBeforeAssocAborts) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  std::vector<double> recv(8, 0.0);
  Handle h = createHandle(rts, 1, recv.data(), 64, kOob, [] {});
  EXPECT_DEATH(put(h), "assocLocal");
}

TEST(CkDirectIb, DoublePutWithoutReadyAborts) {
  // The discipline check: a second put landing before the receiver
  // re-marked the channel is an application synchronization bug.
  charm::Runtime rts(harness::abeMachine(2, 1));
  Channel ch(rts, 0, 1, 16);
  ch.send[15] = 1.0;
  rts.seed([&] {
    put(ch.handle);
    rts.engine().after(500.0, [&] { put(ch.handle); });  // no ready between
  });
  EXPECT_DEATH(rts.run(), "synchronization");
}

TEST(CkDirectIb, TinyBufferRejected) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  std::vector<std::byte> buf(4);
  EXPECT_DEATH(createHandle(rts, 1, buf.data(), 4, kOob, [] {}), "sentinel");
}

TEST(CkDirectIb, ReadyPollQDetectsAlreadyLandedData) {
  // readyMark early, readyPollQ later: data that arrives in between is
  // detected when polling resumes ("without missing any message", §2.1).
  charm::Runtime rts(harness::abeMachine(2, 1));
  Channel ch(rts, 0, 1, 16);
  ch.send[15] = 7.0;
  rts.seed([&] { put(ch.handle); });
  rts.run();
  EXPECT_EQ(ch.arrivals, 1);
  readyMark(ch.handle);
  ch.send[15] = 8.0;
  put(ch.handle);
  rts.run();  // lands, but the handle is not being polled
  EXPECT_EQ(ch.arrivals, 1);
  readyPollQ(ch.handle);
  rts.run();  // the poke from readyPollQ triggers detection
  EXPECT_EQ(ch.arrivals, 2);
  EXPECT_DOUBLE_EQ(ch.recv[15], 8.0);
}

TEST(CkDirectIb, PollQueueCostChargedPerHandle) {
  charm::Runtime rts(harness::abeMachine(2, 1));
  // 10 idle channels on PE 1 plus one active one: every pump on PE 1 pays
  // the scan cost for all queued handles.
  std::vector<std::unique_ptr<Channel>> idle;
  for (int i = 0; i < 10; ++i)
    idle.push_back(std::make_unique<Channel>(rts, 0, 1, 8));
  Channel active(rts, 0, 1, 8);
  active.send[7] = 1.0;
  rts.seed([&] { put(active.handle); });
  rts.run();
  EXPECT_EQ(active.arrivals, 1);
  const auto* mgr = dynamic_cast<IbManager*>(&Manager::of(rts));
  ASSERT_NE(mgr, nullptr);
  EXPECT_GE(rts.fabric().tagCount(sim::TraceTag::kDirectPollScan), 1u);
  // 11 handles were in the queue during the detection pump.
  const auto& costs = rts.costs();
  EXPECT_GE(rts.processor(1).busyTotal(),
            11 * costs.poll_per_handle_us + costs.callback_overhead_us - 1e-9);
}

TEST(CkDirectIb, PutReadsSourceAtDelivery) {
  // Zero-copy, as on the HCA: the RDMA write reads the sender's registered
  // buffer when it lands, not when it was posted. The API contract forbids
  // touching the buffer before the receiver's callback; this test breaks
  // the contract on purpose to observe which bytes the wire carried.
  charm::Runtime rts(harness::abeMachine(2, 1));
  Channel ch(rts, 0, 1, 8192);  // 64 KB: in flight for tens of us
  std::fill(ch.send.begin(), ch.send.end(), 1.0);
  bool rewrittenInFlight = false;
  rts.seed([&] {
    put(ch.handle);
    rts.engine().after(5.0, [&] {
      rewrittenInFlight =
          rts.ibVerbs().rdmaWritesPosted() == 1 && ch.arrivals == 0;
      std::fill(ch.send.begin(), ch.send.end(), 2.0);
    });
  });
  rts.run();
  EXPECT_TRUE(rewrittenInFlight);
  EXPECT_EQ(ch.arrivals, 1);
  EXPECT_DOUBLE_EQ(ch.recv.front(), 2.0);
  EXPECT_DOUBLE_EQ(ch.recv.back(), 2.0);
}

TEST(CkDirectIb, IdleScansKeepQueueOrderAndChargePerHandle) {
  // Pumps on a PE where no queued channel's data landed still pay the scan
  // for every queued handle and leave the queue as it was. Data that lands
  // later is detected in queue order, not landing order.
  charm::Runtime rts(harness::abeMachine(2, 1));
  std::vector<double> send(16, 3.0);
  std::vector<std::vector<double>> recv(3, std::vector<double>(16, 0.0));
  std::vector<int> fired;
  std::vector<Handle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(createHandle(rts, 1, recv[static_cast<std::size_t>(i)].data(),
                                   16 * 8, kOob, [&fired, i] { fired.push_back(i); }));
    assocLocal(handles.back(), 0, send.data());
  }
  const auto* mgr = dynamic_cast<IbManager*>(&Manager::of(rts));
  ASSERT_NE(mgr, nullptr);
  const auto& costs = rts.costs();

  rts.seed([&] {
    for (int k = 1; k <= 3; ++k) rts.scheduler(1).poke(static_cast<double>(k));
  });
  rts.run();
  EXPECT_EQ(rts.fabric().tagCount(sim::TraceTag::kDirectPollScan), 3u);
  EXPECT_EQ(mgr->pollQueueLength(1), 3u);
  EXPECT_TRUE(fired.empty());
  EXPECT_NEAR(rts.processor(1).busyTotal(), 3 * 3 * costs.poll_per_handle_us,
              1e-9);

  // Keep PE 1 busy while the puts for handles 2 and 0 (in that order) land,
  // so one scan sees both.
  rts.scheduler(1).enqueueSystemWork(100.0, [] {});
  put(handles[2]);
  put(handles[0]);
  rts.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(mgr->pollQueueLength(1), 1u);
  EXPECT_DOUBLE_EQ(recv[0].back(), 3.0);
  EXPECT_DOUBLE_EQ(recv[2].back(), 3.0);
}

// --- Blue Gene/P implementation --------------------------------------------------

TEST(CkDirectBgp, PutDeliversViaInfoHeader) {
  charm::Runtime rts(harness::surveyorMachine(8, 4));
  std::vector<double> send(64, 1.5), recv(64, 0.0);
  int arrivals = 0;
  Handle h = createHandle(rts, 4, recv.data(), 64 * 8, kOob,
                          [&] { ++arrivals; });
  assocLocal(h, 0, send.data());
  rts.seed([&] { put(h); });
  rts.run();
  EXPECT_EQ(arrivals, 1);
  EXPECT_DOUBLE_EQ(recv[63], 1.5);
  EXPECT_EQ(Manager::of(rts).putsIssued(), 1u);
  EXPECT_EQ(Manager::of(rts).callbacksInvoked(), 1u);
}

TEST(CkDirectBgp, ShortPutUsesShortPath) {
  charm::Runtime rts(harness::surveyorMachine(8, 4));
  std::vector<double> send(8, 2.5), recv(8, 0.0);  // 64 B < 224 B
  int arrivals = 0;
  Handle h = createHandle(rts, 4, recv.data(), 64, kOob, [&] { ++arrivals; });
  assocLocal(h, 0, send.data());
  rts.seed([&] { put(h); });
  rts.run();
  EXPECT_EQ(arrivals, 1);
  EXPECT_DOUBLE_EQ(recv[0], 2.5);
}

TEST(CkDirectBgp, ReadyCallsAreNoOps) {
  charm::Runtime rts(harness::surveyorMachine(8, 4));
  std::vector<double> send(8, 0.0), recv(8, 0.0);
  Handle h = createHandle(rts, 4, recv.data(), 64, kOob, [] {});
  assocLocal(h, 0, send.data());
  ready(h);
  readyMark(h);
  readyPollQ(h);
  EXPECT_EQ(Manager::of(rts).pollQueueLength(4), 0u);
}

TEST(CkDirectBgp, BackToBackPutsReuseRequests) {
  charm::Runtime rts(harness::surveyorMachine(8, 4));
  std::vector<double> send(32, 0.0), recv(32, 0.0);
  int arrivals = 0;
  Handle h = createHandle(rts, 4, recv.data(), 32 * 8, kOob,
                          [&] { ++arrivals; });
  assocLocal(h, 0, send.data());
  rts.seed([&] {
    send[0] = 1.0;
    put(h);
    rts.engine().after(1000.0, [&] {
      send[0] = 2.0;
      put(h);
    });
  });
  rts.run();
  EXPECT_EQ(arrivals, 2);
  EXPECT_DOUBLE_EQ(recv[0], 2.0);
}

TEST(CkDirectBgp, SimultaneousPutsOnOneChannelAbort) {
  // The one-message-in-flight constraint, enforced through DCMF request
  // reuse (§2.2).
  charm::Runtime rts(harness::surveyorMachine(8, 4));
  std::vector<double> send(1024, 0.0), recv(1024, 0.0);
  Handle h = createHandle(rts, 4, recv.data(), 1024 * 8, kOob, [] {});
  assocLocal(h, 0, send.data());
  EXPECT_DEATH(
      {
        rts.seed([&] {
          put(h);
          put(h);  // previous message still in flight
        });
        rts.run();
      },
      "in flight");
}

}  // namespace
}  // namespace ckd::direct
