// Property-based tests: randomized and parameterized invariants across the
// stack — payload integrity through every transport path, exactly-once
// delivery, reduction algebra, conservation of work, and the in-order
// guarantee CkDirect's sentinel depends on.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "charm/maps.hpp"
#include "charm/marshal.hpp"
#include "charm/proxy.hpp"
#include "charm/runtime.hpp"
#include "ckdirect/ckdirect.hpp"
#include "harness/machines.hpp"
#include "mpi/mini_mpi.hpp"
#include "topo/fat_tree.hpp"
#include "util/rng.hpp"

namespace ckd {
namespace {

constexpr std::uint64_t kOob = 0xFFF8000000001234ull;

charm::MachineConfig machineFor(bool bgp, int pes, int ppn) {
  // Keep node counts valid: PEs must divide into nodes (and be a power of
  // two for the torus); fall back to one PE per node.
  if (pes % ppn != 0) ppn = 1;
  if (bgp && ((pes / ppn) & (pes / ppn - 1)) != 0) ppn = 1;
  return bgp ? harness::surveyorMachine(pes, ppn)
             : harness::abeMachine(pes, ppn);
}

// --- CkDirect payload integrity across sizes and machines ---------------------

class CkDirectIntegrity
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(CkDirectIntegrity, RandomPayloadArrivesByteExact) {
  const bool bgp = std::get<0>(GetParam());
  const std::size_t doubles = std::get<1>(GetParam());
  charm::Runtime rts(machineFor(bgp, 2, 1));
  util::Rng rng(doubles * 7 + (bgp ? 1 : 0));

  std::vector<double> send(doubles), recv(doubles, 0.0);
  for (auto& v : send) v = rng.uniform(-1e6, 1e6);
  int arrivals = 0;
  direct::Handle h =
      direct::createHandle(rts, 1, recv.data(), doubles * sizeof(double),
                           kOob, [&] { ++arrivals; });
  direct::assocLocal(h, 0, send.data());
  rts.seed([&] { direct::put(h); });
  rts.run();
  ASSERT_EQ(arrivals, 1);
  EXPECT_EQ(send, recv);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndMachines, CkDirectIntegrity,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 7, 27, 28, 64, 1000, 8192)));

// --- many channels, interleaved puts: exactly-once callbacks -------------------

class CkDirectFleet : public ::testing::TestWithParam<bool> {};

TEST_P(CkDirectFleet, EveryPutExactlyOneCallback) {
  const bool bgp = GetParam();
  const int pes = 8;
  charm::Runtime rts(machineFor(bgp, pes, bgp ? 4 : 2));
  util::Rng rng(99);

  struct Chan {
    std::vector<double> send, recv;
    direct::Handle handle;
    int arrivals = 0;
    int puts = 0;
  };
  const int channels = 40;
  const int rounds = 5;
  std::vector<std::unique_ptr<Chan>> chans;
  for (int c = 0; c < channels; ++c) {
    auto ch = std::make_unique<Chan>();
    const std::size_t n = 8 + rng.below(256);
    ch->send.assign(n, 0.0);
    ch->recv.assign(n, 0.0);
    const int to = static_cast<int>(rng.below(pes));
    int from = static_cast<int>(rng.below(pes));
    if (from == to) from = (to + 1) % pes;
    Chan* raw = ch.get();
    ch->handle = direct::createHandle(
        rts, to, ch->recv.data(), n * sizeof(double), kOob, [raw] {
          ++raw->arrivals;
          // Consume + re-arm; the next round's put is gated on this.
          direct::ready(raw->handle);
        });
    direct::assocLocal(ch->handle, from, ch->send.data());
    chans.push_back(std::move(ch));
  }

  // Drive each channel with `rounds` puts, spaced far enough apart that the
  // previous put has always been consumed (the app-level synchronization
  // CkDirect requires).
  for (int r = 0; r < rounds; ++r) {
    rts.engine().at(r * 5000.0, [&, r] {
      for (auto& ch : chans) {
        ch->send[0] = r + 1;
        ch->send.back() = r + 1;
        ++ch->puts;
        direct::put(ch->handle);
      }
    });
  }
  rts.run();
  for (const auto& ch : chans) {
    EXPECT_EQ(ch->arrivals, ch->puts);
    EXPECT_DOUBLE_EQ(ch->recv[0], rounds);
  }
  EXPECT_EQ(direct::Manager::of(rts).callbacksInvoked(),
            static_cast<std::uint64_t>(channels * rounds));
}

INSTANTIATE_TEST_SUITE_P(BothMachines, CkDirectFleet, ::testing::Bool());

// --- runtime delivery: every send arrives exactly once --------------------------

class Sink final : public charm::Chare {
 public:
  std::map<std::int64_t, int> seen;  // payload tag -> count
  void take(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    ++seen[up.get<std::int64_t>()];
  }
};

class DeliveryFuzz : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(DeliveryFuzz, RandomSendsAllDeliveredOnce) {
  const bool bgp = std::get<0>(GetParam());
  const int pes = std::get<1>(GetParam());
  charm::Runtime rts(machineFor(bgp, pes, bgp ? 4 : 2));
  const std::int64_t elems = pes * 3;
  auto proxy = charm::makeArray<Sink>(
      rts, "sink", elems, charm::blockMap(elems, pes),
      [](std::int64_t) { return std::make_unique<Sink>(); });
  const charm::EntryId ep = proxy.registerEntry("take", &Sink::take);

  util::Rng rng(static_cast<std::uint64_t>(pes) * 31 + bgp);
  const int sends = 200;
  std::vector<std::int64_t> target(sends);
  for (int i = 0; i < sends; ++i)
    target[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(elems)));

  rts.seed([&] {
    for (int i = 0; i < sends; ++i) {
      charm::Packer pk;
      pk.put<std::int64_t>(i);
      proxy[target[static_cast<std::size_t>(i)]].send(ep, std::move(pk));
    }
  });
  rts.run();

  int total = 0;
  for (std::int64_t e = 0; e < elems; ++e) {
    for (const auto& [tag, count] : proxy[e].local().seen) {
      EXPECT_EQ(count, 1) << "tag " << tag << " delivered " << count;
      EXPECT_EQ(target[static_cast<std::size_t>(tag)], e);
      ++total;
    }
  }
  EXPECT_EQ(total, sends);
}

INSTANTIATE_TEST_SUITE_P(MachinesAndSizes, DeliveryFuzz,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(2, 4, 16)));

// --- reductions: algebra over random contributions ------------------------------

class Reducer final : public charm::Chare {
 public:
  std::vector<double> result;
  void done(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    result = up.getVector<double>();
  }
};

class ReductionFuzz
    : public ::testing::TestWithParam<std::tuple<int, int, charm::ReduceOp>> {};

TEST_P(ReductionFuzz, MatchesLocalFold) {
  const int pes = std::get<0>(GetParam());
  const int elems = std::get<1>(GetParam());
  const charm::ReduceOp op = std::get<2>(GetParam());
  charm::Runtime rts(machineFor(false, pes, 2));
  auto proxy = charm::makeArray<Reducer>(
      rts, "red", elems, charm::roundRobinMap(pes),
      [](std::int64_t) { return std::make_unique<Reducer>(); });
  const charm::EntryId ep = proxy.registerEntry("done", &Reducer::done);

  util::Rng rng(static_cast<std::uint64_t>(pes * 1000 + elems));
  std::vector<std::array<double, 3>> contribs(
      static_cast<std::size_t>(elems));
  for (auto& c : contribs)
    for (auto& v : c) v = rng.uniform(-100.0, 100.0);

  rts.seed([&] {
    for (std::int64_t i = 0; i < elems; ++i)
      rts.contribute(proxy.id(), i, contribs[static_cast<std::size_t>(i)], op,
                     ep);
  });
  rts.run();

  std::array<double, 3> expected = contribs[0];
  for (std::size_t i = 1; i < contribs.size(); ++i)
    for (int d = 0; d < 3; ++d) {
      switch (op) {
        case charm::ReduceOp::kSum: expected[d] += contribs[i][d]; break;
        case charm::ReduceOp::kMin:
          expected[d] = std::min(expected[d], contribs[i][d]);
          break;
        case charm::ReduceOp::kMax:
          expected[d] = std::max(expected[d], contribs[i][d]);
          break;
        default: break;
      }
    }
  for (std::int64_t e = 0; e < elems; ++e) {
    const auto& got = proxy[e].local().result;
    ASSERT_EQ(got.size(), 3u);
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(got[static_cast<std::size_t>(d)], expected[d], 1e-9)
          << "element " << e << " dim " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReductionFuzz,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(1, 7, 64),
                       ::testing::Values(charm::ReduceOp::kSum,
                                         charm::ReduceOp::kMin,
                                         charm::ReduceOp::kMax)));

// --- mini-MPI matching fuzz ------------------------------------------------------

TEST(MpiFuzz, RandomTagsAllMatchInOrder) {
  sim::Engine engine;
  auto topo = std::make_shared<topo::FatTree>(4, 1);
  net::Fabric fabric(engine, topo, net::abeParams());
  mpi::MiniMpi mp(fabric, mpi::mvapichCosts());
  util::Rng rng(2024);

  struct Slot {
    int payload = 0;
    int received = -1;
  };
  const int messages = 120;
  std::vector<Slot> slots(static_cast<std::size_t>(messages));
  std::vector<int> payloads(static_cast<std::size_t>(messages));
  int completed = 0;
  for (int i = 0; i < messages; ++i) {
    const int tag = static_cast<int>(rng.below(5));
    const int src = static_cast<int>(rng.below(4));
    int dst = static_cast<int>(rng.below(4));
    if (dst == src) dst = (src + 1) % 4;
    payloads[static_cast<std::size_t>(i)] = i * 31;
    Slot* slot = &slots[static_cast<std::size_t>(i)];
    // Posting order alternates recv-first / send-first randomly.
    auto postRecv = [&, slot, dst, src, tag] {
      mp.irecv(dst, src, tag, &slot->received, sizeof(int),
               [&completed](const mpi::MiniMpi::RecvResult&) { ++completed; });
    };
    auto postSend = [&, i, src, dst, tag] {
      mp.isend(src, dst, tag, &payloads[static_cast<std::size_t>(i)],
               sizeof(int));
    };
    if (rng.chance(0.5)) {
      postRecv();
      postSend();
    } else {
      postSend();
      postRecv();
    }
    engine.run();  // drain between pairs so matching is unambiguous
    EXPECT_EQ(slot->received, payloads[static_cast<std::size_t>(i)])
        << "message " << i;
  }
  EXPECT_EQ(completed, messages);
}

// --- conservation: processor busy time equals the sum of charges ------------------

TEST(Conservation, ProcessorTimeMatchesDeliveredWork) {
  charm::Runtime rts(harness::abeMachine(4, 2));
  const std::int64_t elems = 8;
  auto proxy = charm::makeArray<Sink>(
      rts, "sink", elems, charm::blockMap(elems, 4),
      [](std::int64_t) { return std::make_unique<Sink>(); });
  const charm::EntryId ep = proxy.registerEntry("take", &Sink::take);
  const int sends = 50;
  rts.seed([&] {
    for (int i = 0; i < sends; ++i) {
      charm::Packer pk;
      pk.put<std::int64_t>(i);
      proxy[i % elems].send(ep, std::move(pk));
    }
  });
  rts.run();
  // Every message is charged recv + sched at its destination; the seed-time
  // sends charge nothing (outside a handler). Total busy must match.
  double busy = 0;
  std::uint64_t processed = 0;
  for (int pe = 0; pe < 4; ++pe) {
    busy += rts.processor(pe).busyTotal();
    processed += rts.scheduler(pe).messagesProcessed();
  }
  const auto& costs = rts.costs();
  EXPECT_EQ(processed, static_cast<std::uint64_t>(sends));
  EXPECT_NEAR(busy,
              sends * (costs.recv_overhead_us + costs.sched_overhead_us),
              1e-6);
}

// --- in-order placement property (why RC ordering matters) -----------------------

TEST(OrderingProperty, BackToBackPutsNeverTearUnderRc) {
  // Two consecutive puts on one channel (with app-level ready in between):
  // the receiver must never observe a mix of both payloads at callback time.
  charm::Runtime rts(harness::abeMachine(2, 1));
  const std::size_t n = 512;
  std::vector<double> send(n, 0.0), recv(n, 0.0);
  int arrivals = 0;
  bool torn = false;
  direct::Handle h = direct::createHandle(
      rts, 1, recv.data(), n * sizeof(double), kOob, [&] {
        ++arrivals;
        for (std::size_t i = 1; i < n; ++i)
          if (recv[i] != recv[0]) torn = true;
        direct::ready(h);
      });
  direct::assocLocal(h, 0, send.data());
  for (int r = 1; r <= 4; ++r) {
    rts.engine().at(r * 1000.0, [&, r] {
      send.assign(n, static_cast<double>(r));
      direct::put(h);
    });
  }
  rts.run();
  EXPECT_EQ(arrivals, 4);
  EXPECT_FALSE(torn);
}

// --- engine clock: monotonic under any stop/runUntil/resume interleaving ---------

TEST(EngineProperty, ClockMonotonicAcrossStopAndResume) {
  // Randomized schedules mixing runUntil() deadlines with stop() calls fired
  // from inside events. Two invariants: now() never decreases at any
  // observation point, and every event fires exactly at its scheduled time.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    sim::Engine eng;
    double lastSeen = 0.0;
    auto observe = [&] {
      EXPECT_GE(eng.now(), lastSeen) << "seed " << seed;
      lastSeen = eng.now();
    };
    std::size_t fired = 0;
    const int events = 60;
    for (int i = 0; i < events; ++i) {
      const double when = static_cast<double>(rng.below(1000));
      eng.at(when, [&, when] {
        EXPECT_DOUBLE_EQ(eng.now(), when);
        observe();
        ++fired;
        if (rng.chance(0.2)) eng.stop();
      });
    }
    while (eng.pendingEvents() > 0) {
      if (rng.chance(0.5)) {
        eng.runUntil(eng.now() + static_cast<double>(rng.below(400)));
      } else {
        eng.run();
      }
      observe();
    }
    EXPECT_EQ(fired, static_cast<std::size_t>(events));
  }
}

}  // namespace
}  // namespace ckd
