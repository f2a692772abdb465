#include "harness/pingpong.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "charm/maps.hpp"
#include "charm/proxy.hpp"
#include "ckdirect/ckdirect.hpp"
#include "harness/pgas_world.hpp"
#include "mpi/mini_mpi.hpp"
#include "util/require.hpp"

namespace ckd::harness {

namespace {

constexpr std::uint64_t kOob = 0xDEADBEEFCAFEBABEull;

void setupTrace(sim::Engine& engine, const PingpongConfig& cfg) {
  if (!cfg.trace) return;
  engine.trace().setCapacity(cfg.traceCapacity);
  engine.trace().enable();
}

/// Entry-method pingpong over default Charm++ messages. Element 0 lives on
/// peA, element 1 on peB; the reported time is what the application itself
/// would measure: from just before the send call to entry of the reply
/// handler (which includes scheduling overhead, as in the paper).
class PingPongChare final : public charm::Chare {
 public:
  charm::ArrayProxy<PingPongChare> proxy;
  charm::EntryId epPing = -1;
  int iterations = 0;

  int remaining = 0;
  sim::Time sentAt = 0.0;
  double totalRtt = 0.0;
  std::vector<std::byte> payload;

  void start(charm::Message&) {
    remaining = iterations;
    sendPing();
  }

  void sendPing() {
    sentAt = now();
    proxy[1].send(epPing, std::span<const std::byte>(payload));
  }

  void ping(charm::Message& msg) {
    if (thisIndex() == 1) {
      // Echo straight back.
      proxy[0].send(epPing, msg.payload());
      return;
    }
    totalRtt += now() - sentAt;
    if (--remaining > 0) sendPing();
  }
};

}  // namespace

double charmPingpongRtt(const charm::MachineConfig& machine,
                        const PingpongConfig& cfg) {
  CKD_REQUIRE(cfg.iterations > 0, "pingpong needs iterations");
  charm::Runtime rts(machine);
  setupTrace(rts.engine(), cfg);
  auto proxy = charm::makeArray<PingPongChare>(
      rts, "pingpong", 2,
      [&cfg](std::int64_t i) { return i == 0 ? cfg.peA : cfg.peB; },
      [](std::int64_t) { return std::make_unique<PingPongChare>(); });
  const charm::EntryId epStart =
      proxy.registerEntry("start", &PingPongChare::start);
  const charm::EntryId epPing =
      proxy.registerEntry("ping", &PingPongChare::ping);
  for (std::int64_t i = 0; i < 2; ++i) {
    PingPongChare& el = proxy[i].local();
    el.proxy = proxy;
    el.epPing = epPing;
    el.iterations = cfg.iterations;
    el.payload.assign(cfg.bytes, std::byte{0});
  }
  rts.seed([proxy, epStart]() { proxy[0].send(epStart); });
  rts.run();
  if (cfg.profile) *cfg.profile = captureProfile(rts);
  return proxy[0].local().totalRtt / cfg.iterations;
}

double ckdirectPingpongRtt(const charm::MachineConfig& machine,
                           const PingpongConfig& cfg) {
  CKD_REQUIRE(cfg.iterations > 0, "pingpong needs iterations");
  CKD_REQUIRE(cfg.bytes >= 8, "CkDirect payloads carry the 8-byte sentinel");
  charm::Runtime rts(machine);
  setupTrace(rts.engine(), cfg);

  struct State {
    std::vector<std::byte> sendA, recvA, sendB, recvB;
    direct::Handle ab, ba;
    int remaining = 0;
    sim::Time sentAt = 0.0;
    double totalRtt = 0.0;
  };
  auto st = std::make_shared<State>();
  st->sendA.assign(cfg.bytes, std::byte{1});
  st->recvA.assign(cfg.bytes, std::byte{0});
  st->sendB.assign(cfg.bytes, std::byte{2});
  st->recvB.assign(cfg.bytes, std::byte{0});
  st->remaining = cfg.iterations;

  // Channel A->B: receiver (peB) creates the handle; sender associates.
  st->ab = direct::createHandle(rts, cfg.peB, st->recvB.data(), cfg.bytes,
                                kOob, [st]() {
                                  // Runs on peB when the put has landed.
                                  direct::ready(st->ab);
                                  direct::put(st->ba);
                                });
  st->ba = direct::createHandle(
      rts, cfg.peA, st->recvA.data(), cfg.bytes, kOob, [st, &rts, cfg]() {
        // Runs on peA: one round trip complete.
        st->totalRtt +=
            rts.scheduler(cfg.peA).currentTime() - st->sentAt;
        direct::ready(st->ba);
        if (--st->remaining > 0) {
          st->sentAt = rts.scheduler(cfg.peA).currentTime();
          direct::put(st->ab);
        }
      });
  direct::assocLocal(st->ab, cfg.peA, st->sendA.data());
  direct::assocLocal(st->ba, cfg.peB, st->sendB.data());

  rts.seed([st]() {
    st->sentAt = 0.0;
    direct::put(st->ab);
  });
  rts.run();
  if (cfg.profile) *cfg.profile = captureProfile(rts);
  return st->totalRtt / cfg.iterations;
}

namespace {

double mpiPingpongImpl(const charm::MachineConfig& machine,
                       const mpi::MpiCosts& flavor, const PingpongConfig& cfg,
                       bool rdmaChannel) {
  CKD_REQUIRE(cfg.iterations > 0, "pingpong needs iterations");
  charm::Runtime rts(machine);
  setupTrace(rts.engine(), cfg);
  // Mini-MPI rides the raw fabric (no reliability layer): armed drop faults
  // model an unreliable transport and may stall the run (see README).
  mpi::MiniMpi mp(rts.fabric(), flavor);
  if (rdmaChannel) mp.enableRdmaChannel();

  std::vector<std::byte> bufA(cfg.bytes, std::byte{0});
  std::vector<std::byte> bufB(cfg.bytes, std::byte{0});
  int remaining = cfg.iterations;
  double total = 0.0;
  sim::Time sentAt = 0.0;

  std::function<void()> iterate = [&]() {
    sentAt = rts.engine().now();
    mp.irecv(cfg.peA, cfg.peB, /*tag=*/0, bufA.data(), cfg.bytes,
             [&](const mpi::MiniMpi::RecvResult&) {
               total += rts.engine().now() - sentAt;
               if (--remaining > 0) iterate();
             });
    mp.irecv(cfg.peB, cfg.peA, /*tag=*/0, bufB.data(), cfg.bytes,
             [&](const mpi::MiniMpi::RecvResult&) {
               mp.isend(cfg.peB, cfg.peA, /*tag=*/0, bufB.data(), cfg.bytes);
             });
    mp.isend(cfg.peA, cfg.peB, /*tag=*/0, bufA.data(), cfg.bytes);
  };
  rts.seed([&]() { iterate(); });
  rts.run();
  if (cfg.profile) *cfg.profile = captureProfile(rts);
  return total / cfg.iterations;
}

}  // namespace

double mpiPingpongRtt(const charm::MachineConfig& machine,
                      const mpi::MpiCosts& flavor, const PingpongConfig& cfg) {
  return mpiPingpongImpl(machine, flavor, cfg, /*rdmaChannel=*/false);
}

double mpiRdmaPingpongRtt(const charm::MachineConfig& machine,
                          const mpi::MpiCosts& flavor,
                          const PingpongConfig& cfg) {
  return mpiPingpongImpl(machine, flavor, cfg, /*rdmaChannel=*/true);
}

double mpiPutPingpongRtt(const charm::MachineConfig& machine,
                         const mpi::MpiCosts& flavor,
                         const PingpongConfig& cfg) {
  CKD_REQUIRE(cfg.iterations > 0, "pingpong needs iterations");
  charm::Runtime rts(machine);
  setupTrace(rts.engine(), cfg);
  mpi::MiniMpi mp(rts.fabric(), flavor);

  std::vector<std::byte> winBufA(cfg.bytes, std::byte{0});
  std::vector<std::byte> winBufB(cfg.bytes, std::byte{0});
  std::vector<std::byte> srcA(cfg.bytes, std::byte{1});
  std::vector<std::byte> srcB(cfg.bytes, std::byte{2});
  const mpi::MiniMpi::WinId winA =
      mp.createWindow(cfg.peA, winBufA.data(), cfg.bytes);
  const mpi::MiniMpi::WinId winB =
      mp.createWindow(cfg.peB, winBufB.data(), cfg.bytes);

  int remaining = cfg.iterations;
  int repliesLeft = cfg.iterations;
  double total = 0.0;
  sim::Time sentAt = 0.0;

  // B's side: expose winB, and on each completed exposure put the reply.
  std::function<void()> armB = [&]() {
    mp.winPost(winB, {cfg.peA});
    mp.winWait(winB, [&]() {
      mp.winStart(winA, cfg.peB, [&]() {
        mp.put(winA, cfg.peB, 0, srcB.data(), cfg.bytes);
        mp.winComplete(winA, cfg.peB);
        if (--repliesLeft > 0) armB();
      });
    });
  };

  // A's side: expose winA for the reply, access winB for the request.
  std::function<void()> iterA = [&]() {
    sentAt = rts.engine().now();
    mp.winPost(winA, {cfg.peB});
    mp.winWait(winA, [&]() {
      total += rts.engine().now() - sentAt;
      if (--remaining > 0) iterA();
    });
    mp.winStart(winB, cfg.peA, [&]() {
      mp.put(winB, cfg.peA, 0, srcA.data(), cfg.bytes);
      mp.winComplete(winB, cfg.peA);
    });
  };

  rts.seed([&]() {
    armB();
    iterA();
  });
  rts.run();
  if (cfg.profile) *cfg.profile = captureProfile(rts);
  return total / cfg.iterations;
}

double pgasPingpongRtt(const charm::MachineConfig& machine,
                       const pgas::PgasCosts& costs,
                       const PingpongConfig& cfg) {
  CKD_REQUIRE(cfg.iterations > 0, "pingpong needs iterations");
  PgasWorld world(machine, costs, std::max<std::size_t>(4096, 4 * cfg.bytes));
  charm::Runtime& rts = world.runtime();
  setupTrace(rts.engine(), cfg);
  pgas::Pgas& pg = world.pgas();
  // Everything lives in the symmetric heap: no registration-cache traffic.
  const pgas::Gptr slot = pg.alloc(cfg.bytes);  // landing buffer, every PE
  const pgas::Gptr src = pg.alloc(cfg.bytes);   // source buffer, every PE
  std::memset(pg.addr(cfg.peA, src), 1, cfg.bytes);
  std::memset(pg.addr(cfg.peB, src), 2, cfg.bytes);

  int remaining = cfg.iterations;
  double total = 0.0;
  sim::Time sentAt = 0.0;

  std::function<void()> iterate = [&]() {
    sentAt = rts.engine().now();
    pg.putSignal(cfg.peA, cfg.peB, slot, pg.addr(cfg.peA, src), cfg.bytes,
                 [&]() {
                   // Signal watcher on peB: echo straight back.
                   pg.putSignal(cfg.peB, cfg.peA, slot, pg.addr(cfg.peB, src),
                                cfg.bytes, [&]() {
                                  total += rts.engine().now() - sentAt;
                                  if (--remaining > 0) iterate();
                                });
                 });
  };
  world.seedOn(cfg.peA, [&]() { iterate(); });
  world.run();
  if (cfg.profile) *cfg.profile = captureProfile(rts);
  return total / cfg.iterations;
}

double pgasBlockingPutLatency(const charm::MachineConfig& machine,
                              const pgas::PgasCosts& costs,
                              const PingpongConfig& cfg) {
  CKD_REQUIRE(cfg.iterations > 0, "pingpong needs iterations");
  PgasWorld world(machine, costs, std::max<std::size_t>(4096, 4 * cfg.bytes));
  charm::Runtime& rts = world.runtime();
  setupTrace(rts.engine(), cfg);
  pgas::Pgas& pg = world.pgas();
  const pgas::Gptr slot = pg.alloc(cfg.bytes);
  const pgas::Gptr src = pg.alloc(cfg.bytes);
  std::memset(pg.addr(cfg.peA, src), 1, cfg.bytes);

  int remaining = cfg.iterations;
  double total = 0.0;
  sim::Time sentAt = 0.0;

  std::function<void()> iterate = [&]() {
    sentAt = rts.engine().now();
    pg.putBlocking(cfg.peA, cfg.peB, slot, pg.addr(cfg.peA, src), cfg.bytes,
                   [&]() {
                     total += rts.engine().now() - sentAt;
                     if (--remaining > 0) iterate();
                   });
  };
  world.seedOn(cfg.peA, [&]() { iterate(); });
  world.run();
  if (cfg.profile) *cfg.profile = captureProfile(rts);
  return total / cfg.iterations;
}

}  // namespace ckd::harness
