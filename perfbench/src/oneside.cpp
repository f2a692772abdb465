// oneside: two-PE pingpong chains through every one-sided design under a
// seeded wire-fault plan (drop, corrupt, duplicate) that the reliability
// layers must absorb:
//   ckd_ib   CkDirect on InfiniBand (verbs RDMA write + sentinel poll)
//   ckd_bgp  CkDirect on Blue Gene/P (DCMF send into the channel buffer)
//   pgas     PGAS put-with-signal over the DART-style runtime
//   mpi      mini-MPI over the Liu et al. RDMA channel with the reliable link
// A round trip is one operation. It fails when either leg delivers bytes
// other than those sent, when a completion fires more or fewer times than
// once per leg, or when an error completion surfaces; a case also fails
// whole when an MPI connection leaks a persistent-slot credit.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ckdirect/ckdirect.hpp"
#include "fault/fault.hpp"
#include "harness/machines.hpp"
#include "harness/pgas_world.hpp"
#include "ib/verbs.hpp"
#include "mpi/mini_mpi.hpp"
#include "net/cost_params.hpp"
#include "spans.hpp"
#include "topo/fat_tree.hpp"

namespace perfbench {

namespace {

using namespace ckd;

constexpr std::uint64_t kOob = 0xDEADBEEFCAFEBABEull;

struct Case {
  std::string design;
  std::size_t bytes = 0;
  int rounds = 0;
  std::uint64_t faultSeed = 0;
};

struct OnesideInput {
  std::string faults;
  std::vector<Case> cases;
};

OnesideInput loadOneside(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open oneside input " + path);
  OnesideInput s;
  std::string key;
  std::size_t count = 0;
  in >> key >> s.faults >> key >> count;
  if (!in) throw std::runtime_error("malformed oneside input header");
  for (std::size_t i = 0; i < count; ++i) {
    Case c;
    in >> c.design >> c.bytes >> c.rounds >> c.faultSeed;
    if (!in || c.bytes < 16 || c.bytes > (4u << 20) || c.rounds <= 0 ||
        (c.design != "ckd_ib" && c.design != "ckd_bgp" && c.design != "pgas" &&
         c.design != "mpi"))
      throw std::runtime_error("malformed oneside case line");
    s.cases.push_back(c);
  }
  return s;
}

/// Bookkeeping of one pingpong chain. The origin's source bytes are the
/// case pattern with the round number stamped into the first and last 8
/// bytes (never the CkDirect out-of-band sentinel).
struct Chain {
  int rounds = 0;
  int expectRounds = 0;
  int done = 0;
  int arrivedA = 0;
  int arrivedB = 0;
  bool roundBad = false;
  std::uint64_t badRounds = 0;
  std::uint64_t errors = 0;
  bool leaked = false;
  sim::Time finishedAt = 0.0;
  std::vector<std::byte> pattern;

  Chain(const Case& c, std::size_t index, bool wrongExpected)
      : rounds(c.rounds), expectRounds(c.rounds + (wrongExpected ? 1 : 0)),
        pattern(c.bytes) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull ^ (index * 0x100000001B3ull);
    for (std::byte& b : pattern) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::byte>(x & 0xffu);
    }
  }

  void stamp(std::byte* buf) const {
    const auto s = static_cast<std::uint64_t>(done) + 1;
    std::memcpy(buf, &s, sizeof(s));
    std::memcpy(buf + pattern.size() - sizeof(s), &s, sizeof(s));
  }
  void check(const std::byte* got, const std::byte* sent) {
    if (std::memcmp(got, sent, pattern.size()) != 0) roundBad = true;
  }
  /// One leg-A completion closes a round trip.
  void closeRound(sim::Time now) {
    if (roundBad) ++badRounds;
    roundBad = false;
    ++done;
    finishedAt = now;
  }

  void finish(Rep& rep) const {
    const auto n = static_cast<std::uint64_t>(rounds);
    std::uint64_t failed = badRounds + errors;
    failed += static_cast<std::uint64_t>(
        done < expectRounds ? expectRounds - done : done - expectRounds);
    // Each leg completes exactly once per round trip.
    failed += static_cast<std::uint64_t>(std::abs(arrivedA - done)) +
              static_cast<std::uint64_t>(std::abs(arrivedB - done));
    if (leaked) failed = n;
    rep.attempted += n;
    rep.failed += std::min(failed, n);
    rep.digest = fold(rep.digest, finishedAt);
    rep.digest = fold(rep.digest, done);
  }
};

void ckdirectCase(const Case& c, bool bgp, const fault::FaultPlan& plan,
                  std::uint64_t seed, Chain& ch, Rep& rep) {
  const PoolMark pools;
  const Mark start;
  const std::size_t n = c.bytes;
  std::optional<charm::Runtime> rts;
  std::vector<std::byte> sendA(ch.pattern), recvA(n), sendB(n), recvB(n);
  direct::Handle ab, ba;
  {
    Span span(SpanName::kSetup);
    charm::MachineConfig machine =
        bgp ? harness::surveyorMachine(2, 1) : harness::abeMachine(2, 1);
    machine.faults = plan;
    machine.faultSeed = seed;
    rts.emplace(std::move(machine));
    ab = direct::createHandle(*rts, 1, recvB.data(), n, kOob, [&]() {
      Span handler(SpanName::kHandler);
      ++ch.arrivedB;
      ch.check(recvB.data(), sendA.data());
      // Echo before re-arming: ready() rewrites the buffer's sentinel bytes.
      std::memcpy(sendB.data(), recvB.data(), n);
      direct::ready(ab);
      Span put(SpanName::kDirectPut);
      direct::put(ba);
    });
    ba = direct::createHandle(*rts, 0, recvA.data(), n, kOob, [&]() {
      Span handler(SpanName::kHandler);
      ++ch.arrivedA;
      ch.check(recvA.data(), sendA.data());
      direct::ready(ba);
      ch.closeRound(rts->scheduler(0).currentTime());
      if (ch.done >= ch.rounds) return;
      ch.stamp(sendA.data());
      Span put(SpanName::kDirectPut);
      direct::put(ab);
    });
    direct::assocLocal(ab, 0, sendA.data());
    direct::assocLocal(ba, 1, sendB.data());
    const auto onError = [&ch](fault::WcStatus) { ++ch.errors; };
    direct::setErrorCallback(ab, onError);
    direct::setErrorCallback(ba, onError);
  }
  rts->seed([&]() {
    Span handler(SpanName::kHandler);
    ch.stamp(sendA.data());
    Span put(SpanName::kDirectPut);
    direct::put(ab);
  });
  const Mark runStart;
  {
    Span span(SpanName::kRun);
    rts->run();
  }
  rep.charge(start, runStart);
  countRuntime(rep, *rts);
  countPools(rep, pools);
}

void pgasCase(const Case& c, const fault::FaultPlan& plan, std::uint64_t seed,
              Chain& ch, Rep& rep) {
  const PoolMark pools;
  const Mark start;
  const std::size_t n = c.bytes;
  std::optional<harness::PgasWorld> world;
  pgas::Gptr landA, landB, src;
  {
    Span span(SpanName::kSetup);
    charm::MachineConfig machine = harness::abeMachine(2, 1);
    machine.faults = plan;
    machine.faultSeed = seed;
    world.emplace(machine, pgas::dartIbCosts(), 3 * n + 4096);
    landA = world->pgas().alloc(n);
    landB = world->pgas().alloc(n);
    src = world->pgas().alloc(n);
    std::memcpy(world->pgas().addr(0, src), ch.pattern.data(), n);
  }
  pgas::Pgas& pg = world->pgas();
  auto* source = static_cast<std::byte*>(pg.addr(0, src));
  std::function<void()> issue, onB, onA;
  issue = [&]() {
    ch.stamp(source);
    Span span(SpanName::kPgasIssue);
    pg.putSignal(0, 1, landB, source, n, onB);
  };
  onB = [&]() {
    Span handler(SpanName::kHandler);
    ++ch.arrivedB;
    const auto* got = static_cast<const std::byte*>(pg.addr(1, landB));
    ch.check(got, source);
    Span span(SpanName::kPgasIssue);
    pg.putSignal(1, 0, landA, got, n, onA);
  };
  onA = [&]() {
    Span handler(SpanName::kHandler);
    ++ch.arrivedA;
    ch.check(static_cast<const std::byte*>(pg.addr(0, landA)), source);
    ch.closeRound(world->fabric().engine().now());
    if (ch.done < ch.rounds) issue();
  };
  world->seedOn(0, [&]() {
    Span handler(SpanName::kHandler);
    issue();
  });
  const Mark runStart;
  {
    Span span(SpanName::kRun);
    world->run();
  }
  rep.charge(start, runStart);
  ch.errors += pg.failedOps();
  countEngines(rep, {&world->fabric().engine()});
  rep.count("net.fabric_msgs",
            static_cast<double>(world->fabric().messagesSubmitted()));
  rep.count("net.fabric_bytes",
            static_cast<double>(world->fabric().bytesSubmitted()));
  rep.count("ib.rdma_writes",
            static_cast<double>(world->verbs().rdmaWritesPosted()));
  countPools(rep, pools);
}

void mpiCase(const Case& c, const fault::FaultPlan& plan, std::uint64_t seed,
             Chain& ch, Rep& rep) {
  const PoolMark pools;
  const Mark start;
  const std::size_t n = c.bytes;
  std::optional<sim::Engine> engine;
  std::optional<net::Fabric> fabric;
  std::optional<mpi::MiniMpi> mp;
  std::vector<std::byte> send(ch.pattern), echo(n), back(n);
  {
    Span span(SpanName::kSetup);
    engine.emplace();
    fabric.emplace(*engine, std::make_shared<topo::FatTree>(2, 1),
                   net::abeParams());
    fabric->installFaults(plan, seed);
    mp.emplace(*fabric, mpi::mvapichCosts());
    mp->enableRdmaChannel();
    mp->armReliability(plan.rel);
  }
  std::function<void()> issue;
  mpi::MiniMpi::RecvCallback onB, onA;
  issue = [&]() {
    const int tag = ch.done;
    ch.stamp(send.data());
    Span span(SpanName::kMpiIssue);
    mp->irecv(1, 0, tag, echo.data(), n, onB);
    mp->irecv(0, 1, tag, back.data(), n, onA);
    mp->isend(0, 1, tag, send.data(), n);
  };
  onB = [&](const mpi::MiniMpi::RecvResult& res) {
    Span handler(SpanName::kHandler);
    ++ch.arrivedB;
    if (res.bytes != n) ch.roundBad = true;
    ch.check(echo.data(), send.data());
    Span span(SpanName::kMpiIssue);
    mp->isend(1, 0, res.tag, echo.data(), n);
  };
  onA = [&](const mpi::MiniMpi::RecvResult& res) {
    Span handler(SpanName::kHandler);
    ++ch.arrivedA;
    if (res.bytes != n) ch.roundBad = true;
    ch.check(back.data(), send.data());
    ch.closeRound(engine->now());
    if (ch.done < ch.rounds) issue();
  };
  engine->at(0.0, [&]() {
    Span handler(SpanName::kHandler);
    issue();
  });
  const Mark runStart;
  {
    Span span(SpanName::kRun);
    engine->run();
  }
  rep.charge(start, runStart);
  const int ring = mp->costs().rdma_credits;
  for (const auto& [a, b] : {std::pair<int, int>{0, 1}, {1, 0}})
    if (mp->sendCredits(a, b) + mp->owedCredits(a, b) != ring)
      ch.leaked = true;
  countEngines(rep, {&*engine});
  rep.count("net.fabric_msgs", static_cast<double>(fabric->messagesSubmitted()));
  rep.count("net.fabric_bytes", static_cast<double>(fabric->bytesSubmitted()));
  countPools(rep, pools);
}

}  // namespace

Rep runOneside(const Options& opt) {
  static const OnesideInput in = loadOneside(opt.input);
  static const fault::FaultPlan plan = fault::parseFaultSpec(in.faults);
  Rep rep;
  for (std::size_t i = 0; i < in.cases.size(); ++i) {
    const Case& c = in.cases[i];
    Chain ch(c, i, opt.wrongExpected);
    if (c.design == "ckd_ib" || c.design == "ckd_bgp")
      ckdirectCase(c, c.design == "ckd_bgp", plan, c.faultSeed, ch, rep);
    else if (c.design == "pgas")
      pgasCase(c, plan, c.faultSeed, ch, rep);
    else
      mpiCase(c, plan, c.faultSeed, ch, rep);
    ch.finish(rep);
  }
  return rep;
}

}  // namespace perfbench
