// Serial-vs-parallel determinism gate for the thread-sharded engine.
//
// The windowed parallel engine's contract (sim/parallel.hpp) is that the
// shard count and thread count are pure host-side throughput knobs: every
// virtual-time observable — completion horizons, executed-event counts, RTT
// sums, payload digests, whole stencil fields, and the merged causal trace —
// is bit-identical across --shards={1,2,4,8} and across worker-thread
// counts, and matches the classic serial engine. These tests run the two
// workloads the PR's acceptance gate names — the CkDirect pingpong (here as
// four concurrent cross-node pairs so every shard boundary carries traffic)
// and the soak-style crash storm (fail-stop faults + buddy checkpoints +
// rollback) — once per configuration and compare with exact equality.
//
// Legacy-vs-windowed comparisons exclude the trace digest by construction:
// the windowed engine mints chain ids and message sequences from per-PE
// counters (partition-independent), the legacy engine from one global
// counter, so the id *values* differ even though the event streams describe
// the same execution.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "charm/runtime.hpp"
#include "ckdirect/ckdirect.hpp"
#include "fault/fault.hpp"
#include "harness/machines.hpp"
#include "harness/pgas_world.hpp"
#include "pgas/pgas.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"

namespace {

using namespace ckd;

std::uint64_t fnv(const void* data, std::size_t bytes,
                  std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kOob = 0xDEADBEEFCAFEBABEull;

/// Field-by-field digest of the trace events (the struct has padding, so
/// hashing raw bytes would fold in indeterminate garbage).
std::uint64_t traceDigest(const std::vector<sim::TraceEvent>& events) {
  std::uint64_t h = 1469598103934665603ull;
  for (const sim::TraceEvent& ev : events) {
    h = fnv(&ev.time, sizeof ev.time, h);
    h = fnv(&ev.id, sizeof ev.id, h);
    h = fnv(&ev.parent, sizeof ev.parent, h);
    h = fnv(&ev.value, sizeof ev.value, h);
    h = fnv(&ev.pe, sizeof ev.pe, h);
    h = fnv(&ev.aux, sizeof ev.aux, h);
    const auto tag = static_cast<unsigned char>(ev.tag);
    const auto phase = static_cast<unsigned char>(ev.phase);
    h = fnv(&tag, 1, h);
    h = fnv(&phase, 1, h);
  }
  return h;
}

struct PingResult {
  double totalRtt = 0.0;
  double horizon = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t trace = 0;

  bool operator==(const PingResult&) const = default;
};

/// Four concurrent CkDirect pingpong pairs (i, i+4) on an 8-node Abe
/// machine, one PE per node: at 8 shards every put crosses a shard boundary,
/// at 2 shards every pair straddles the one boundary there is.
PingResult runPingpong(int shards, int threads, std::size_t bytes,
                       int iters) {
  charm::MachineConfig machine = harness::abeMachine(8, 1);
  machine.shards = shards;
  machine.shardThreads = threads;
  charm::Runtime rts(machine);
  rts.enableTracing();

  constexpr int kPairs = 4;
  struct Pair {
    std::vector<std::byte> sendA, recvA, sendB, recvB;
    direct::Handle ab, ba;
    int remaining = 0;
    sim::Time sentAt = 0.0;
    double totalRtt = 0.0;
    std::uint64_t digest = 1469598103934665603ull;
  };
  std::vector<std::shared_ptr<Pair>> pairs;
  for (int i = 0; i < kPairs; ++i) {
    auto p = std::make_shared<Pair>();
    const int peA = i;
    const int peB = i + kPairs;
    p->sendA.assign(bytes, std::byte{static_cast<unsigned char>(0x11 + i)});
    p->recvA.assign(bytes, std::byte{0});
    p->sendB.assign(bytes, std::byte{static_cast<unsigned char>(0x22 + i)});
    p->recvB.assign(bytes, std::byte{0});
    p->remaining = iters;
    p->ab = direct::createHandle(
        rts, peB, p->recvB.data(), bytes, kOob, [p]() {
          p->digest = fnv(p->recvB.data(), p->recvB.size(), p->digest);
          direct::ready(p->ab);
          direct::put(p->ba);
        });
    p->ba = direct::createHandle(
        rts, peA, p->recvA.data(), bytes, kOob, [p, peA, &rts]() {
          p->digest = fnv(p->recvA.data(), p->recvA.size(), p->digest);
          p->totalRtt += rts.scheduler(peA).currentTime() - p->sentAt;
          direct::ready(p->ba);
          if (--p->remaining > 0) {
            p->sentAt = rts.scheduler(peA).currentTime();
            direct::put(p->ab);
          }
        });
    direct::assocLocal(p->ab, peA, p->sendA.data());
    direct::assocLocal(p->ba, peB, p->sendB.data());
    pairs.push_back(std::move(p));
  }

  rts.seed([&pairs]() {
    for (const auto& p : pairs) {
      p->sentAt = 0.0;
      direct::put(p->ab);
    }
  });
  rts.run();

  PingResult result;
  result.horizon = rts.now();
  result.events = rts.executedEvents();
  result.trace = traceDigest(rts.traceEvents());
  // Fold per-pair observables in pair order (callback order within a pair is
  // deterministic; across pairs it is not a defined observable).
  for (const auto& p : pairs) {
    result.totalRtt += p->totalRtt;
    result.digest = fnv(&p->digest, sizeof p->digest, result.digest);
  }
  return result;
}

struct StencilResult {
  double horizon = 0.0;
  std::uint64_t events = 0;
  std::uint64_t trace = 0;
  std::vector<double> field;

  bool operator==(const StencilResult&) const = default;
};

/// CkDirect stencil on a 4-node T3 machine, optionally under a seeded
/// crash-storm fault plan, optionally windowed. `withTrace` arms the event
/// ring (legacy comparisons leave it off: different id minting).
StencilResult runStencil(int shards, int threads, int iters,
                         const std::string& faultSpec, std::uint64_t faultSeed,
                         double checkpointPeriod, bool withTrace = true) {
  charm::MachineConfig machine = harness::t3Machine(8, 2);
  machine.shards = shards;
  machine.shardThreads = threads;
  if (!faultSpec.empty()) {
    machine.faults = fault::parseFaultSpec(faultSpec);
    machine.faultSeed = faultSeed;
    if (checkpointPeriod > 0.0) machine.checkpointPeriod_us = checkpointPeriod;
  }
  charm::Runtime rts(machine);
  if (withTrace) rts.enableTracing();
  apps::stencil::Config cfg;
  cfg.gx = 32;
  cfg.gy = 32;
  cfg.gz = 16;
  cfg.cx = cfg.cy = cfg.cz = 2;
  cfg.iterations = iters;
  cfg.mode = apps::stencil::Mode::kCkDirect;
  cfg.real_compute = true;
  apps::stencil::StencilApp app(rts, cfg);
  app.execute();

  StencilResult result;
  result.horizon = rts.now();
  result.events = rts.executedEvents();
  if (withTrace) result.trace = traceDigest(rts.traceEvents());
  result.field = app.gatherField();
  return result;
}

// ---------------------------------------------------------------------------
// Raw ParallelEngine semantics.

TEST(ParallelEngine, WindowedRunMatchesEventCountAndHorizon) {
  sim::ParallelEngine::Config cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.lookahead = 1.0;
  sim::ParallelEngine par(cfg, std::vector<int>{0, 0, 1, 1});
  int fired = 0;
  for (int pe = 0; pe < 4; ++pe)
    par.atLocal(pe, 1.0 + pe, [&fired] { ++fired; });
  par.atSerial(10.0, [&fired] { ++fired; });
  par.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(par.executedEvents(), 5u);
  EXPECT_DOUBLE_EQ(par.horizon(), 10.0);
  EXPECT_GT(par.windows(), 0u);
}

// Regression: between two run() calls (the stencil's execute() runs the
// engine once per restart epoch) shard clocks could sit above the serial
// clock, and the window ceiling above the horizon — host code seeding fresh
// work at the horizon then tripped the engines' monotonicity checks. The
// quiescent exit must pin every clock to the common horizon.
TEST(ParallelEngine, SupportsSeedingFreshWorkBetweenRuns) {
  sim::ParallelEngine::Config cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  cfg.lookahead = 1.0;
  sim::ParallelEngine par(cfg, std::vector<int>{0, 0, 1, 1});
  int fired = 0;
  par.atLocal(0, 5.0, [&fired, &par] {
    // Shard 0 races ahead of shard 1 (which quiesces at 2.0).
    par.shardEngine(0).after(0.25, [&fired] { ++fired; });
    ++fired;
  });
  par.atLocal(2, 2.0, [&fired] { ++fired; });
  par.run();
  EXPECT_EQ(fired, 3);
  const double h = par.horizon();
  EXPECT_DOUBLE_EQ(h, 5.25);
  EXPECT_DOUBLE_EQ(par.serialEngine().now(), h);
  EXPECT_DOUBLE_EQ(par.shardEngine(0).now(), h);
  EXPECT_DOUBLE_EQ(par.shardEngine(1).now(), h);

  // Seeding at the horizon (what Runtime::seed does between stencil runs)
  // must be legal on every shard and on the serial engine.
  par.atLocal(3, h, [&fired] { ++fired; });
  par.atSerial(h, [&fired] { ++fired; });
  par.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(par.executedEvents(), 5u);
}

// ---------------------------------------------------------------------------
// Window-edge semantics: mid-window drains and drain-point ties.
//
// A relay storm over the raw ParallelEngine: every PE runs several chains
// that hop around a ring, each hop exactly at or above the lookahead so
// arrivals repeatedly land exactly ON window ceilings and drain points. The
// per-destination observation sequence (folded in PE order) must be
// bit-identical whether events arrive via a mid-window drain (stride 1),
// a mid-stride drain, or only at the barrier (huge stride), and across
// shard and thread counts: the JIT inbox admits arrivals by virtual-time
// order alone, so WHERE an event was drained is unobservable.

struct RelayResult {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double horizon = 0.0;

  bool operator==(const RelayResult&) const = default;
};

struct RelayState {
  sim::ParallelEngine* par = nullptr;
  std::vector<std::uint64_t> digests;  ///< per destination PE, PE-local
  int pes = 0;
};

void relayHop(const std::shared_ptr<RelayState>& st, int pe, int chain,
              int hops, double when) {
  std::uint64_t& d = st->digests[static_cast<std::size_t>(pe)];
  d = fnv(&when, sizeof when, d);
  d = fnv(&chain, sizeof chain, d);
  d = fnv(&hops, sizeof hops, d);
  if (hops == 0) return;
  // Deltas >= the 1.0 lookahead; the exact-1.0 entries make arrivals land
  // exactly on the next window ceiling (the admit-vs-defer tie).
  constexpr double kDeltas[] = {1.0, 1.25, 1.0, 1.75, 2.0, 1.5};
  const int dst = (pe + 1 + (chain % 2)) % st->pes;
  const double next = when + kDeltas[(chain + hops) % 6];
  st->par->atRemote(dst, pe, next, [st, dst, chain, hops, next] {
    relayHop(st, dst, chain, hops - 1, next);
  });
}

RelayResult runRelay(int shards, int threads, std::uint64_t drainStride) {
  constexpr int kPes = 8;
  constexpr int kChains = 5;
  constexpr int kHops = 24;
  sim::ParallelEngine::Config cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead = 1.0;
  cfg.drainStride = drainStride;
  std::vector<int> map(kPes);
  for (int pe = 0; pe < kPes; ++pe) map[pe] = pe * shards / kPes;
  sim::ParallelEngine par(cfg, std::move(map));
  auto st = std::make_shared<RelayState>();
  st->par = &par;
  st->digests.assign(kPes, 1469598103934665603ull);
  st->pes = kPes;
  for (int pe = 0; pe < kPes; ++pe) {
    for (int chain = 0; chain < kChains; ++chain) {
      // Identical start instants across PEs: cross-PE ties from the very
      // first window.
      const double start = 1.0 + 0.5 * (chain % 3);
      par.atLocal(pe, start, [st, pe, chain, start] {
        relayHop(st, pe, chain, kHops, start);
      });
    }
  }
  par.run();
  RelayResult r;
  r.events = par.executedEvents();
  r.horizon = par.horizon();
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t d : st->digests) h = fnv(&d, sizeof d, h);
  r.digest = h;
  return r;
}

TEST(WindowEdgeDeterminism, MidWindowDrainMatchesBarrierOnlyDrain) {
  const RelayResult base =
      runRelay(/*shards=*/4, /*threads=*/1, /*drainStride=*/1);
  EXPECT_GT(base.events, 0u);
  // Barrier-only (stride larger than any window's event count) and a
  // mid-stride drain must observe the identical execution.
  const std::uint64_t kBarrierOnly = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(base, runRelay(4, 1, kBarrierOnly));
  EXPECT_EQ(base, runRelay(4, 1, 3));
  EXPECT_EQ(base, runRelay(4, 2, 1));
}

TEST(WindowEdgeDeterminism, DrainPointTiesAreShardCountInvariant) {
  const RelayResult base =
      runRelay(/*shards=*/1, /*threads=*/1, /*drainStride=*/256);
  EXPECT_GT(base.events, 0u);
  // One shard with a mid-window drain after every event: the baseline's
  // inbox path with its drain points moved.
  EXPECT_EQ(base, runRelay(1, 1, 1));
  for (const int shards : {2, 4, 8}) {
    EXPECT_EQ(base, runRelay(shards, 1, 1)) << "shards=" << shards;
    EXPECT_EQ(base, runRelay(shards, 1, 256)) << "shards=" << shards;
    EXPECT_EQ(base, runRelay(shards, 2, 256)) << "shards=" << shards;
  }
}

// 64k-PE smoke: the engine's tables (per-PE mint counters, push sequences,
// shard map) and the inbox/admission path at a partition three orders of
// magnitude wider than the other gates. Sparse work keeps it fast: one
// event per PE plus a cross-machine forward from every 512th PE.
TEST(WindowEdgeDeterminism, HugeMachineSmokeDigestIsShardInvariant) {
  static constexpr int kPes = 65536;
  const auto run = [](int shards, int threads) {
    sim::ParallelEngine::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.lookahead = 1.0;
    std::vector<int> map(kPes);
    for (int pe = 0; pe < kPes; ++pe)
      map[pe] = static_cast<int>(
          static_cast<std::int64_t>(pe) * shards / kPes);
    sim::ParallelEngine par(cfg, std::move(map));
    auto digests =
        std::make_shared<std::vector<std::uint64_t>>(kPes,
                                                     1469598103934665603ull);
    auto* parPtr = &par;
    for (int pe = 0; pe < kPes; ++pe) {
      const double start = 0.25 + 0.25 * (pe % 17);
      par.atLocal(pe, start, [digests, parPtr, pe, start] {
        (*digests)[static_cast<std::size_t>(pe)] =
            fnv(&start, sizeof start, (*digests)[static_cast<std::size_t>(pe)]);
        if (pe % 512 != 0) return;
        const int dst = (pe + kPes / 2) % kPes;
        const double when = start + 1.0;
        parPtr->atRemote(dst, pe, when, [digests, dst, when] {
          (*digests)[static_cast<std::size_t>(dst)] =
              fnv(&when, sizeof when,
                  (*digests)[static_cast<std::size_t>(dst)]);
        });
      });
    }
    par.run();
    std::uint64_t h = fnv(&kPes, sizeof kPes);
    for (const std::uint64_t d : *digests) h = fnv(&d, sizeof d, h);
    const std::uint64_t events = par.executedEvents();
    h = fnv(&events, sizeof events, h);
    return h;
  };
  const std::uint64_t serial = run(/*shards=*/1, /*threads=*/1);
  EXPECT_EQ(serial, run(/*shards=*/8, /*threads=*/1));
  EXPECT_EQ(serial, run(/*shards=*/8, /*threads=*/2));
}

// ---------------------------------------------------------------------------
// Pingpong gate.

TEST(ParallelDeterminism, PingpongIsShardCountInvariant) {
  const PingResult one = runPingpong(/*shards=*/1, /*threads=*/1, 4096, 40);
  EXPECT_GT(one.totalRtt, 0.0);
  EXPECT_GT(one.events, 0u);
  for (const int shards : {2, 4, 8}) {
    const PingResult s = runPingpong(shards, /*threads=*/1, 4096, 40);
    EXPECT_EQ(one, s) << "shards=" << shards;
  }
}

TEST(ParallelDeterminism, PingpongIsThreadCountInvariant) {
  // Same partition, different host parallelism: 1 worker (inline sequential
  // windows) vs 2 and 4 OS threads through the barrier pool. This is the
  // configuration TSan runs.
  const PingResult inline1 = runPingpong(/*shards=*/4, /*threads=*/1, 4096, 40);
  const PingResult pool2 = runPingpong(/*shards=*/4, /*threads=*/2, 4096, 40);
  const PingResult pool4 = runPingpong(/*shards=*/4, /*threads=*/4, 4096, 40);
  EXPECT_EQ(inline1, pool2);
  EXPECT_EQ(inline1, pool4);
}

TEST(ParallelDeterminism, WindowedPingpongMatchesLegacyEngine) {
  const PingResult legacy = runPingpong(/*shards=*/0, /*threads=*/0, 4096, 40);
  const PingResult windowed = runPingpong(/*shards=*/1, /*threads=*/1, 4096, 40);
  // Everything except the trace digest (different id minting, see header).
  EXPECT_EQ(legacy.totalRtt, windowed.totalRtt);
  EXPECT_EQ(legacy.horizon, windowed.horizon);
  EXPECT_EQ(legacy.digest, windowed.digest);
  EXPECT_EQ(legacy.events, windowed.events);
}

// ---------------------------------------------------------------------------
// Crash-storm gate (the soak workload: fail-stop faults, buddy checkpoints,
// epoch-guarded restart, all under the windowed engine).

TEST(ParallelDeterminism, CrashStormIsShardCountInvariant) {
  // Place two fail-stop crashes relative to the fault-free horizon, exactly
  // like bench/soak_faults.cpp does.
  const StencilResult clean =
      runStencil(/*shards=*/1, /*threads=*/1, 12, "", 0, -1.0);
  ASSERT_GT(clean.horizon, 0.0);
  const std::string spec =
      "pe_crash@" + std::to_string(0.70 * clean.horizon) + ",pe_crash@" +
      std::to_string(0.90 * clean.horizon);
  const double ckptPeriod = clean.horizon / 10.0;

  const StencilResult one =
      runStencil(/*shards=*/1, /*threads=*/1, 12, spec, 1, ckptPeriod);
  ASSERT_FALSE(one.field.empty());
  // The crash run recovered to the fault-free field, and did more work.
  EXPECT_EQ(one.field, clean.field);
  EXPECT_GT(one.horizon, clean.horizon);

  for (const int shards : {2, 4}) {  // 4 nodes: 4 shards is fully split
    const StencilResult s =
        runStencil(shards, /*threads=*/1, 12, spec, 1, ckptPeriod);
    EXPECT_EQ(one, s) << "shards=" << shards;
  }
  // The soak configuration CI exercises: 4 shards on 2 worker threads.
  const StencilResult soak =
      runStencil(/*shards=*/4, /*threads=*/2, 12, spec, 1, ckptPeriod);
  EXPECT_EQ(one.horizon, soak.horizon);
  EXPECT_EQ(one.events, soak.events);
  EXPECT_EQ(one.trace, soak.trace);
  EXPECT_EQ(one.field, soak.field);
}

// ---------------------------------------------------------------------------
// PGAS atomic-storm gate: every PE hammers remote fetch-add/compare-swap at
// shared cells and streams puts at its ring neighbor through the PGAS
// runtime, then fences and enters the team barrier. The RMWs execute at the
// target in the fabric's canonical delivery order, so the final segment
// images, the op counters, the horizon, and the merged causal trace must be
// bit-identical across shard and worker-thread counts.

struct PgasStormResult {
  double horizon = 0.0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  std::uint64_t counters = 0;
  std::uint64_t trace = 0;

  bool operator==(const PgasStormResult&) const = default;
};

PgasStormResult runPgasStorm(int shards, int threads) {
  charm::MachineConfig machine = harness::abeMachine(8, 1);
  machine.shards = shards;
  machine.shardThreads = threads;
  constexpr std::size_t kSeg = 32 * 1024;
  harness::PgasWorld world(machine, pgas::dartIbCosts(), kSeg);
  world.runtime().enableTracing();
  pgas::Pgas& pg = world.pgas();
  const pgas::Gptr cells = pg.alloc(8 * 8);
  const pgas::Gptr block = pg.alloc(512);
  const pgas::Gptr src = pg.alloc(512);
  const int n = world.numPes();
  for (int p = 0; p < n; ++p) {
    auto* s = static_cast<std::byte*>(pg.addr(p, src));
    for (std::size_t i = 0; i < 512; ++i)
      s[i] = std::byte(static_cast<unsigned char>(p * 31 + i));
  }
  for (int p = 0; p < n; ++p) {
    world.seedOn(p, [&pg, p, n, cells, block, src]() {
      for (int k = 0; k < 6; ++k) {
        pg.fetchAdd(p, 0, cells.at(8 * static_cast<std::size_t>(k % 8)),
                    p + 1);
        if (k % 2 == 0) pg.compareSwap(p, (p + 1) % n, cells.at(8), k, k + p);
        pg.put(p, (p + 1) % n, block, pg.addr(p, src), 512);
      }
      pg.fence(p, [&pg, p]() { pg.barrier(p, [] {}); });
    });
  }
  world.run();

  PgasStormResult r;
  r.horizon = world.runtime().now();
  r.events = world.runtime().executedEvents();
  std::uint64_t h = 1469598103934665603ull;
  for (int p = 0; p < n; ++p) h = fnv(pg.addr(p, pgas::Gptr{0, kSeg}), kSeg, h);
  r.segments = h;
  const net::Fabric& fabric = world.fabric();
  const std::uint64_t counts[] = {
      fabric.tagCount(sim::TraceTag::kPgasPut),
      fabric.tagCount(sim::TraceTag::kPgasGet),
      fabric.tagCount(sim::TraceTag::kPgasAtomic),
      pg.bytesPut(),
      pg.failedOps(),
      pg.barriersCompleted()};
  r.counters = fnv(counts, sizeof counts);
  r.trace = traceDigest(world.runtime().traceEvents());
  return r;
}

TEST(PgasParallelDeterminism, AtomicStormIsShardCountInvariant) {
  const PgasStormResult one = runPgasStorm(/*shards=*/1, /*threads=*/1);
  EXPECT_GT(one.events, 0u);
  for (const int shards : {2, 4}) {
    const PgasStormResult s = runPgasStorm(shards, /*threads=*/1);
    EXPECT_EQ(one, s) << "shards=" << shards;
  }
}

TEST(PgasParallelDeterminism, AtomicStormIsThreadCountInvariant) {
  const PgasStormResult inline1 = runPgasStorm(/*shards=*/4, /*threads=*/1);
  const PgasStormResult pool2 = runPgasStorm(/*shards=*/4, /*threads=*/2);
  EXPECT_EQ(inline1, pool2);
}

TEST(ParallelDeterminism, WindowedStencilMatchesLegacyEngine) {
  // Fault-free only: under faults the windowed engine defers checkpoint
  // work to serial boundaries (extra engine events at slightly different
  // instants than legacy's inline calls), so the faulted timelines are each
  // internally deterministic but not mutually comparable. The crash-storm
  // gate is the shard-count invariance test above.
  const StencilResult legacy = runStencil(/*shards=*/0, /*threads=*/0, 12, "",
                                          0, -1.0, /*withTrace=*/false);
  const StencilResult windowed = runStencil(/*shards=*/1, /*threads=*/1, 12,
                                            "", 0, -1.0, /*withTrace=*/false);
  ASSERT_GT(legacy.horizon, 0.0);
  EXPECT_EQ(legacy.horizon, windowed.horizon);
  EXPECT_EQ(legacy.events, windowed.events);
  EXPECT_EQ(legacy.field, windowed.field);
}

}  // namespace
