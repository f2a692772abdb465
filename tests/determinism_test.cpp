// Determinism A/B: buffer pooling must never change virtual-time results.
//
// The pool's contract (util/pool.hpp) is that recycling changes host-side
// allocation behavior only — same seeds produce byte-identical simulation
// results with pools on or off. These tests run the two workloads the PR's
// acceptance gate names — the table1-style CkDirect pingpong and the
// soak-style crash storm (fail-stop faults + wire storm + rollback) — once
// with pools enabled and once disabled, and compare every virtual-time
// observable with exact equality: completion horizons, RTT sums, payload
// digests, whole stencil fields, and executed-event counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
#include "sim/causal.hpp"
#include "sim/trace.hpp"
#include "util/pool.hpp"

namespace {

using namespace ckd;

/// Flip the pool for one run and restore it afterwards, trimming cached
/// blocks at both edges so runs never see each other's free lists.
class PoolsGuard {
 public:
  explicit PoolsGuard(bool on) : was_(util::BufferPool::instance().enabled()) {
    util::BufferPool::instance().trim();
    util::BufferPool::instance().setEnabled(on);
  }
  ~PoolsGuard() {
    util::BufferPool::instance().setEnabled(was_);
    util::BufferPool::instance().trim();
  }

 private:
  bool was_;
};

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

/// Field-by-field digest of the retained span events (the struct has
/// padding, so hashing the raw bytes would fold in indeterminate garbage).
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
  // Causal-trace observables: the full event stream (ids, parents, times)
  // and the derived critical path must also be bit-identical.
  std::uint64_t trace = 0;
  std::uint64_t chains = 0;
  std::uint64_t pathHops = 0;
  double pathSpan = 0.0;

  bool operator==(const PingResult&) const = default;
};

/// CkDirect pingpong as table1_pingpong_ib drives it, with every received
/// payload folded into a digest (same scheme as the fault soak).
PingResult runPingpong(bool pools, std::size_t bytes, int iters) {
  PoolsGuard guard(pools);
  charm::Runtime rts(harness::abeMachine(2, 1));
  rts.engine().trace().enable();

  struct State {
    std::vector<std::byte> sendA, recvA, sendB, recvB;
    direct::Handle ab, ba;
    int remaining = 0;
    sim::Time sentAt = 0.0;
    double totalRtt = 0.0;
    std::uint64_t digest = 1469598103934665603ull;
  };
  auto st = std::make_shared<State>();
  st->sendA.assign(bytes, std::byte{0x11});
  st->recvA.assign(bytes, std::byte{0});
  st->sendB.assign(bytes, std::byte{0x22});
  st->recvB.assign(bytes, std::byte{0});
  st->remaining = iters;

  st->ab = direct::createHandle(rts, 1, st->recvB.data(), bytes, kOob, [st]() {
    st->digest = fnv(st->recvB.data(), st->recvB.size(), st->digest);
    direct::ready(st->ab);
    direct::put(st->ba);
  });
  st->ba = direct::createHandle(
      rts, 0, st->recvA.data(), bytes, kOob, [st, &rts]() {
        st->digest = fnv(st->recvA.data(), st->recvA.size(), st->digest);
        st->totalRtt += rts.scheduler(0).currentTime() - st->sentAt;
        direct::ready(st->ba);
        if (--st->remaining > 0) {
          st->sentAt = rts.scheduler(0).currentTime();
          direct::put(st->ab);
        }
      });
  direct::assocLocal(st->ab, 0, st->sendA.data());
  direct::assocLocal(st->ba, 1, st->sendB.data());

  rts.seed([st]() {
    st->sentAt = 0.0;
    direct::put(st->ab);
  });
  rts.run();

  PingResult result;
  result.totalRtt = st->totalRtt;
  result.horizon = rts.now();
  result.digest = st->digest;
  result.events = rts.engine().executedEvents();
  const std::vector<sim::TraceEvent> events = rts.engine().trace().snapshot();
  result.trace = traceDigest(events);
  const sim::CausalGraph graph(events);
  result.chains = graph.chains().size();
  result.pathHops = graph.criticalPathHops();
  result.pathSpan = graph.criticalPathSpan();
  return result;
}

struct StencilResult {
  double horizon = 0.0;
  std::uint64_t events = 0;
  std::vector<double> field;

  bool operator==(const StencilResult&) const = default;
};

/// CkDirect stencil, optionally under a seeded fault plan (crash storm).
StencilResult runStencil(bool pools, int iters, const std::string& faultSpec,
                         std::uint64_t faultSeed, double checkpointPeriod) {
  PoolsGuard guard(pools);
  charm::MachineConfig machine = harness::t3Machine(8, 4);
  if (!faultSpec.empty()) {
    machine.faults = fault::parseFaultSpec(faultSpec);
    machine.faultSeed = faultSeed;
    if (checkpointPeriod > 0.0) machine.checkpointPeriod_us = checkpointPeriod;
  }
  charm::Runtime rts(machine);
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
  result.events = rts.engine().executedEvents();
  result.field = app.gatherField();
  return result;
}

// PGAS atomic storm on the serial engine: every PE hammers remote
// fetch-add/compare-swap at shared cells and streams puts at its ring
// neighbor, then fences and enters the team barrier. The RMWs serialize at
// the target in the fabric's canonical delivery order, so reruns — with
// pools on or off — must reproduce the segment images, counters, horizon,
// and trace stream to the bit.

struct PgasStormResult {
  double horizon = 0.0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  std::uint64_t counters = 0;
  std::uint64_t trace = 0;

  bool operator==(const PgasStormResult&) const = default;
};

PgasStormResult runPgasStorm(bool pools) {
  PoolsGuard guard(pools);
  const charm::MachineConfig machine = harness::abeMachine(8, 1);
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

TEST(PgasDeterminism, AtomicStormIsByteIdenticalAcrossRerunsAndPools) {
  const PgasStormResult first = runPgasStorm(/*pools=*/true);
  const PgasStormResult rerun = runPgasStorm(/*pools=*/true);
  const PgasStormResult noPool = runPgasStorm(/*pools=*/false);
  EXPECT_GT(first.events, 0u);
  EXPECT_EQ(first, rerun);
  EXPECT_EQ(first, noPool);
}

TEST(PoolDeterminism, PingpongIsByteIdenticalWithPoolsOff) {
  const PingResult on = runPingpong(/*pools=*/true, 4096, 60);
  const PingResult off = runPingpong(/*pools=*/false, 4096, 60);
  EXPECT_EQ(on, off);
  EXPECT_GT(on.totalRtt, 0.0);
  EXPECT_GT(on.events, 0u);
  // The doubles must match to the bit, not merely within a tolerance.
  EXPECT_EQ(std::memcmp(&on.totalRtt, &off.totalRtt, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&on.horizon, &off.horizon, sizeof(double)), 0);
}

TEST(TraceDeterminism, ChainIdsAndCriticalPathAreBitIdentical) {
  // The causal tracer's contract: trace ids are minted from a deterministic
  // counter, never an address or RNG draw, so the whole span stream — and
  // everything derived from it — is bit-identical across reruns and across
  // CKD_POOLS on/off.
  const PingResult first = runPingpong(/*pools=*/true, 4096, 40);
  const PingResult rerun = runPingpong(/*pools=*/true, 4096, 40);
  const PingResult noPool = runPingpong(/*pools=*/false, 4096, 40);

  EXPECT_GT(first.chains, 0u);
  EXPECT_EQ(first.chains, first.pathHops);  // pingpong is one serial path
  EXPECT_GT(first.pathSpan, 0.0);

  EXPECT_EQ(first.trace, rerun.trace);
  EXPECT_EQ(first.trace, noPool.trace);
  EXPECT_EQ(first.chains, noPool.chains);
  EXPECT_EQ(first.pathHops, noPool.pathHops);
  // Bitwise, not within-tolerance.
  EXPECT_EQ(std::memcmp(&first.pathSpan, &rerun.pathSpan, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&first.pathSpan, &noPool.pathSpan, sizeof(double)), 0);
}

TEST(PoolDeterminism, CrashStormIsByteIdenticalWithPoolsOff) {
  // Place two fail-stop crashes relative to the fault-free horizon, exactly
  // like bench/soak_faults.cpp does, then A/B the faulted run.
  const StencilResult clean = runStencil(/*pools=*/true, 12, "", 0, -1.0);
  ASSERT_GT(clean.horizon, 0.0);
  const std::string spec =
      "pe_crash@" + std::to_string(0.70 * clean.horizon) + ",pe_crash@" +
      std::to_string(0.90 * clean.horizon);
  const double ckptPeriod = clean.horizon / 10.0;

  const StencilResult on = runStencil(/*pools=*/true, 12, spec, 1, ckptPeriod);
  const StencilResult off =
      runStencil(/*pools=*/false, 12, spec, 1, ckptPeriod);
  EXPECT_EQ(on, off);
  ASSERT_FALSE(on.field.empty());
  // The recovered field also matches the fault-free run (no divergence).
  EXPECT_EQ(on.field, clean.field);
  // The crash run really did more work than the clean run.
  EXPECT_GT(on.horizon, clean.horizon);
}

}  // namespace
