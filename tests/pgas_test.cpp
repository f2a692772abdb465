// Tests for the PGAS runtime: symmetric-heap translation, the DART-style
// local/remote completion split, remote atomics serialized at the target,
// fence/flush ordering, the team barrier, crash rebinding through
// reestablish(), and the causal-trace chains every op carries.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "ib/verbs.hpp"
#include "net/cost_params.hpp"
#include "net/fabric.hpp"
#include "pgas/pgas.hpp"
#include "sim/causal.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "topo/fat_tree.hpp"

namespace ckd::pgas {
namespace {

constexpr std::size_t kSegBytes = 64 * 1024;

class PgasTest : public ::testing::Test {
 protected:
  PgasTest()
      : topo_(std::make_shared<topo::FatTree>(4, 1)),
        fabric_(engine_, topo_, net::abeParams()),
        verbs_(fabric_),
        pg_(verbs_, dartIbCosts(), kSegBytes) {}

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
  ib::IbVerbs verbs_;
  Pgas pg_;
};

// --- symmetric heap ------------------------------------------------------------

TEST_F(PgasTest, AllocHandsOutOneOffsetValidOnEveryPe) {
  const Gptr a = pg_.alloc(128);
  const Gptr b = pg_.alloc(64);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_GE(b.offset, a.offset + 128);
  // Translation is a base add: distinct per-PE bases, identical layout.
  std::set<const void*> bases;
  for (int p = 0; p < pg_.numPes(); ++p) {
    bases.insert(pg_.addr(p, a));
    const auto* pa = static_cast<const std::byte*>(pg_.addr(p, a));
    const auto* pb = static_cast<const std::byte*>(pg_.addr(p, b));
    EXPECT_EQ(static_cast<std::size_t>(pb - pa), b.offset - a.offset);
  }
  EXPECT_EQ(bases.size(), static_cast<std::size_t>(pg_.numPes()));
}

TEST_F(PgasTest, AllocRespectsAlignment) {
  pg_.alloc(1);
  const Gptr g = pg_.alloc(8, 64);
  EXPECT_EQ(g.offset % 64, 0u);
  const Gptr sub = g.at(4);
  EXPECT_EQ(sub.offset, g.offset + 4);
  EXPECT_EQ(sub.bytes, 4u);
}

TEST_F(PgasTest, AllocAbortsWhenSegmentExhausted) {
  EXPECT_DEATH(pg_.alloc(kSegBytes + 1), "exhausted");
}

TEST_F(PgasTest, PutPastAllocationAborts) {
  const Gptr g = pg_.alloc(64);
  std::vector<std::byte> src(128, std::byte{1});
  EXPECT_DEATH(pg_.put(0, 1, g, src.data(), 128), "past the target");
}

// --- put / get -----------------------------------------------------------------

TEST_F(PgasTest, PutBlockingDeliversThePayload) {
  const Gptr g = pg_.alloc(256);
  std::vector<std::byte> src(256);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::byte(static_cast<unsigned char>(i * 7));
  double doneAt = -1.0;
  engine_.at(0.0, [&] {
    pg_.putBlocking(0, 2, g, src.data(), src.size(),
                    [&] { doneAt = engine_.now(); });
  });
  engine_.run();
  EXPECT_GT(doneAt, 0.0);
  EXPECT_EQ(std::memcmp(pg_.addr(2, g), src.data(), src.size()), 0);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kPgasPut), 1u);
  EXPECT_EQ(pg_.bytesPut(), src.size());
}

TEST_F(PgasTest, HandleSplitsLocalAndRemoteCompletion) {
  const Gptr dst = pg_.alloc(16 * 1024);
  const Gptr src = pg_.alloc(16 * 1024);
  OpId id = kNoOp;
  double tLocal = -1.0, tRemote = -1.0;
  engine_.at(0.0, [&] {
    id = pg_.put(0, 1, dst, pg_.addr(0, src), 16 * 1024);
    EXPECT_FALSE(pg_.testLocal(id));
    EXPECT_FALSE(pg_.testRemote(id));
    pg_.waitLocal(id, [&] { tLocal = engine_.now(); });
    pg_.waitRemote(id, [&] {
      tRemote = engine_.now();
      EXPECT_TRUE(pg_.testLocal(id));
    });
  });
  engine_.run();
  // Local completion (source reusable) strictly precedes remote completion
  // (the ack round trip): DART's dart_flush_local vs dart_flush split.
  EXPECT_GT(tLocal, 0.0);
  EXPECT_GT(tRemote, tLocal);
  EXPECT_TRUE(pg_.testRemote(id));  // record reaped; unknown ids read done
}

TEST_F(PgasTest, SelfPutShortCircuits) {
  const Gptr g = pg_.alloc(64);
  std::vector<std::byte> src(64, std::byte{0x3C});
  bool done = false;
  engine_.at(0.0, [&] {
    pg_.putBlocking(1, 1, g, src.data(), src.size(), [&] { done = true; });
  });
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(pg_.addr(1, g), src.data(), src.size()), 0);
}

TEST_F(PgasTest, GetFetchesRemoteDataAndCachesTheRegistration) {
  const Gptr g = pg_.alloc(512);
  auto* remote = static_cast<std::byte*>(pg_.addr(3, g));
  for (std::size_t i = 0; i < 512; ++i)
    remote[i] = std::byte(static_cast<unsigned char>(i ^ 0x55));
  std::vector<std::byte> dst(512, std::byte{0});
  bool done = false;
  engine_.at(0.0, [&] {
    pg_.get(0, 3, g, dst.data(), dst.size(), [&] { done = true; });
  });
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(dst.data(), remote, 512), 0);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kPgasGet), 1u);
  // The landing buffer lives outside the symmetric heap: pinned once.
  EXPECT_EQ(pg_.regCacheMisses(), 1u);
  bool again = false;
  engine_.after(1.0, [&] {
    pg_.get(0, 3, g, dst.data(), dst.size(), [&] { again = true; });
  });
  engine_.run();
  EXPECT_TRUE(again);
  EXPECT_EQ(pg_.regCacheMisses(), 1u);  // second get hits the cache
}

TEST_F(PgasTest, PutSignalNotifiesTheTargetAfterDataLands) {
  const Gptr g = pg_.alloc(64);
  std::vector<std::byte> src(64, std::byte{0x5A});
  double notifyAt = -1.0;
  bool visible = false;
  engine_.at(0.0, [&] {
    pg_.putSignal(0, 1, g, src.data(), src.size(), [&] {
      notifyAt = engine_.now();
      visible = std::memcmp(pg_.addr(1, g), src.data(), src.size()) == 0;
    });
  });
  engine_.run();
  EXPECT_GT(notifyAt, 0.0);
  EXPECT_TRUE(visible);
}

// --- remote atomics ------------------------------------------------------------

TEST_F(PgasTest, FetchAddSerializesConcurrentUpdaters) {
  const Gptr cell = pg_.alloc(8);
  const std::int64_t deltas[] = {0, 1, 10, 100};
  std::vector<std::int64_t> olds;
  for (int p = 1; p < 4; ++p)
    engine_.at(0.0, [&, p] {
      pg_.fetchAdd(p, 0, cell, deltas[p],
                   [&](std::int64_t old) { olds.push_back(old); });
    });
  engine_.run();
  const auto* cellAddr = static_cast<const std::int64_t*>(pg_.addr(0, cell));
  EXPECT_EQ(*cellAddr, 111);
  ASSERT_EQ(olds.size(), 3u);
  // The RMWs executed one at a time at the target: every updater saw a
  // distinct partial sum, and one of them saw the initial zero.
  std::set<std::int64_t> distinct(olds.begin(), olds.end());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct.count(0), 1u);
  EXPECT_EQ(fabric_.tagCount(sim::TraceTag::kPgasAtomic), 3u);
}

TEST_F(PgasTest, CompareSwapAppliesOnlyOnMatch) {
  const Gptr cell = pg_.alloc(8);
  *static_cast<std::int64_t*>(pg_.addr(0, cell)) = 5;
  std::int64_t old1 = -1, old2 = -1;
  engine_.at(0.0, [&] {
    pg_.compareSwap(1, 0, cell, 5, 9, [&](std::int64_t old) {
      old1 = old;
      // Second CAS still expects 5; the cell moved on, so it must fail.
      pg_.compareSwap(1, 0, cell, 5, 7,
                      [&](std::int64_t o) { old2 = o; });
    });
  });
  engine_.run();
  EXPECT_EQ(old1, 5);
  EXPECT_EQ(old2, 9);
  EXPECT_EQ(*static_cast<const std::int64_t*>(pg_.addr(0, cell)), 9);
}

// --- fence / flush / barrier ---------------------------------------------------

TEST_F(PgasTest, FlushWaitsForEveryOpToTheTarget) {
  const Gptr g = pg_.alloc(3 * 1024);
  const Gptr src = pg_.alloc(3 * 1024);
  std::vector<OpId> ids;
  double flushedAt = -1.0;
  engine_.at(0.0, [&] {
    for (int k = 0; k < 3; ++k)
      ids.push_back(pg_.put(0, 1, g.at(1024 * static_cast<std::size_t>(k)),
                            pg_.addr(0, src), 1024));
    pg_.flush(0, 1, [&] {
      flushedAt = engine_.now();
      for (const OpId id : ids) EXPECT_TRUE(pg_.testRemote(id));
    });
  });
  engine_.run();
  EXPECT_GT(flushedAt, 0.0);
}

TEST_F(PgasTest, FlushIsPerTarget) {
  const Gptr g = pg_.alloc(16 * 1024);
  const Gptr src = pg_.alloc(16 * 1024);
  double idleAt = -1.0, busyAt = -1.0;
  engine_.at(0.0, [&] {
    pg_.put(0, 1, g, pg_.addr(0, src), 16 * 1024);
    // Nothing outstanding toward PE 2: that flush must not wait for PE 1.
    pg_.flush(0, 2, [&] { idleAt = engine_.now(); });
    pg_.flush(0, 1, [&] { busyAt = engine_.now(); });
  });
  engine_.run();
  EXPECT_GE(idleAt, 0.0);
  EXPECT_GT(busyAt, idleAt);
}

TEST_F(PgasTest, FlushLocalCompletesBeforeFlush) {
  const Gptr g = pg_.alloc(32 * 1024);
  const Gptr src = pg_.alloc(32 * 1024);
  double localAt = -1.0, remoteAt = -1.0;
  engine_.at(0.0, [&] {
    pg_.put(0, 1, g, pg_.addr(0, src), 32 * 1024);
    pg_.flushLocal(0, [&] { localAt = engine_.now(); });
    pg_.flush(0, 1, [&] { remoteAt = engine_.now(); });
  });
  engine_.run();
  EXPECT_GT(localAt, 0.0);
  EXPECT_GT(remoteAt, localAt);
}

TEST_F(PgasTest, FenceCoversEveryTarget) {
  const Gptr g = pg_.alloc(1024);
  const Gptr src = pg_.alloc(1024);
  OpId to1 = kNoOp, to2 = kNoOp;
  double fencedAt = -1.0;
  engine_.at(0.0, [&] {
    to1 = pg_.put(0, 1, g, pg_.addr(0, src), 1024);
    to2 = pg_.put(0, 2, g, pg_.addr(0, src), 1024);
    pg_.fence(0, [&] {
      fencedAt = engine_.now();
      EXPECT_TRUE(pg_.testRemote(to1));
      EXPECT_TRUE(pg_.testRemote(to2));
    });
  });
  engine_.run();
  EXPECT_GT(fencedAt, 0.0);
}

TEST_F(PgasTest, BarrierReleasesEveryPeOncePerRound) {
  int released = 0;
  for (int p = 0; p < 4; ++p)
    engine_.at(0.0, [&, p] { pg_.barrier(p, [&] { ++released; }); });
  engine_.run();
  EXPECT_EQ(released, 4);
  EXPECT_EQ(pg_.barriersCompleted(), 1u);
  for (int p = 0; p < 4; ++p)
    engine_.after(1.0, [&, p] { pg_.barrier(p, [&] { ++released; }); });
  engine_.run();
  EXPECT_EQ(released, 8);
  EXPECT_EQ(pg_.barriersCompleted(), 2u);
}

TEST_F(PgasTest, DoubleBarrierEntryAborts) {
  pg_.barrier(0, [] {});
  EXPECT_DEATH(pg_.barrier(0, [] {}), "already pending");
}

// --- fault tolerance -----------------------------------------------------------

TEST_F(PgasTest, ReestablishRedrivesInflightPutAndRebindsTheSegment) {
  const Gptr g = pg_.alloc(16 * 1024);
  const Gptr src = pg_.alloc(16 * 1024);
  auto* srcAddr = static_cast<std::byte*>(pg_.addr(0, src));
  for (std::size_t i = 0; i < 16 * 1024; ++i)
    srcAddr[i] = std::byte(static_cast<unsigned char>(i * 13));
  OpId id = kNoOp;
  bool waiterFired = false;
  engine_.at(0.0, [&] {
    id = pg_.put(0, 1, g, srcAddr, 16 * 1024);
    pg_.waitRemote(id, [&] { waiterFired = true; });
  });
  // t=2.0: past the origin-side software (1 us), before the wire delivers —
  // PE 1 suffers a transient disruption while the put is in flight.
  engine_.at(2.0, [&] {
    EXPECT_FALSE(pg_.testRemote(id));
    verbs_.invalidatePe(1);
    verbs_.flushPe(1);
    pg_.reestablish();  // the serial restore phase
    // Not failed outright anymore: the op is queued for a backed-off
    // re-drive through the repaired registration.
    EXPECT_FALSE(pg_.testRemote(id));
    EXPECT_EQ(pg_.failedOps(), 0u);
    EXPECT_EQ(pg_.opsRedriven(), 1u);
  });
  engine_.run();
  EXPECT_TRUE(waiterFired);
  EXPECT_EQ(pg_.failedOps(), 0u);  // the re-drive completed the op
  EXPECT_EQ(std::memcmp(pg_.addr(1, g), srcAddr, 16 * 1024), 0);
  // The rebuilt registration carries fresh traffic to the restored PE.
  std::vector<std::byte> fresh(64, std::byte{0x77});
  bool again = false;
  engine_.after(1.0, [&] {
    pg_.putBlocking(0, 1, g, fresh.data(), fresh.size(), [&] { again = true; });
  });
  engine_.run();
  EXPECT_TRUE(again);
  EXPECT_EQ(std::memcmp(pg_.addr(1, g), fresh.data(), fresh.size()), 0);
}

TEST_F(PgasTest, FenceAfterTransientDisruptionCompletesWithoutFailures) {
  // The satellite contract: a fence posted across a transient disruption
  // (registrations invalidated, wire flushed, reestablish() run) must
  // complete with zero failed ops — every in-flight put re-driven, not
  // dropped.
  const Gptr g = pg_.alloc(8 * 1024);
  const Gptr src = pg_.alloc(8 * 1024);
  auto* srcAddr = static_cast<std::byte*>(pg_.addr(0, src));
  for (std::size_t i = 0; i < 8 * 1024; ++i)
    srcAddr[i] = std::byte(static_cast<unsigned char>(i ^ 0xA5));
  double fencedAt = -1.0;
  engine_.at(0.0, [&] {
    pg_.put(0, 1, g, srcAddr, 8 * 1024);
    pg_.put(0, 2, g, srcAddr, 8 * 1024);
    pg_.fence(0, [&] { fencedAt = engine_.now(); });
  });
  engine_.at(2.0, [&] {
    EXPECT_LT(fencedAt, 0.0);  // both puts still in flight
    verbs_.invalidatePe(1);
    verbs_.invalidatePe(2);
    verbs_.flushPe(1);
    verbs_.flushPe(2);
    pg_.reestablish();
  });
  engine_.run();
  EXPECT_GT(fencedAt, 2.0);
  EXPECT_EQ(pg_.failedOps(), 0u);
  EXPECT_EQ(pg_.opsRedriven(), 2u);
  EXPECT_EQ(std::memcmp(pg_.addr(1, g), srcAddr, 8 * 1024), 0);
  EXPECT_EQ(std::memcmp(pg_.addr(2, g), srcAddr, 8 * 1024), 0);
}

TEST_F(PgasTest, ReestablishFailsAtomicsAndOpsOutOfRedriveBudget) {
  // Atomics never re-drive: the RMW may already have executed at the
  // target with only the reply lost, and re-applying would double-count.
  const Gptr cell = pg_.alloc(8);
  bool atomicWaiter = false;
  engine_.at(0.0, [&] {
    const OpId id = pg_.fetchAdd(0, 1, cell, 5);
    pg_.waitRemote(id, [&] { atomicWaiter = true; });
  });
  engine_.at(1.0, [&] {
    verbs_.invalidatePe(1);
    verbs_.flushPe(1);
    pg_.reestablish();
    EXPECT_EQ(pg_.failedOps(), 1u);  // failed outright, no re-drive
    EXPECT_EQ(pg_.opsRedriven(), 0u);
  });
  engine_.run();
  EXPECT_TRUE(atomicWaiter);  // waiters still fire on the failure path

  // A put whose re-drive budget (2) is exhausted by repeated disruptions
  // fails too — the backoff is bounded, not an infinite retry loop.
  const Gptr g = pg_.alloc(4 * 1024);
  const Gptr src = pg_.alloc(4 * 1024);
  bool putWaiter = false;
  engine_.after(1.0, [&] {
    const OpId id = pg_.put(0, 1, g, pg_.addr(0, src), 4 * 1024);
    pg_.waitRemote(id, [&] { putWaiter = true; });
    // Three disruptions faster than the 5/10 us backoffs can complete the
    // re-drives: attempts 1 and 2 re-drive, the third fails the op.
    for (int k = 1; k <= 3; ++k)
      engine_.after(static_cast<double>(k) + 1.5, [&] {
        verbs_.invalidatePe(1);
        verbs_.flushPe(1);
        pg_.reestablish();
      });
  });
  engine_.run();
  EXPECT_TRUE(putWaiter);
  EXPECT_EQ(pg_.failedOps(), 2u);
  EXPECT_EQ(pg_.opsRedriven(), 2u);
}

// --- causal trace --------------------------------------------------------------

TEST_F(PgasTest, OpsCarryCompleteCausalChainsWithExactSplit) {
  engine_.trace().enable();
  const Gptr g = pg_.alloc(4096);
  const Gptr src = pg_.alloc(4096);
  const Gptr cell = pg_.alloc(8);
  std::vector<std::byte> dst(64, std::byte{0});
  engine_.at(0.0, [&] {
    pg_.put(0, 1, g, pg_.addr(0, src), 4096);
    pg_.get(2, 1, g, dst.data(), dst.size());
    pg_.fetchAdd(3, 0, cell, 4);
  });
  engine_.run();
  const sim::CausalGraph graph(engine_.trace().snapshot());
  for (const sim::TraceTag kind :
       {sim::TraceTag::kPgasPut, sim::TraceTag::kPgasGet,
        sim::TraceTag::kPgasAtomic}) {
    const sim::LatencySummary s = graph.latencyByKind(kind);
    EXPECT_EQ(s.count, 1u) << sim::traceTagName(kind);
    EXPECT_GT(s.mean.total_us, 0.0);
    // The four segments partition the chain exactly.
    EXPECT_NEAR(s.mean.total_us,
                s.mean.queue_us + s.mean.wire_us + s.mean.poll_us +
                    s.mean.handler_us,
                1e-9)
        << sim::traceTagName(kind);
  }
}

}  // namespace
}  // namespace ckd::pgas
