// Tests for the fail-stop tolerance subsystem: PUP serialization round
// trips (including the in-place vector contract restores depend on),
// pe_crash fault-spec parsing, reliable-flow flush/reset idempotency, the
// exactly-once error-surface guarantee, and end-to-end crash/rollback of
// the stencil on both machine models with byte-identical results.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/stencil/stencil.hpp"
#include "charm/checkpoint.hpp"
#include "charm/marshal.hpp"
#include "charm/pup.hpp"
#include "ckdirect/ckdirect.hpp"
#include "fault/fault.hpp"
#include "fault/reliable.hpp"
#include "harness/bench_runner.hpp"
#include "harness/machines.hpp"
#include "harness/profile.hpp"
#include "util/args.hpp"
#include "net/fabric.hpp"
#include "profile_counters.hpp"
#include "sim/engine.hpp"
#include "topo/fat_tree.hpp"

namespace ckd {
namespace {

// ---------------------------------------------------------------------------
// PUP framework.

TEST(Pup, RoundTripsScalarsAndVectors) {
  charm::Packer packer;
  charm::Puper pack(packer);
  int i = 42;
  double d = 3.25;
  std::uint64_t u = 0xDEADBEEFCAFEBABEull;
  std::vector<double> v{1.0, 2.0, 4.0};
  std::vector<std::byte> raw{std::byte{7}, std::byte{9}};
  EXPECT_TRUE(pack.isPacking());
  pack | i | d | u | v | raw;

  charm::Unpacker source(packer.bytes());
  charm::Puper unpack(source);
  int i2 = 0;
  double d2 = 0.0;
  std::uint64_t u2 = 0;
  std::vector<double> v2;
  std::vector<std::byte> raw2;
  EXPECT_TRUE(unpack.isUnpacking());
  unpack | i2 | d2 | u2 | v2 | raw2;
  EXPECT_EQ(i2, i);
  EXPECT_EQ(d2, d);
  EXPECT_EQ(u2, u);
  EXPECT_EQ(v2, v);
  EXPECT_EQ(raw2, raw);
}

TEST(Pup, UnpackIntoMatchingVectorIsInPlace) {
  // The property re-registration keys off: restoring into a vector that
  // already has the right size must not move its storage.
  std::vector<double> original{5.0, 6.0, 7.0, 8.0};
  charm::Packer packer;
  charm::Puper pack(packer);
  pack | original;

  std::vector<double> target{0.0, 0.0, 0.0, 0.0};
  const double* addr = target.data();
  charm::Unpacker source(packer.bytes());
  charm::Puper unpack(source);
  unpack | target;
  EXPECT_EQ(target.data(), addr);
  EXPECT_EQ(target, original);
}

TEST(Pup, CArraysRoundTrip) {
  int arr[3] = {10, 20, 30};
  charm::Packer packer;
  charm::Puper pack(packer);
  pack | arr;

  int out[3] = {0, 0, 0};
  charm::Unpacker source(packer.bytes());
  charm::Puper unpack(source);
  unpack | out;
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 20);
  EXPECT_EQ(out[2], 30);
}

// ---------------------------------------------------------------------------
// pe_crash fault-spec grammar.

TEST(CrashSpec, ParsesPeCrashRules) {
  const fault::FaultPlan plan =
      fault::parseFaultSpec("pe_crash@1500,pe_crash@2500.5;pe=3");
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].kind, fault::FaultKind::kPeCrash);
  EXPECT_DOUBLE_EQ(plan.rules[0].crash_at_us, 1500.0);
  EXPECT_EQ(plan.rules[0].src, -1);  // random victim
  EXPECT_EQ(plan.rules[1].kind, fault::FaultKind::kPeCrash);
  EXPECT_DOUBLE_EQ(plan.rules[1].crash_at_us, 2500.5);
  EXPECT_EQ(plan.rules[1].src, 3);  // pinned victim
  EXPECT_TRUE(plan.armed());
  EXPECT_TRUE(plan.hasCrashes());
  EXPECT_NE(plan.summary().find("pe_crash@1500"), std::string::npos);
  EXPECT_NE(plan.summary().find("pe=3"), std::string::npos);
}

TEST(CrashSpec, WireFaultPlansHaveNoCrashes) {
  EXPECT_FALSE(fault::parseFaultSpec("drop:0.1,corrupt:0.05").hasCrashes());
}

TEST(CrashSpecDeath, MalformedCrashRulesAbort) {
  EXPECT_DEATH(fault::parseFaultSpec("pe_crash@-5"), "must be >= 0");
  EXPECT_DEATH(fault::parseFaultSpec("pe_crash@abc"), "bad pe_crash time");
  EXPECT_DEATH(fault::parseFaultSpec("drop:0.1;pe=2"),
               "only valid on pe_crash");
  EXPECT_DEATH(fault::parseFaultSpec("pe_crash@100;pe=-1"), "pe must be >= 0");
}

// ---------------------------------------------------------------------------
// Reliable-flow flush/reset idempotency (the crash path calls these from
// several recovery routes that can race: per-PE flush then global flush,
// QP-error reset then channel reset).

class FlushTest : public ::testing::Test {
 protected:
  FlushTest()
      : topo_(std::make_shared<topo::FatTree>(4, 1)),
        fabric_(engine_, topo_, net::abeParams()) {
    const fault::FaultPlan plan;  // clean wire; flushes are sender-driven
    fabric_.installFaults(plan, 7);
    link_ = std::make_unique<fault::ReliableLink>(fabric_, plan.rel);
  }

  fault::ReliableLink::Send makeSend(int tag) {
    fault::ReliableLink::Send send;
    send.src = 0;
    send.dst = 1;
    send.wireBytes = 2048;
    send.cls = fault::MsgClass::kBulk;
    send.on_deliver = [this, tag](std::vector<std::byte>&&) {
      delivered_.push_back(tag);
    };
    send.on_acked = [this]() { ++acked_; };
    send.on_error = [this](fault::WcStatus) { ++errors_; };
    return send;
  }

  sim::Engine engine_;
  topo::TopologyPtr topo_;
  net::Fabric fabric_;
  std::unique_ptr<fault::ReliableLink> link_;
  std::vector<int> delivered_;
  int acked_ = 0;
  int errors_ = 0;
};

TEST_F(FlushTest, FlushIsSilentAndSecondFlushIsANoOp) {
  // Post a send whose wire copy is still in flight, then flush the flow
  // twice. Neither flush may fire completions (the rollback re-drives the
  // work); the stale wire copy must be NAKed on arrival, not delivered.
  link_->post(0, makeSend(1));
  link_->flushPe(0);
  link_->flushPe(0);  // idempotent: already-flushed flow, strict no-op
  link_->flushAll();  // and via the other route too
  engine_.run();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(acked_, 0);
  EXPECT_EQ(errors_, 0);
  EXPECT_GE(link_->staleNaks(), 1u);

  // The flushed flow is immediately usable: a fresh send delivers once.
  link_->post(0, makeSend(2));
  engine_.run();
  EXPECT_EQ(delivered_, (std::vector<int>{2}));
  EXPECT_EQ(acked_, 1);
  EXPECT_EQ(errors_, 0);
}

TEST_F(FlushTest, ResetChannelOnHealthyFlowIsANoOp) {
  link_->post(0, makeSend(1));
  engine_.run();
  ASSERT_EQ(delivered_, (std::vector<int>{1}));
  // Healthy flow: resetChannel must not disturb sequencing.
  link_->resetChannel(0);
  link_->resetChannel(0);
  EXPECT_FALSE(link_->channelInError(0));
  link_->post(0, makeSend(2));
  engine_.run();
  EXPECT_EQ(delivered_, (std::vector<int>{1, 2}));
  EXPECT_EQ(acked_, 2);
  EXPECT_EQ(errors_, 0);
}

// ---------------------------------------------------------------------------
// Retry-budget exhaustion surfaces through CkDirect_setErrorCallback
// exactly once, even with no transparent manager re-puts configured.

void expectSingleErrorCompletion(charm::MachineConfig machine) {
  machine.faults = fault::parseFaultSpec(
      "drop:1;class=bulk,drop:1;class=packet,"
      "rel:0;timeout=5;budget=2;appbudget=0");
  machine.faultSeed = 11;
  charm::Runtime rts(machine);

  std::vector<std::byte> sendBuf(64, std::byte{1}), recvBuf(64, std::byte{0});
  int arrivals = 0;
  std::vector<fault::WcStatus> statuses;
  direct::Handle h = direct::createHandle(rts, 1, recvBuf.data(), 64,
                                          0xDEADBEEFCAFEBABEull,
                                          [&]() { ++arrivals; });
  direct::assocLocal(h, 0, sendBuf.data());
  direct::setErrorCallback(
      h, [&](fault::WcStatus status) { statuses.push_back(status); });
  rts.seed([h]() { direct::put(h); });
  rts.run();

  EXPECT_EQ(arrivals, 0);
  ASSERT_EQ(statuses.size(), 1u);  // exactly once, not per retransmission
  EXPECT_EQ(statuses[0], fault::WcStatus::kRetryExceeded);
  const direct::Manager* mgr = direct::Manager::peek(rts);
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(mgr->putRetries(), 0u);  // appbudget=0: no transparent re-puts
}

TEST(CrashErrorPath, BudgetExhaustionSurfacesOnceOnIb) {
  expectSingleErrorCompletion(harness::abeMachine(2, 1));
}

TEST(CrashErrorPath, BudgetExhaustionSurfacesOnceOnBgp) {
  expectSingleErrorCompletion(harness::surveyorMachine(2, 1));
}

// ---------------------------------------------------------------------------
// Harness plumbing: --checkpoint-period reaches the MachineConfig.

TEST(CheckpointFlag, BenchRunnerAppliesCheckpointPeriod) {
  const char* argv[] = {"bench", "--faults", "pe_crash@100",
                        "--checkpoint-period", "25"};
  const util::Args args(5, argv);
  const harness::BenchRunner runner("t", args);
  charm::MachineConfig machine = harness::abeMachine(2, 1);
  const double defaultPeriod = machine.checkpointPeriod_us;
  runner.applyFaults(machine);
  EXPECT_TRUE(machine.faults.hasCrashes());
  EXPECT_DOUBLE_EQ(machine.checkpointPeriod_us, 25.0);
  EXPECT_NE(defaultPeriod, 25.0);  // the flag, not the default, won
}

TEST(CheckpointFlag, PeriodDefaultsWhenFlagAbsent) {
  const char* argv[] = {"bench", "--faults", "pe_crash@100"};
  const util::Args args(3, argv);
  const harness::BenchRunner runner("t", args);
  charm::MachineConfig machine = harness::abeMachine(2, 1);
  const double defaultPeriod = machine.checkpointPeriod_us;
  runner.applyFaults(machine);
  EXPECT_DOUBLE_EQ(machine.checkpointPeriod_us, defaultPeriod);
  EXPECT_LT(runner.checkpointPeriod(), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end crash + buddy-checkpoint rollback.

struct CrashRun {
  std::vector<double> field;
  double horizon = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t restores = 0;
  std::uint64_t checkpoints = 0;
  harness::ProfileReport profile;
};

CrashRun runStencil(const charm::MachineConfig& machine, int iters) {
  charm::Runtime rts(machine);
  rts.engine().trace().enable();
  apps::stencil::Config cfg;
  cfg.gx = 16;
  cfg.gy = 16;
  cfg.gz = 8;
  cfg.cx = cfg.cy = 2;
  cfg.cz = 1;
  cfg.iterations = iters;
  cfg.mode = apps::stencil::Mode::kCkDirect;
  cfg.real_compute = true;
  apps::stencil::StencilApp app(rts, cfg);
  app.execute();

  CrashRun out;
  out.field = app.gatherField();
  out.horizon = rts.now();
  const sim::TraceRecorder& trace = rts.engine().trace();
  out.crashes = trace.count(sim::TraceTag::kFaultPeCrash);
  out.restores = trace.count(sim::TraceTag::kCkptRestore);
  out.checkpoints = trace.count(sim::TraceTag::kCkptTaken);
  out.profile = harness::captureProfile(rts);
  return out;
}

void expectCrashRecovered(const charm::MachineConfig& clean, int victim) {
  const int iters = 12;
  const CrashRun base = runStencil(clean, iters);
  EXPECT_EQ(base.crashes, 0u);
  EXPECT_EQ(base.profile.tag(sim::TraceTag::kCkptRestore), 0u);

  charm::MachineConfig crashed = clean;
  std::string spec = "pe_crash@" + std::to_string(0.75 * base.horizon);
  if (victim >= 0) spec += ";pe=" + std::to_string(victim);
  crashed.faults = fault::parseFaultSpec(spec);
  crashed.faultSeed = 3;
  crashed.checkpointPeriod_us = base.horizon / 8.0;
  const CrashRun soak = runStencil(crashed, iters);

  EXPECT_EQ(soak.crashes, 1u);
  EXPECT_EQ(soak.restores, 1u);
  EXPECT_GE(soak.checkpoints, 1u);
  // Rollback re-ran part of the computation: time is lost, data is not.
  EXPECT_GT(soak.horizon, base.horizon);
  EXPECT_EQ(base.field, soak.field);

  // Harness plumbing: the counters reach ProfileReport.
  EXPECT_EQ(soak.profile.tag(sim::TraceTag::kCkptRestore), 1u);
  EXPECT_GE(soak.profile.tag(sim::TraceTag::kCkptTaken), 1u);
  EXPECT_GT(soak.profile.checkpointBytes, 0u);
  EXPECT_GT(soak.profile.recoveryUs, 0.0);

  if (victim >= 0) {
    // The pinned victim, and only it, crashed.
    bool sawCrash = false;
    for (const sim::TraceEvent& ev : soak.profile.traceEvents) {
      if (ev.tag != sim::TraceTag::kFaultPeCrash) continue;
      EXPECT_EQ(ev.pe, victim);
      sawCrash = true;
    }
    EXPECT_TRUE(sawCrash);
  }
}

TEST(CrashRestart, StencilSurvivesRandomVictimOnIb) {
  expectCrashRecovered(harness::t3Machine(4, 2), /*victim=*/-1);
}

TEST(CrashRestart, StencilSurvivesPinnedVictimOnIb) {
  expectCrashRecovered(harness::t3Machine(4, 2), /*victim=*/2);
}

TEST(CrashRestart, StencilSurvivesRandomVictimOnBgp) {
  expectCrashRecovered(harness::surveyorMachine(4, 2), /*victim=*/-1);
}

TEST(CrashRestart, StencilSurvivesPinnedVictimOnBgp) {
  expectCrashRecovered(harness::surveyorMachine(4, 2), /*victim=*/1);
}

// ---------------------------------------------------------------------------
// Pinned profile counters: every event count a profile reports, on crash
// runs through both CkDirect managers, the reliable links and the buddy
// checkpoints, equals the value it had when each of these events was still
// counted twice (a trace tag plus a member counter).

/// `clean` with a pe_crash of `victim` at 3/4 of its fault-free horizon
/// (after `wire` faults, if any) and a checkpoint period of 1/8 of it.
charm::MachineConfig crashPlan(charm::MachineConfig clean,
                               const std::string& wire, int victim) {
  const double horizon = runStencil(clean, 12).horizon;
  clean.faults = fault::parseFaultSpec(
      wire + "pe_crash@" + std::to_string(0.75 * horizon) +
      ";pe=" + std::to_string(victim));
  clean.faultSeed = 3;
  clean.checkpointPeriod_us = horizon / 8.0;
  return clean;
}

constexpr const char* kWireFaults = "drop:0.02,duplicate:0.01,corrupt:0.01,";

TEST(ProfilePins, FaultAndCrashOnIb) {
  const CrashRun run =
      runStencil(crashPlan(harness::t3Machine(4, 2), kWireFaults, 2), 12);
  EXPECT_EQ(testutil::profileCounters(run.profile), (testutil::Counters{
      {"checkpoint.restarts", 1}, {"checkpoint.taken", 4},
      {"ckdirect.callbacks", 102}, {"ckdirect.puts", 104},
      {"fabric.messages", 774}, {"tag_counts.ckpt.restore", 1},
      {"tag_counts.ckpt.taken", 4}, {"tag_counts.crash.detect", 1},
      {"tag_counts.direct.callback", 102},
      {"tag_counts.direct.poll_scan", 280}, {"tag_counts.direct.put", 103},
      {"tag_counts.direct.ready", 100},
      {"tag_counts.direct.sentinel_hit", 102},
      {"tag_counts.fabric.deliver", 770}, {"tag_counts.fabric.submit", 774},
      {"tag_counts.fault.corrupt", 2}, {"tag_counts.fault.drop", 5},
      {"tag_counts.fault.duplicate", 1}, {"tag_counts.fault.pe_crash", 1},
      {"tag_counts.rel.ack", 213}, {"tag_counts.rel.dup_drop", 2},
      {"tag_counts.rel.retransmit", 2}, {"tag_counts.rel.stale_nak", 1},
      {"tag_counts.sched.deliver", 213}, {"tag_counts.sched.pump", 338},
      {"tag_counts.sched.pump_done", 338}, {"tag_counts.sched.syswork", 36},
      {"tag_counts.xport.eager", 97},
  }));
}

TEST(ProfilePins, FaultAndCrashOnBgp) {
  const CrashRun run = runStencil(
      crashPlan(harness::surveyorMachine(4, 2), kWireFaults, 1), 12);
  EXPECT_EQ(testutil::profileCounters(run.profile), (testutil::Counters{
      {"checkpoint.restarts", 1}, {"checkpoint.taken", 2},
      {"ckdirect.callbacks", 107}, {"ckdirect.puts", 108},
      {"fabric.messages", 541}, {"tag_counts.ckpt.restore", 1},
      {"tag_counts.ckpt.taken", 2}, {"tag_counts.crash.detect", 1},
      {"tag_counts.direct.callback", 107}, {"tag_counts.direct.put", 107},
      {"tag_counts.fabric.deliver", 537}, {"tag_counts.fabric.submit", 541},
      {"tag_counts.fault.corrupt", 2}, {"tag_counts.fault.drop", 5},
      {"tag_counts.fault.duplicate", 1}, {"tag_counts.fault.pe_crash", 1},
      {"tag_counts.rel.ack", 212}, {"tag_counts.rel.dup_drop", 1},
      {"tag_counts.rel.ooo_drop", 4}, {"tag_counts.rel.retransmit", 10},
      {"tag_counts.rel.stale_nak", 3}, {"tag_counts.sched.deliver", 219},
      {"tag_counts.sched.pump", 354}, {"tag_counts.sched.pump_done", 354},
      {"tag_counts.sched.syswork", 135}, {"tag_counts.xport.bgp_send", 100},
  }));
}

TEST(ProfilePins, CrashOnIbUnderTwoShards) {
  charm::MachineConfig machine = crashPlan(harness::t3Machine(4, 2), "", 2);
  machine.shards = 2;
  machine.shardThreads = 1;
  const CrashRun run = runStencil(machine, 12);
  EXPECT_EQ(testutil::profileCounters(run.profile), (testutil::Counters{
      {"checkpoint.restarts", 1}, {"checkpoint.taken", 4},
      {"ckdirect.callbacks", 107}, {"ckdirect.puts", 110},
      {"fabric.messages", 788}, {"tag_counts.ckpt.restore", 1},
      {"tag_counts.ckpt.taken", 4}, {"tag_counts.crash.detect", 1},
      {"tag_counts.direct.callback", 107},
      {"tag_counts.direct.poll_scan", 291}, {"tag_counts.direct.put", 108},
      {"tag_counts.direct.ready", 104},
      {"tag_counts.direct.sentinel_hit", 107},
      {"tag_counts.fabric.deliver", 788}, {"tag_counts.fabric.submit", 788},
      {"tag_counts.fault.pe_crash", 1}, {"tag_counts.rel.ack", 223},
      {"tag_counts.rel.stale_nak", 1}, {"tag_counts.sched.deliver", 221},
      {"tag_counts.sched.pump", 351}, {"tag_counts.sched.pump_done", 351},
      {"tag_counts.sched.syswork", 36}, {"tag_counts.xport.eager", 101},
  }));
}

TEST(CrashRestartDeath, CrashBeforeFirstCheckpointAborts) {
  // A crash at t=0 fires the moment the app arms the machinery, before any
  // buddy checkpoint can complete: unrecoverable by design, loud by design.
  charm::MachineConfig machine = harness::t3Machine(4, 2);
  machine.faults = fault::parseFaultSpec("pe_crash@0;pe=1");
  EXPECT_DEATH(runStencil(machine, 4),
               "before the first buddy checkpoint completed");
}

TEST(CrashRestartDeath, SinglePeMachineCannotBuddy) {
  charm::MachineConfig machine = harness::abeMachine(1, 1);
  machine.faults = fault::parseFaultSpec("pe_crash@100;pe=0");
  EXPECT_DEATH(charm::Runtime rts(machine), "at least 2 PEs");
}

}  // namespace
}  // namespace ckd
