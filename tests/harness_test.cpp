// Tests for the harness: machine presets and the §3 pingpong drivers.

#include <gtest/gtest.h>

#include "ckdirect/ckdirect.hpp"
#include "fault/fault.hpp"
#include "harness/bench_runner.hpp"
#include "harness/machines.hpp"
#include "harness/pgas_world.hpp"
#include "harness/pingpong.hpp"
#include "harness/profile.hpp"
#include "mpi/mpi_costs.hpp"
#include "util/args.hpp"

namespace ckd::harness {
namespace {

TEST(Machines, AbePreset) {
  const auto cfg = abeMachine(64, 8);
  EXPECT_EQ(cfg.topology->numPes(), 64);
  EXPECT_EQ(cfg.topology->numNodes(), 8);
  EXPECT_EQ(cfg.layer, charm::LayerKind::kInfiniband);
  EXPECT_TRUE(cfg.netParams.has_rdma);
  EXPECT_EQ(cfg.costs.name, "abe");
}

TEST(Machines, T3SharesAbeSoftwareStack) {
  const auto t3 = t3Machine(16, 4);
  const auto abe = abeMachine(16, 4);
  EXPECT_EQ(t3.costs.sched_overhead_us, abe.costs.sched_overhead_us);
  EXPECT_GT(t3.netParams.rdma.alpha_us, abe.netParams.rdma.alpha_us);
}

TEST(Machines, SurveyorPreset) {
  const auto cfg = surveyorMachine(2048, 4);
  EXPECT_EQ(cfg.topology->numPes(), 2048);
  EXPECT_EQ(cfg.topology->numNodes(), 512);
  EXPECT_EQ(cfg.layer, charm::LayerKind::kBlueGene);
  EXPECT_FALSE(cfg.netParams.has_rdma);
  // No rendezvous cut-over on Surveyor.
  EXPECT_EQ(cfg.costs.rdma_threshold_bytes,
            std::numeric_limits<std::size_t>::max());
}

TEST(MachinesDeath, InvalidPeCountsRejected) {
  EXPECT_DEATH(abeMachine(10, 8), "multiple");
}

TEST(Pingpong, DeterministicAcrossRuns) {
  const auto machine = abeMachine(2, 1);
  PingpongConfig cfg;
  cfg.bytes = 5000;
  cfg.iterations = 20;
  const double a = charmPingpongRtt(machine, cfg);
  const double b = charmPingpongRtt(machine, cfg);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(ckdirectPingpongRtt(machine, cfg),
                   ckdirectPingpongRtt(machine, cfg));
}

TEST(Pingpong, IterationCountDoesNotChangeAverage) {
  // Steady-state average must be iteration-count independent (no warm-up
  // drift in the model).
  const auto machine = abeMachine(2, 1);
  PingpongConfig few;
  few.bytes = 1000;
  few.iterations = 5;
  PingpongConfig many = few;
  many.iterations = 200;
  EXPECT_NEAR(charmPingpongRtt(machine, few),
              charmPingpongRtt(machine, many), 0.5);
}

TEST(Pingpong, IntraNodeIsFasterThanInterNode) {
  PingpongConfig inter;
  inter.bytes = 1000;
  inter.iterations = 20;
  PingpongConfig intra = inter;
  intra.peA = 0;
  intra.peB = 1;  // same node when pesPerNode >= 2
  const auto machine = abeMachine(4, 2);
  const auto machine1 = abeMachine(4, 1);
  EXPECT_LT(charmPingpongRtt(machine, intra),
            charmPingpongRtt(machine1, inter));
}

TEST(Pingpong, MpiPutSlowerThanTwoSidedAtSmallSizes) {
  const auto machine = abeMachine(2, 1);
  PingpongConfig cfg;
  cfg.bytes = 100;
  cfg.iterations = 50;
  const auto flavor = mpi::mvapichCosts();
  EXPECT_GT(mpiPutPingpongRtt(machine, flavor, cfg),
            mpiPingpongRtt(machine, flavor, cfg));
}

TEST(Pingpong, CkDirectGapMatchesPaperExplanation) {
  // §3: at 100 B the CkDirect win comes from skipping the ~80-byte header
  // and the scheduling overhead — the gap should be in that ballpark.
  const auto machine = abeMachine(2, 1);
  PingpongConfig cfg;
  cfg.bytes = 100;
  cfg.iterations = 50;
  const double gap =
      charmPingpongRtt(machine, cfg) - ckdirectPingpongRtt(machine, cfg);
  const auto& costs = machine.costs;
  const double explained =
      2 * (costs.pack_us + costs.sched_overhead_us +
           costs.header_bytes * machine.netParams.packet.per_byte_us);
  EXPECT_NEAR(gap, explained, 0.35 * explained);
}

TEST(Profile, CapturesRuntimeActivity) {
  charm::MachineConfig machine = abeMachine(2, 1);
  charm::Runtime rts(machine);
  std::vector<double> send(8, 1.0), recv(8, 0.0);
  direct::Handle h = direct::createHandle(rts, 1, recv.data(), 64,
                                          0xFFF0000000000001ull, [] {});
  direct::assocLocal(h, 0, send.data());
  rts.seed([&] { direct::put(h); });
  rts.run();
  const ProfileReport report = captureProfile(rts);
  EXPECT_EQ(report.pes, 2);
  EXPECT_GT(report.horizon_us, 0.0);
  EXPECT_EQ(report.ckdirectPuts, 1u);
  EXPECT_EQ(report.tag(sim::TraceTag::kDirectCallback), 1u);
  EXPECT_GE(report.tag(sim::TraceTag::kFabricSubmit), 1u);
  const std::string text = report.toString();
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("ckdirect"), std::string::npos);
}

TEST(Profile, NoCkDirectSectionWithoutChannels) {
  charm::Runtime rts(abeMachine(2, 1));
  PingpongConfig cfg;
  cfg.bytes = 100;
  cfg.iterations = 5;
  // Drive some message traffic through a fresh runtime instead.
  charm::Runtime rts2(abeMachine(2, 1));
  (void)rts;
  const ProfileReport report = captureProfile(rts2);
  EXPECT_EQ(report.ckdirectPuts, 0u);
  EXPECT_EQ(report.toString().find("ckdirect"), std::string::npos);
}

TEST(Profile, ShardedTagCountsCoverEveryEngine) {
  // The trace counters live on whichever engine executed the event; under
  // --shards that is mostly the shard engines, so the profile must sum them
  // all to match the classic engine's counts.
  const auto profileWithShards = [](int shards) {
    charm::MachineConfig machine = abeMachine(2, 1);
    machine.shards = shards;
    machine.shardThreads = 1;
    ProfileReport report;
    PingpongConfig cfg;
    cfg.bytes = 100;
    cfg.iterations = 20;
    cfg.profile = &report;
    charmPingpongRtt(machine, cfg);
    return report;
  };
  const ProfileReport serial = profileWithShards(0);
  const ProfileReport sharded = profileWithShards(2);
  ASSERT_EQ(sharded.shards, 2);
  std::uint64_t total = 0;
  for (const std::uint64_t n : sharded.tagCounts) total += n;
  EXPECT_GT(total, 0u);
  EXPECT_EQ(sharded.tagCounts, serial.tagCounts);
  EXPECT_GT(sharded.layerSum_us, 0.0);
}

TEST(PgasWorldDeath, ShardsRejectWireFaults) {
  charm::MachineConfig machine = abeMachine(2, 1);
  machine.shards = 2;
  machine.faults = fault::parseFaultSpec("drop:0.05");
  EXPECT_DEATH({ PgasWorld world(machine, pgas::dartIbCosts(), 4096); },
               "--shards supports fail-stop \\(pe_crash\\) fault plans only");
}

TEST(BenchRunnerDeath, UnappliedShardsRejected) {
  const char* argv[] = {"bench", "--shards", "2"};
  const util::Args args(3, argv);
  EXPECT_DEATH(BenchRunner("bench", args).finish(),
               "--shards is not supported by this bench");
}

// Counts and periods are range-checked as signed values: a negative
// --trace-cap must not wrap to a near-unbounded ring, and a negative period
// must not be dropped in favour of the default without a word.
void constructRunner(const char* flag, const char* value) {
  const char* argv[] = {"bench", flag, value};
  const util::Args args(3, argv);
  BenchRunner runner("bench", args);
}

TEST(BenchRunnerDeath, NegativeTraceCapRejected) {
  EXPECT_DEATH(constructRunner("--trace-cap", "-1"),
               "--trace-cap must be positive");
}

TEST(BenchRunnerDeath, NegativeMetricsSnapshotsRejected) {
  EXPECT_DEATH(constructRunner("--metrics-snapshots", "-3"),
               "--metrics-snapshots must be positive");
}

TEST(BenchRunnerDeath, NegativeCheckpointPeriodRejected) {
  EXPECT_DEATH(constructRunner("--checkpoint-period", "-5"),
               "--checkpoint-period must be positive");
}

TEST(BenchRunnerDeath, NegativeHeartbeatPeriodRejected) {
  EXPECT_DEATH(constructRunner("--heartbeat-period", "-5"),
               "--heartbeat-period must be positive");
}

TEST(BenchRunnerDeath, ZeroHeartbeatMissesRejected) {
  EXPECT_DEATH(constructRunner("--heartbeat-misses", "0"),
               "--heartbeat-misses must be positive");
}

TEST(BenchRunnerDeath, HeartbeatMissesBeyondIntRejected) {
  EXPECT_DEATH(constructRunner("--heartbeat-misses", "4294967297"),
               "--heartbeat-misses must be positive");
}

// Shard counts are range-checked before narrowing to int, so 2^32 + 2
// cannot wrap to 2 shards and 2^32 + 1 cannot wrap to 1 thread.
TEST(BenchRunnerDeath, ShardsBeyondIntRejected) {
  EXPECT_DEATH(constructRunner("--shards", "4294967298"),
               "--shards must be in \\[0, INT_MAX\\]");
}

TEST(BenchRunnerDeath, ShardThreadsBeyondIntRejected) {
  EXPECT_DEATH(constructRunner("--shard-threads", "4294967297"),
               "--shard-threads must be in \\[0, INT_MAX\\]");
}

TEST(BenchRunner, AppliedShardsAccepted) {
  const char* argv[] = {"bench", "--shards", "2"};
  const util::Args args(3, argv);
  BenchRunner applied("bench", args);
  charm::MachineConfig machine = abeMachine(4, 1);
  applied.applyEngine(machine);
  EXPECT_EQ(machine.shards, 2);
  EXPECT_EQ(applied.finish(), 0);
  BenchRunner read("bench", args);
  EXPECT_EQ(read.shards(), 2);
  EXPECT_EQ(read.finish(), 0);
}

}  // namespace
}  // namespace ckd::harness
