// Elastic lifecycle edges: the supervisor's rejection paths and the
// whole-machine behaviors that soak_elastic gates at bench scale, shrunk to
// test size.
//
//  * --scale-plan parsing: the accepted grammar and every malformed-spec
//    abort.
//  * Synchronous request rejection: double drain, drain below the minimum
//    active PE count, out-of-range drain, scale-out without an elastic
//    topology, partial-node scale-out. requestDrain marks the PE Draining
//    (and requestScaleOut validates) before any event runs, so these need
//    no event loop.
//  * Drain during checkpoint cuts: with buddy checkpointing armed, the
//    drain's migration cut and the checkpoint cuts share reduction roots; a
//    post-quiescence crash then forces a rollback across the completed
//    drain. State must match the fault-free run bit-for-bit.
//  * Scale-out determinism across --shards {1, 2, 4} — the ParallelDeterminism
//    convention (parallel_test.cpp) extended to runs that grow the machine
//    mid-flight.
//
// The app is placement-invariant by construction: each worker's state
// evolves as a pure function of (element index, round), so migrating a
// worker — or never draining at all — cannot change the state digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "charm/checkpoint.hpp"
#include "charm/lifecycle.hpp"
#include "charm/pup.hpp"
#include "charm/runtime.hpp"
#include "fault/fault.hpp"
#include "harness/machines.hpp"
#include "harness/profile.hpp"
#include "profile_counters.hpp"
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

// --- --scale-plan grammar ----------------------------------------------------

TEST(ScalePlan, ParsesMixedRules) {
  const charm::ScalePlan plan =
      charm::parseScalePlan("scale_out@400;pes=8,drain@900.5;pe=2");
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].kind, charm::ScaleRule::Kind::kScaleOut);
  EXPECT_DOUBLE_EQ(plan.rules[0].at, 400.0);
  EXPECT_EQ(plan.rules[0].pes, 8);
  EXPECT_EQ(plan.rules[1].kind, charm::ScaleRule::Kind::kDrain);
  EXPECT_DOUBLE_EQ(plan.rules[1].at, 900.5);
  EXPECT_EQ(plan.rules[1].pe, 2);
}

TEST(ScalePlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(charm::parseScalePlan("").empty());
}

TEST(ScalePlanDeathTest, RejectsMalformedSpecs) {
  EXPECT_DEATH(charm::parseScalePlan(","), "empty rule");
  EXPECT_DEATH(charm::parseScalePlan("resize@5;pes=2"),
               "must start with scale_out@ or drain@");
  EXPECT_DEATH(charm::parseScalePlan("scale_out@abc;pes=2"), "bad time");
  EXPECT_DEATH(charm::parseScalePlan("scale_out@-3;pes=2"),
               "time must be >= 0");
  EXPECT_DEATH(charm::parseScalePlan("scale_out@5;pes"),
               "must be key=value");
  EXPECT_DEATH(charm::parseScalePlan("drain@5;pes=2"),
               "pes= is only valid on scale_out rules");
  EXPECT_DEATH(charm::parseScalePlan("scale_out@5;pe=1"),
               "pe= is only valid on drain rules");
  EXPECT_DEATH(charm::parseScalePlan("scale_out@5;pes=2;foo=1"),
               "unknown option");
  EXPECT_DEATH(charm::parseScalePlan("scale_out@5"),
               "needs pes=<n> with n > 0");
  EXPECT_DEATH(charm::parseScalePlan("drain@5"), "needs pe=<k>");
}

// --- synchronous supervisor rejection ---------------------------------------
//
// requestDrain transitions the PE and adjusts the active count before any
// event runs, so rejection chains are testable without rts.run(). Each death
// case rebuilds the runtime inside the EXPECT_DEATH statement (the check
// forks; the child must reach the abort on its own).

TEST(LifecycleDeathTest, DoubleDrainAborts) {
  EXPECT_DEATH(
      {
        charm::Runtime rts(harness::elasticAbeMachine(8, 2));
        rts.lifecycle()->requestDrain(3);
        rts.lifecycle()->requestDrain(3);
      },
      "not Active");
}

TEST(LifecycleDeathTest, DrainBelowMinimumActivePesAborts) {
  EXPECT_DEATH(
      {
        charm::Runtime rts(harness::elasticAbeMachine(8, 2));
        // minPes defaults to 2: draining six of eight leaves exactly the
        // minimum; the seventh request must die.
        for (int pe = 2; pe < 8; ++pe) rts.lifecycle()->requestDrain(pe);
        rts.lifecycle()->requestDrain(1);
      },
      "below the minimum active PE count");
}

TEST(LifecycleDeathTest, DrainOutOfRangeAborts) {
  EXPECT_DEATH(
      {
        charm::Runtime rts(harness::elasticAbeMachine(8, 2));
        rts.lifecycle()->requestDrain(99);
      },
      "drain PE out of range");
}

TEST(LifecycleDeathTest, ScaleOutRequiresElasticTopology) {
  // The torus machine arms the supervisor (drain/retire only); growth must
  // be rejected both programmatically and from a scripted plan.
  EXPECT_DEATH(
      {
        charm::Runtime rts(harness::elasticSurveyorMachine(8, 2));
        rts.lifecycle()->requestScaleOut(2);
      },
      "requires an ElasticTopology");
  EXPECT_DEATH(
      {
        charm::MachineConfig m = harness::surveyorMachine(8, 2);
        m.scalePlan = "scale_out@100;pes=2";
        charm::Runtime rts(m);
      },
      "require an ElasticTopology");
}

TEST(LifecycleDeathTest, ScaleOutMustAddWholeNodes) {
  EXPECT_DEATH(
      {
        charm::Runtime rts(harness::elasticAbeMachine(8, 2));
        rts.lifecycle()->requestScaleOut(3);  // pesPerNode == 2
      },
      "whole nodes");
}

TEST(Lifecycle, DrainMarksPeSynchronously) {
  charm::Runtime rts(harness::elasticAbeMachine(8, 2));
  charm::LifecycleManager* life = rts.lifecycle();
  ASSERT_NE(life, nullptr);
  EXPECT_EQ(life->activePes(), 8);
  EXPECT_EQ(life->state(5), charm::PeState::kActive);
  life->requestDrain(5);
  EXPECT_EQ(life->state(5), charm::PeState::kDraining);
  EXPECT_EQ(life->activePes(), 7);
}

// --- round-driven elastic app ------------------------------------------------

struct LifeParams {
  int workers = 24;
  int rounds = 16;
  double computeUs = 20.0;
  int scaleOutAtRound = -1;  ///< -1: never
  int scaleOutPes = 4;
  int drainAtRound = -1;  ///< -1: never
  int drainPe = 5;
};

class LifeWorker : public charm::Chare {
 public:
  std::vector<double> state;
  int round = 0;

  void pup(charm::Puper& p) override {
    p | state;
    p | round;
  }
};

/// Entry-method closure state; handles and ids are construction-time
/// constants (the soak_elastic app's pattern, minus the CkDirect channels).
struct LifeApp {
  charm::Runtime& rts;
  LifeParams par;
  int basePes = 0;
  charm::ArrayId arr = -1;
  charm::EntryId epStep = -1;
  charm::EntryId epCut = -1;

  LifeApp(charm::Runtime& r, LifeParams p) : rts(r), par(p) {}

  void step(LifeWorker& w) {
    w.charge(par.computeUs);
    // Pure function of (index, round): migration cannot perturb it.
    const std::uint64_t mix =
        fnv(&w.round, sizeof(w.round),
            fnv(w.state.data(), sizeof(double) * 4));
    const auto slot = static_cast<std::size_t>(
        (static_cast<std::size_t>(w.round) * 7u +
         static_cast<std::size_t>(w.thisIndex())) %
        w.state.size());
    w.state[slot] += static_cast<double>(mix % 4096u) * 1e-6;
    w.barrier(epCut);
  }

  void cut(LifeWorker& w) {
    if (w.thisIndex() == 0) {
      // Round-driven lifecycle triggers, guarded so a post-rollback replay
      // that re-reaches the trigger round does not double-request (grown
      // PEs survive a rollback; an interrupted drain survives as restored
      // intent).
      charm::LifecycleManager* life = rts.lifecycle();
      if (life != nullptr && w.round == par.scaleOutAtRound &&
          rts.numPes() < basePes + par.scaleOutPes)
        life->requestScaleOut(par.scaleOutPes);
      if (life != nullptr && w.round == par.drainAtRound &&
          life->state(par.drainPe) == charm::PeState::kActive)
        life->requestDrain(par.drainPe);
    }
    ++w.round;
    if (w.round < par.rounds)
      rts.sendToElement(arr, w.thisIndex(), epStep, {});
  }
};

struct LifeResult {
  std::uint64_t stateDigest = 0;
  double horizon = 0.0;
  std::uint64_t scaleOuts = 0, drains = 0, migrated = 0, aborted = 0;
  std::uint64_t checkpoints = 0, restores = 0, crashes = 0;
  int finalPes = 0, activePes = 0;
  charm::PeState drainPeState = charm::PeState::kActive;
  testutil::Counters profile;  ///< the profile's integer event counters
};

LifeResult runLife(charm::MachineConfig machine, const LifeParams& par) {
  charm::Runtime rts(machine);
  rts.enableTracing();
  auto app = std::make_shared<LifeApp>(rts, par);
  app->basePes = rts.numPes();

  const int pes = rts.numPes();
  app->arr = rts.createArray<LifeWorker>(
      "life", par.workers, [pes](std::int64_t i) {
        return static_cast<int>(i) % pes;
      },
      [](std::int64_t i) {
        auto w = std::make_unique<LifeWorker>();
        w->state.assign(64, static_cast<double>(i) + 0.25);
        return w;
      });
  app->epStep = rts.registerEntryRaw(
      app->arr, "step", [app](charm::Chare& c, charm::Message&) {
        app->step(static_cast<LifeWorker&>(c));
      });
  app->epCut = rts.registerEntryRaw(
      app->arr, "cut", [app](charm::Chare& c, charm::Message&) {
        app->cut(static_cast<LifeWorker&>(c));
      });

  rts.seed([app]() {
    if (app->rts.checkpoints() != nullptr) app->rts.checkpoints()->arm();
    for (int i = 0; i < app->par.workers; ++i)
      app->rts.sendToElement(app->arr, i, app->epStep, {});
  });
  rts.run();

  LifeResult out;
  for (std::int64_t i = 0; i < par.workers; ++i) {
    const auto& w = static_cast<const LifeWorker&>(rts.element(app->arr, i));
    out.stateDigest = fnv(w.state.data(), w.state.size() * sizeof(double),
                          out.stateDigest != 0 ? out.stateDigest
                                               : 1469598103934665603ull);
    out.stateDigest = fnv(&w.round, sizeof(w.round), out.stateDigest);
  }
  out.horizon = rts.now();
  for (const sim::TraceEvent& ev : rts.traceEvents()) {
    switch (ev.tag) {
      case sim::TraceTag::kCkptTaken: ++out.checkpoints; break;
      case sim::TraceTag::kCkptRestore: ++out.restores; break;
      case sim::TraceTag::kFaultPeCrash: ++out.crashes; break;
      default: break;
    }
  }
  if (const charm::LifecycleManager* life = rts.lifecycle()) {
    out.scaleOuts = life->scaleOuts();
    out.drains = life->drainsCompleted();
    out.migrated = life->elementsMigrated();
    out.aborted = life->migrationsAborted();
    out.activePes = life->activePes();
    out.drainPeState = life->state(par.drainPe);
  }
  out.finalPes = rts.numPes();
  out.profile = testutil::profileCounters(harness::captureProfile(rts));
  return out;
}

charm::MachineConfig elasticMachine(int shards) {
  // Fresh machine per run: scale-out grows the topology the config's
  // shared_ptr points at, so a reused config would start already grown.
  charm::MachineConfig m = harness::elasticAbeMachine(8, 2);
  m.shards = shards;
  m.shardThreads = 1;
  return m;
}

TEST(LifecycleApp, DrainRetiresAndPreservesState) {
  LifeParams par;
  par.drainAtRound = 6;
  const LifeResult clean = runLife(elasticMachine(1), LifeParams{});
  const LifeResult drained = runLife(elasticMachine(1), par);

  EXPECT_EQ(drained.drains, 1u);
  EXPECT_EQ(drained.drainPeState, charm::PeState::kRetired);
  EXPECT_GT(drained.migrated, 0u);
  EXPECT_EQ(drained.activePes, 7);
  EXPECT_EQ(drained.finalPes, 8);
  // Placement-invariant state: migrating the victim's workers must not
  // change what they computed.
  EXPECT_EQ(drained.stateDigest, clean.stateDigest);
}

TEST(LifecycleApp, DrainDuringCheckpointCutsSurvivesRollback) {
  // Buddy checkpointing shares reduction cuts with the drain's migration
  // cut: with a short checkpoint period, the cut that ships the drain
  // shards is itself a checkpoint cut. A crash pinned past quiescence then
  // rolls the completed drain back through restore + tail replay; the
  // replayed timeline (trigger guards!) must land on the fault-free state.
  LifeParams par;
  par.drainAtRound = 6;
  const LifeResult clean = runLife(elasticMachine(1), par);
  ASSERT_EQ(clean.drains, 1u);
  ASSERT_EQ(clean.crashes, 0u);

  charm::MachineConfig m = elasticMachine(1);
  m.faults = fault::parseFaultSpec(
      "pe_crash@" + std::to_string(4.0 * clean.horizon) + ";pe=1");
  m.faultSeed = 11;
  m.checkpointPeriod_us = clean.horizon / 8.0;
  const LifeResult soak = runLife(m, par);

  EXPECT_EQ(soak.crashes, 1u);
  EXPECT_EQ(soak.restores, 1u);
  EXPECT_GT(soak.checkpoints, 2u);
  EXPECT_EQ(soak.drains, 1u);
  EXPECT_EQ(soak.drainPeState, charm::PeState::kRetired);
  EXPECT_EQ(soak.stateDigest, clean.stateDigest);
}

TEST(LifecycleApp, ScaleOutThenDrainIsShardCountInvariant) {
  LifeParams par;
  par.scaleOutAtRound = 4;
  par.scaleOutPes = 4;
  par.drainAtRound = 10;
  const LifeResult base = runLife(elasticMachine(1), par);
  ASSERT_EQ(base.scaleOuts, 1u);
  ASSERT_EQ(base.drains, 1u);
  ASSERT_EQ(base.finalPes, 12);   // 8 + 4 grown
  ASSERT_EQ(base.activePes, 11);  // minus the retired PE

  for (const int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const LifeResult run = runLife(elasticMachine(shards), par);
    EXPECT_EQ(run.stateDigest, base.stateDigest);
    EXPECT_DOUBLE_EQ(run.horizon, base.horizon);
    EXPECT_EQ(run.scaleOuts, 1u);
    EXPECT_EQ(run.drains, 1u);
    EXPECT_EQ(run.finalPes, 12);
    EXPECT_EQ(run.activePes, 11);
  }
}

// Pinned profile counters of a scale-out then drain: every event count the
// profile reports equals the value it had when each of these events was
// still counted twice (a trace tag plus a member counter).
LifeParams scaleOutThenDrain() {
  LifeParams par;
  par.scaleOutAtRound = 4;
  par.scaleOutPes = 4;
  par.drainAtRound = 10;
  return par;
}

TEST(ProfilePins, ScaleOutThenDrain) {
  const LifeResult run = runLife(elasticMachine(0), scaleOutThenDrain());
  EXPECT_EQ(run.profile, (testutil::Counters{
      {"fabric.messages", 340}, {"lifecycle.drains_completed", 1},
      {"lifecycle.migrations_aborted", 0}, {"lifecycle.scale_outs", 1},
      {"tag_counts.fabric.deliver", 340}, {"tag_counts.fabric.submit", 340},
      {"tag_counts.lifecycle.drain", 1}, {"tag_counts.lifecycle.handoff", 10},
      {"tag_counts.lifecycle.join", 4}, {"tag_counts.lifecycle.retire", 1},
      {"tag_counts.lifecycle.scale_out", 1}, {"tag_counts.rel.ack", 10},
      {"tag_counts.sched.deliver", 1067}, {"tag_counts.sched.pump", 1087},
      {"tag_counts.sched.pump_done", 1087}, {"tag_counts.sched.syswork", 20},
      {"tag_counts.xport.eager", 320},
  }));
}

TEST(ProfilePins, ScaleOutThenDrainUnderTwoShards) {
  const LifeResult run = runLife(elasticMachine(2), scaleOutThenDrain());
  EXPECT_EQ(run.profile, (testutil::Counters{
      {"fabric.messages", 340}, {"lifecycle.drains_completed", 1},
      {"lifecycle.migrations_aborted", 0}, {"lifecycle.scale_outs", 1},
      {"tag_counts.fabric.deliver", 340}, {"tag_counts.fabric.submit", 340},
      {"tag_counts.lifecycle.drain", 1}, {"tag_counts.lifecycle.handoff", 10},
      {"tag_counts.lifecycle.join", 4}, {"tag_counts.lifecycle.retire", 1},
      {"tag_counts.lifecycle.scale_out", 1}, {"tag_counts.rel.ack", 10},
      {"tag_counts.sched.deliver", 1067}, {"tag_counts.sched.pump", 1087},
      {"tag_counts.sched.pump_done", 1087}, {"tag_counts.sched.syswork", 20},
      {"tag_counts.xport.eager", 320},
  }));
}

}  // namespace
