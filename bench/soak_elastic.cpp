// Elastic soak: a request/response workload (driver on PE 0, a worker chare
// array served over per-worker CkDirect channels) driven through the full
// PE lifecycle — ramp, scale-out, drain/retire — with a crash landing in
// the middle of the drain's state handoff. Gates:
//
//  * p99 per-request latency RECOVERS after the scale-out (more PEs, fewer
//    workers per PE, less queueing) — the headline elastic win.
//  * The drained PE retires; its workers' CkDirect channels are rehomed to
//    the adoptive PEs and keep serving requests.
//  * A pe_crash placed mid-handoff (found by a deterministic probe run, see
//    below) aborts the in-flight migration, falls back to the PR 3 global
//    rollback, and the drain still completes afterwards — byte-identical
//    final worker state, no wedging.
//  * Everything is bit-identical across reruns; the ctest gate additionally
//    diffs the printed digest line across --shards {1,2,4}.
//
// Probe technique for the mid-drain crash: pe_crash virtual times shift
// under checkpoint traffic, so the crash time cannot be derived from a
// checkpoint-free run. Instead the probe run arms the SAME config with a
// crash far past quiescence (the injector always fires: the app finishes,
// the far crash hits, the rollback replays the tail). Its pre-crash
// trajectory is therefore exactly the real run's, and its trace gives the
// exact [handoff-shipped, retire] window; the real run then pins its crash
// to the middle of that window. Deterministic by construction.
//
// The lifecycle triggers are round-driven from the driver and IDEMPOTENT:
// a rollback rewinds the driver's round counter, so round 16/32 can be
// reached twice — the driver re-requests only if the machine has not grown
// / the victim is still Active (a re-drive of a pending drain is the
// supervisor's job, via the restored drain intent).
//
// Flags (besides the standard BenchRunner set):
//   --workers <n>        worker elements (default 24)
//   --rounds <n>         request rounds (default 48)
//   --state-doubles <n>  per-worker state (handoff payload, default 4096)
//   --compute-us <t>     modeled per-request compute (default 30)
//   --skip-crash         clean lifecycle legs only

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "charm/chare.hpp"
#include "charm/checkpoint.hpp"
#include "charm/lifecycle.hpp"
#include "charm/marshal.hpp"
#include "charm/message.hpp"
#include "charm/pup.hpp"
#include "ckdirect/ckdirect.hpp"
#include "fault/fault.hpp"
#include "harness/bench_runner.hpp"
#include "harness/machines.hpp"
#include "obs/histogram.hpp"
#include "sim/trace.hpp"
#include "util/args.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace {

using namespace ckd;

constexpr std::uint64_t kOob = 0xE1A5F1CBADC0FFEEull;

std::uint64_t fnv(const void* data, std::size_t bytes,
                  std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hexDigest(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
  return out;
}

struct Params {
  int workers = 24;
  int rounds = 48;
  std::size_t stateDoubles = 4096;  ///< per-worker state = handoff payload
  double computeUs = 30.0;
  std::size_t reqBytes = 256;       ///< CkDirect request payload
  int scaleOutAfterRound = 16;      ///< -1: no scale-out (BG/P leg)
  int scaleOutPes = 4;
  int drainAfterRound = 32;         ///< -1: no drain
  int drainPe = 5;
};

class WorkerChare : public charm::Chare {
 public:
  std::vector<double> state;
  std::vector<std::byte> recvBuf;
  int served = 0;

  void pup(charm::Puper& p) override {
    p | state;
    p | recvBuf;  // in place: the CkDirect registration keys off data()
    p | served;
  }
};

class DriverChare : public charm::Chare {
 public:
  int round = 0;
  int replies = 0;
  bool cutSeen = false;
  std::vector<double> sentAt;
  std::vector<std::vector<std::byte>> sendBufs;
  /// Reply-arrival order; deterministic across shard counts.
  std::vector<double> latencies;
  std::vector<std::int32_t> latencyRound;
  std::vector<double> roundDone;  ///< virtual completion time per round

  void pup(charm::Puper& p) override {
    p | round;
    p | replies;
    p | cutSeen;
    p | sentAt;
    for (std::vector<std::byte>& buf : sendBufs) p | buf;  // in place
    p | latencies;
    p | latencyRound;
    p | roundDone;
  }
};

/// Everything the entry methods need; lives for the whole run (handles and
/// entry ids are construction-time constants, like the stencil app's).
struct App {
  charm::Runtime& rts;
  Params par;
  int basePes = 0;
  charm::ArrayId workersArr = -1;
  charm::ArrayId driverArr = -1;
  charm::EntryId epRequest = -1;   // workers: CkDirect request landed
  charm::EntryId epCut = -1;       // workers: reduction completion
  charm::EntryId epReply = -1;     // driver: one worker replied
  charm::EntryId epCutDone = -1;   // driver: the round's cut completed
  std::vector<direct::Handle> handles;

  App(charm::Runtime& r, Params p) : rts(r), par(std::move(p)) {}

  DriverChare& driver() {
    return static_cast<DriverChare&>(rts.element(driverArr, 0));
  }
  WorkerChare& worker(std::int64_t i) {
    return static_cast<WorkerChare&>(rts.element(workersArr, i));
  }

  void startRound() {
    DriverChare& d = driver();
    d.replies = 0;
    d.cutSeen = false;
    for (int i = 0; i < par.workers; ++i) {
      std::vector<std::byte>& buf = d.sendBufs[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j + 8 < buf.size(); ++j)
        buf[j] = static_cast<std::byte>(
            (static_cast<std::size_t>(d.round) * 131u + j * 7u +
             static_cast<std::size_t>(i)) &
            0xffu);
      // The CkDirect arrival sentinel lives in the last 8 bytes; round+1
      // can never collide with kOob.
      const std::uint64_t stamp = static_cast<std::uint64_t>(d.round) + 1;
      std::memcpy(buf.data() + buf.size() - sizeof(stamp), &stamp,
                  sizeof(stamp));
      d.sentAt[static_cast<std::size_t>(i)] = d.now();
      direct::put(handles[static_cast<std::size_t>(i)]);
    }
  }

  void onRequest(WorkerChare& w) {
    w.charge(par.computeUs);
    // Deterministic state evolution: fold the request bytes in, then relax.
    const std::uint64_t digest = fnv(w.recvBuf.data(), w.recvBuf.size());
    w.state[static_cast<std::size_t>(w.served) % w.state.size()] +=
        static_cast<double>(digest % 1024u) * 1e-6;
    ++w.served;
    direct::ready(handles[static_cast<std::size_t>(w.thisIndex())]);
    charm::Packer pk;
    pk.put<std::int64_t>(w.thisIndex());
    rts.sendPacked(driverArr, 0, epReply, std::move(pk));
    // The per-round reduction is the migration/checkpoint cut; every
    // channel is idle (ready'd, no put in flight) when it closes.
    w.barrier(epCut);
  }

  void onReply(charm::Message& msg) {
    DriverChare& d = driver();
    charm::Unpacker up(msg.payload());
    const auto idx = static_cast<std::size_t>(up.get<std::int64_t>());
    d.latencies.push_back(d.now() - d.sentAt[idx]);
    d.latencyRound.push_back(d.round);
    ++d.replies;
    maybeAdvance();
  }

  void onCutDone() {
    DriverChare& d = driver();
    d.cutSeen = true;
    maybeAdvance();
  }

  void maybeAdvance() {
    DriverChare& d = driver();
    if (d.replies < par.workers || !d.cutSeen) return;
    d.roundDone.push_back(d.now());
    // Round-driven lifecycle triggers, guarded so a post-rollback replay
    // that re-reaches the trigger round does not double-request: grown PEs
    // stay provisioned across a rollback, and an interrupted drain survives
    // as restored intent (re-driven by the supervisor, not re-requested).
    charm::LifecycleManager* life = rts.lifecycle();
    if (life != nullptr && d.round == par.scaleOutAfterRound &&
        rts.numPes() < basePes + par.scaleOutPes)
      life->requestScaleOut(par.scaleOutPes);
    if (life != nullptr && d.round == par.drainAfterRound &&
        life->state(par.drainPe) == charm::PeState::kActive)
      life->requestDrain(par.drainPe);
    ++d.round;
    if (d.round < par.rounds) startRound();
  }
};

struct RunResult {
  std::uint64_t stateDigest = 0;  ///< worker state only (crash-invariant)
  std::uint64_t fullDigest = 0;   ///< + latencies/timing (rerun-invariant)
  std::vector<double> latencies;
  std::vector<std::int32_t> latencyRound;
  double horizon = 0.0;
  std::uint64_t crashes = 0, restores = 0, checkpoints = 0;
  std::uint64_t scaleOuts = 0, drains = 0, migrated = 0, aborted = 0;
  std::uint64_t handoffBytes = 0, retireEvents = 0;
  double firstHandoffAt = -1.0, firstRetireAt = -1.0;
  /// Ship time of the handoff pass that the first retire completed — the
  /// drain's own shipping, as opposed to an earlier post-scale-out
  /// rebalance (firstHandoffAt picks up whichever came first).
  double drainHandoffAt = -1.0;
  double crashAt = -1.0;
  int finalPes = 0, activePes = 0;
};

RunResult runElastic(charm::MachineConfig machine, const Params& par,
                     const harness::BenchRunner* runner = nullptr,
                     harness::ProfileReport* profile = nullptr) {
  charm::Runtime rts(machine);
  // The result extraction reads the merged trace (per-engine counters do
  // not aggregate across shards), so the ring is always on.
  rts.enableTracing();
  if (runner != nullptr && runner->traceEnabled())
    runner->configureTrace(rts.engine().trace());
  auto app = std::make_shared<App>(rts, par);
  app->basePes = rts.numPes();

  app->driverArr = rts.createArray<DriverChare>(
      "driver", 1, [](std::int64_t) { return 0; },
      [&](std::int64_t) {
        auto d = std::make_unique<DriverChare>();
        d->sentAt.assign(static_cast<std::size_t>(par.workers), 0.0);
        d->sendBufs.assign(static_cast<std::size_t>(par.workers),
                           std::vector<std::byte>(par.reqBytes, std::byte{0}));
        return d;
      });
  const int pes = rts.numPes();
  app->workersArr = rts.createArray<WorkerChare>(
      "workers", par.workers,
      [pes](std::int64_t i) { return static_cast<int>(i) % pes; },
      [&](std::int64_t i) {
        auto w = std::make_unique<WorkerChare>();
        w->state.assign(par.stateDoubles, static_cast<double>(i) + 0.5);
        w->recvBuf.assign(par.reqBytes, std::byte{0});
        return w;
      });

  app->epRequest = rts.registerEntryRaw(
      app->workersArr, "request", [app](charm::Chare& c, charm::Message&) {
        app->onRequest(static_cast<WorkerChare&>(c));
      });
  app->epCut = rts.registerEntryRaw(
      app->workersArr, "cut", [app](charm::Chare& c, charm::Message&) {
        if (c.thisIndex() != 0) return;
        app->rts.sendToElement(app->driverArr, 0, app->epCutDone, {});
      });
  app->epReply = rts.registerEntryRaw(
      app->driverArr, "reply",
      [app](charm::Chare&, charm::Message& m) { app->onReply(m); });
  app->epCutDone = rts.registerEntryRaw(
      app->driverArr, "cutDone",
      [app](charm::Chare&, charm::Message&) { app->onCutDone(); });

  // Per-worker CkDirect request channel: driver (PE 0) -> worker i. The
  // arrival callback only enqueues; the compute runs as an entry method.
  for (std::int64_t i = 0; i < par.workers; ++i) {
    WorkerChare& w = app->worker(i);
    app->handles.push_back(direct::createHandle(
        rts, rts.homePe(app->workersArr, i), w.recvBuf.data(), par.reqBytes,
        kOob, [app, i]() {
          app->rts.sendToElement(app->workersArr, i, app->epRequest, {});
        }));
    direct::assocLocal(
        app->handles.back(), 0,
        app->driver().sendBufs[static_cast<std::size_t>(i)].data());
  }

  // Rehome each migrated worker's request channel — the drain headline.
  rts.setMigrateHook([app](charm::ArrayId a, std::int64_t idx, int /*from*/,
                           int to) {
    if (a != app->workersArr) return;  // the driver never migrates off PE 0
    direct::rehome(app->handles[static_cast<std::size_t>(idx)], to);
  });

  rts.seed([app]() {
    // Fail-stop runs: the setup phase is not a resumable cut; arm crash
    // injection at the setup/run boundary (the stencil app's discipline).
    if (app->rts.checkpoints() != nullptr) app->rts.checkpoints()->arm();
    app->startRound();
  });
  rts.run();

  RunResult out;
  for (std::int64_t i = 0; i < par.workers; ++i) {
    const WorkerChare& w = app->worker(i);
    out.stateDigest = fnv(w.state.data(), w.state.size() * sizeof(double),
                          out.stateDigest != 0 ? out.stateDigest
                                               : 1469598103934665603ull);
    out.stateDigest = fnv(&w.served, sizeof(w.served), out.stateDigest);
  }
  const DriverChare& d = app->driver();
  out.latencies = d.latencies;
  out.latencyRound = d.latencyRound;
  out.horizon = rts.now();
  out.fullDigest = fnv(d.latencies.data(),
                       d.latencies.size() * sizeof(double), out.stateDigest);
  out.fullDigest = fnv(d.roundDone.data(),
                       d.roundDone.size() * sizeof(double), out.fullDigest);
  out.fullDigest = fnv(&out.horizon, sizeof(out.horizon), out.fullDigest);

  std::vector<double> handoffTimes;
  for (const sim::TraceEvent& ev : rts.traceEvents()) {
    switch (ev.tag) {
      case sim::TraceTag::kFaultPeCrash:
        ++out.crashes;
        if (out.crashAt < 0.0) out.crashAt = ev.time;
        break;
      case sim::TraceTag::kCkptRestore: ++out.restores; break;
      case sim::TraceTag::kCkptTaken: ++out.checkpoints; break;
      case sim::TraceTag::kLifeHandoff:
        if (out.firstHandoffAt < 0.0 || ev.time < out.firstHandoffAt)
          out.firstHandoffAt = ev.time;
        handoffTimes.push_back(ev.time);
        break;
      case sim::TraceTag::kLifeRetire:
        ++out.retireEvents;
        if (out.firstRetireAt < 0.0 || ev.time < out.firstRetireAt)
          out.firstRetireAt = ev.time;
        break;
      default: break;
    }
  }
  for (const double t : handoffTimes)
    if (t < out.firstRetireAt && t > out.drainHandoffAt) out.drainHandoffAt = t;
  if (const charm::LifecycleManager* life = rts.lifecycle()) {
    out.scaleOuts = life->scaleOuts();
    out.drains = life->drainsCompleted();
    out.migrated = life->elementsMigrated();
    out.aborted = life->migrationsAborted();
    out.handoffBytes = life->handoffBytesShipped();
    out.activePes = life->activePes();
  }
  out.finalPes = rts.numPes();
  if (profile != nullptr) *profile = harness::captureProfile(rts);
  return out;
}

/// Percentile through the same log-bucketed histogram the streaming
/// telemetry reports (obs::Histogram), so the table and the
/// --metrics-interval series agree exactly. The returned value is a bucket
/// midpoint within Histogram::kRelativeError (1/64 ≈ 1.6%) of the exact
/// order statistic the old sort-based implementation produced; the
/// p99-recovery gate below keeps ~17% headroom, an order of magnitude more
/// than the bucket resolution.
double percentile(const std::vector<double>& values, double p) {
  CKD_REQUIRE(!values.empty(), "percentile of an empty sample");
  obs::Histogram hist;
  for (const double v : values) hist.record(v);
  return hist.percentile(p);
}

/// Request latencies of rounds in [lo, hi).
std::vector<double> phaseLatencies(const RunResult& run, int lo, int hi) {
  std::vector<double> out;
  for (std::size_t i = 0; i < run.latencies.size(); ++i)
    if (run.latencyRound[i] >= lo && run.latencyRound[i] < hi)
      out.push_back(run.latencies[i]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ckd;
  util::Args args(argc, argv);
  harness::BenchRunner runner("soak_elastic", args);

  Params par;
  par.workers = static_cast<int>(args.getInt("workers", 24));
  par.rounds = static_cast<int>(args.getInt("rounds", 48));
  par.stateDoubles =
      static_cast<std::size_t>(args.getInt("state-doubles", 4096));
  par.computeUs = args.getDouble("compute-us", 30.0);
  const bool skipCrash = args.getBool("skip-crash", false);
  CKD_REQUIRE(par.rounds > par.drainAfterRound + 4,
              "need rounds after the drain to observe retirement");

  util::TablePrinter table;
  table.setTitle("Elastic soak: ramp -> scale-out -> drain -> crash mid-drain");
  table.setHeader({"leg", "p99 ramp", "p99 grown", "p99 drained", "migrated",
                   "events", "digest"});

  const auto addPhaseMetrics = [&runner](const char* leg, const char* phase,
                                         const std::vector<double>& lat) {
    util::JsonValue labels = util::JsonValue::object();
    labels.set("leg", util::JsonValue(leg));
    labels.set("phase", util::JsonValue(phase));
    runner.addMetric("latency_p50_us", percentile(lat, 0.50), "us", labels);
    runner.addMetric("latency_p99_us", percentile(lat, 0.99), "us",
                     std::move(labels));
  };

  std::uint64_t totalAborts = 0;
  for (const bool bgp : {false, true}) {
    const char* leg = bgp ? "bgp" : "ib";
    Params legPar = par;
    if (bgp) legPar.scaleOutAfterRound = -1;  // the torus does not grow
    // 4 nodes up front so --shards 4 really shards 4 ways; the IB leg adds
    // 2 more on scale-out. The drain victim hosts workers in both phases.
    // Every run gets a FRESH machine: the scale-out grows the topology the
    // config's shared_ptr points at, so reusing one config would start the
    // next run on the already-grown machine.
    const auto makeMachine = [&runner, bgp]() {
      charm::MachineConfig m = bgp ? harness::elasticSurveyorMachine(8, 2)
                                   : harness::elasticAbeMachine(8, 2);
      // IB leg: windowed engine as the canonical baseline — faulted
      // timelines are only comparable across shard counts >= 1 (the
      // windowed engine defers checkpoint/lifecycle work to serial
      // boundaries; legacy inlines it). The sharded engine does not cover
      // the DCMF layer, so the BG/P leg runs the classic engine and its
      // determinism gate is the rerun.
      m.shards = bgp ? 0 : 1;
      m.shardThreads = bgp ? 0 : 1;
      runner.applyEngine(m);
      runner.applyMetrics(m);
      return m;
    };

    const RunResult clean = runElastic(makeMachine(), legPar, &runner);
    CKD_REQUIRE(clean.crashes == 0, "clean run must not crash");
    if (clean.drains != 1)
      std::cerr << "clean[" << leg << "]: drains " << clean.drains
                << " retires " << clean.retireEvents << " migrated "
                << clean.migrated << " scaleOuts " << clean.scaleOuts
                << " horizon " << clean.horizon << " lat n "
                << clean.latencies.size() << " activePes " << clean.activePes
                << " finalPes " << clean.finalPes << "\n";
    CKD_REQUIRE(clean.drains == 1, "the drain must complete");
    CKD_REQUIRE(clean.retireEvents == 1, "the drained PE must retire");
    CKD_REQUIRE(clean.migrated > 0, "the drain must migrate resident workers");
    if (!bgp) {
      CKD_REQUIRE(clean.scaleOuts == 1, "the scale-out must run");
      CKD_REQUIRE(clean.finalPes == 12, "8 PEs + 4 grown");
      CKD_REQUIRE(clean.activePes == 11, "12 PEs minus the retired one");
    }

    // Phase split, skipping the first 4 rounds of each phase: warm-up and
    // the join / migration transients are real but not steady state.
    const int grow = legPar.scaleOutAfterRound;
    const std::vector<double> ramp =
        phaseLatencies(clean, 4, grow > 0 ? grow : legPar.drainAfterRound);
    const std::vector<double> grown =
        grow > 0 ? phaseLatencies(clean, grow + 4, legPar.drainAfterRound)
                 : std::vector<double>();
    const std::vector<double> drained =
        phaseLatencies(clean, legPar.drainAfterRound + 4, legPar.rounds);
    addPhaseMetrics(leg, "ramp", ramp);
    if (!grown.empty()) addPhaseMetrics(leg, "post_scale_out", grown);
    addPhaseMetrics(leg, "post_drain", drained);
    if (!grown.empty()) {
      // The elastic headline: more PEs -> fewer workers per PE -> shorter
      // per-request queueing.
      CKD_REQUIRE(percentile(grown, 0.99) < percentile(ramp, 0.99),
                  "p99 latency did not recover after the scale-out");
    }

    table.addRow(
        {std::string(leg) + "/clean",
         util::formatFixed(percentile(ramp, 0.99), 2) + " us",
         grown.empty() ? std::string("-")
                       : util::formatFixed(percentile(grown, 0.99), 2) + " us",
         util::formatFixed(percentile(drained, 0.99), 2) + " us",
         std::to_string(clean.migrated), "-", hexDigest(clean.fullDigest)});

    // Determinism: a rerun of the identical config, then the shard-count
    // sweep — every windowed partition must produce the identical full
    // digest (latencies, round completion times, horizon, worker state).
    const RunResult again = runElastic(makeMachine(), legPar);
    if (again.fullDigest != clean.fullDigest) {
      std::cerr << "rerun divergence: state " << hexDigest(clean.stateDigest)
                << " vs " << hexDigest(again.stateDigest) << ", horizon "
                << clean.horizon << " vs " << again.horizon << ", lat n "
                << clean.latencies.size() << " vs " << again.latencies.size()
                << "\n";
      for (std::size_t i = 0;
           i < std::min(clean.latencies.size(), again.latencies.size()); ++i)
        if (clean.latencies[i] != again.latencies[i] ||
            clean.latencyRound[i] != again.latencyRound[i]) {
          std::cerr << "  first lat diff at " << i << ": round "
                    << clean.latencyRound[i] << "/" << again.latencyRound[i]
                    << " lat " << clean.latencies[i] << "/"
                    << again.latencies[i] << "\n";
          break;
        }
    }
    CKD_REQUIRE(again.fullDigest == clean.fullDigest,
                "elastic lifecycle run is not deterministic across reruns");
    if (!bgp) {
      for (const int shards : {2, 4}) {
        charm::MachineConfig sharded = makeMachine();
        sharded.shards = shards;
        const RunResult s = runElastic(sharded, legPar);
        CKD_REQUIRE(s.fullDigest == clean.fullDigest,
                    "elastic lifecycle diverged across shard counts");
      }
    }

    if (!skipCrash) {
      // --- Crash mid-drain. Probe first: the same config plus a crash far
      // past quiescence pins down the exact [handoff, retire] window under
      // checkpoint traffic (see the file header).
      // An adoptive PE, not the drain victim: the rebalance gives the
      // remainder elements to the lowest-numbered active PEs, so PE 1
      // receives a handoff shard on both legs (and exists at construction,
      // which the crash-spec validation requires — grown PEs do not).
      const int victim = 1;
      const auto makeFaulted = [&](const std::string& spec) {
        charm::MachineConfig m = makeMachine();
        m.faults = fault::parseFaultSpec(spec);
        m.faultSeed = runner.faultSeed();
        // ~10 checkpoints across the run so rollback loses little progress
        // (the soak_faults sizing rule).
        m.checkpointPeriod_us = clean.horizon / 10.0;
        return m;
      };
      const RunResult probe = runElastic(
          makeFaulted("pe_crash@" + std::to_string(4.0 * clean.horizon) +
                      ";pe=" + std::to_string(victim)),
          legPar);
      if (probe.crashes != 1 || probe.restores != 1)
        std::cerr << "probe: crashes " << probe.crashes << " restores "
                  << probe.restores << " ckpts " << probe.checkpoints
                  << " horizon " << probe.horizon << " (clean "
                  << clean.horizon << ")\n";
      CKD_REQUIRE(probe.crashes == 1 && probe.restores == 1,
                  "probe crash past quiescence must still recover");
      CKD_REQUIRE(probe.stateDigest == clean.stateDigest,
                  "probe tail-replay diverged from the clean run");
      CKD_REQUIRE(probe.drainHandoffAt > 0.0 &&
                      probe.firstRetireAt > probe.drainHandoffAt,
                  "probe trace lost the drain handoff window");

      for (const bool killDrainPe : {false, true}) {
        // Mid-handoff crash of an adoptive PE, then of the draining PE
        // itself; both must abort the migration, roll back, and re-drive.
        const int pe = killDrainPe ? legPar.drainPe : victim;
        // Midpoint of the DRAIN's shipping window (not firstHandoffAt, which
        // on the IB leg is the earlier post-scale-out rebalance handoff).
        const double at = 0.5 * (probe.drainHandoffAt + probe.firstRetireAt);
        const std::string crashSpec = "pe_crash@" + std::to_string(at) +
                                      ";pe=" + std::to_string(pe);
        harness::ProfileReport report;
        const RunResult soak =
            runElastic(makeFaulted(crashSpec), legPar, &runner,
                       runner.wantsProfiles() ? &report : nullptr);
        if (runner.wantsProfiles()) {
          report.label = std::string(leg) + (killDrainPe ? "/crash_drain_pe"
                                                         : "/crash_adoptive");
          runner.addProfile(std::move(report));
        }
        CKD_REQUIRE(soak.crashes == 1, "the mid-drain crash must fire");
        CKD_REQUIRE(soak.restores == 1, "the crash must be recovered from");
        if (soak.aborted < 1)
          std::cerr << "soak: crash at " << at << " window ["
                    << probe.drainHandoffAt << ", " << probe.firstRetireAt
                    << "] soak handoff at " << soak.firstHandoffAt
                    << " crashed at " << soak.crashAt
                    << " retire at " << soak.firstRetireAt << " drains "
                    << soak.drains << " migrated " << soak.migrated
                    << " retireEvents " << soak.retireEvents << "\n";
        CKD_REQUIRE(soak.aborted >= 1,
                    "the crash landed mid-handoff yet no migration aborted");
        CKD_REQUIRE(soak.drains == 1,
                    "the drain must still complete after the rollback");
        CKD_REQUIRE(soak.stateDigest == clean.stateDigest,
                    "crash mid-drain diverged from the clean worker state");
        totalAborts += soak.aborted;

        if (!killDrainPe) {
          // The headline config (crash of an adoptive PE mid-handoff) must
          // be bit-identical across shard counts and robust across injector
          // seeds (the crash is pinned, so the seed must not matter).
          for (const int shards : bgp ? std::vector<int>{}
                                      : std::vector<int>{2, 4}) {
            charm::MachineConfig sharded = makeFaulted(crashSpec);
            sharded.shards = shards;
            const RunResult s = runElastic(sharded, legPar);
            CKD_REQUIRE(s.fullDigest == soak.fullDigest,
                        "crash mid-drain diverged across shard counts");
          }
          charm::MachineConfig reseeded = makeFaulted(crashSpec);
          reseeded.faultSeed = runner.faultSeed() + 1;
          const RunResult r = runElastic(reseeded, legPar);
          CKD_REQUIRE(r.restores == 1 && r.drains == 1 &&
                          r.stateDigest == clean.stateDigest,
                      "crash mid-drain recovery is seed-sensitive");
        }

        table.addRow({std::string(leg) + (killDrainPe ? "/crash_drain"
                                                      : "/crash_adopt"),
                      "-", "-", "-", std::to_string(soak.migrated),
                      std::to_string(soak.crashes) + " crash, " +
                          std::to_string(soak.aborted) + " abort",
                      hexDigest(soak.stateDigest)});
        util::JsonValue labels = util::JsonValue::object();
        labels.set("leg", util::JsonValue(leg));
        labels.set("victim", util::JsonValue(static_cast<std::int64_t>(pe)));
        runner.addMetric("migrations_aborted",
                         static_cast<double>(soak.aborted), "count", labels);
        runner.addMetric("restores", static_cast<double>(soak.restores),
                         "count", std::move(labels));
      }
    }

    util::JsonValue labels = util::JsonValue::object();
    labels.set("leg", util::JsonValue(leg));
    runner.addMetric("elements_migrated", static_cast<double>(clean.migrated),
                     "count", labels);
    runner.addMetric("handoff_bytes", static_cast<double>(clean.handoffBytes),
                     "bytes", labels);
    runner.addMetric("horizon_us", clean.horizon, "us", std::move(labels));
  }
  if (!skipCrash)
    CKD_REQUIRE(totalAborts >= 2, "every mid-drain crash must hit a handoff");

  table.print(std::cout);
  std::cout << "elastic soak ok: scale-out recovered p99, drains retired, "
               "mid-drain crashes rolled back\n";
  return runner.finish();
}
