#pragma once
// Shared CLI + output plumbing for the bench binaries. Every bench/*.cpp
// constructs a BenchRunner from its Args and gains three flags:
//
//   --profile           print captured ProfileReports (human readable)
//   --json <file>       write metrics + profiles in the ckd.bench.v1 schema
//   --trace-dump <file> enable the engine's event ring and write the
//                       retained events in the ckd.trace.v1 schema
//   --trace-perfetto <file>
//                       enable the ring and write a Chrome trace-event /
//                       Perfetto JSON timeline (one track per PE, one per
//                       CkDirect channel, flow arrows along causal chains)
//   --trace-filter <spec>
//                       restrict --trace-dump events: comma-separated tag
//                       globs ("direct.*,sched.deliver") OR'd together,
//                       plus an optional pe=N token ("direct.*,pe=1")
//   --trace-cap <n>     ring capacity in events (default ~1M)
//   --faults <spec>     arm deterministic fault injection (fault::parseFaultSpec
//                       grammar, e.g. "drop:0.01,corrupt:0.005;class=bulk" or
//                       "pe_crash@3000;pe=2" for fail-stop faults)
//   --fault-seed <n>    RNG seed for the fault injector (default 1)
//   --checkpoint-period <us>
//                       virtual time between buddy checkpoints when pe_crash
//                       faults are armed (default MachineConfig's 100 us)
//   --heartbeat-period <us>
//                       virtual time between fail-stop heartbeats (default
//                       MachineConfig's 5 us)
//   --heartbeat-misses <n>
//                       consecutive missed beats before a PE is declared
//                       crashed (default MachineConfig's 4)
//   --scale-plan <spec> elastic lifecycle script (charm::parseScalePlan
//                       grammar, e.g. "scale_out@400;pes=8,drain@900;pe=2")
//   --shards <n>        run under the thread-sharded parallel engine with n
//                       shards (0 = classic serial engine); capped to the
//                       machine's node count at runtime construction
//   --shard-threads <n> host worker threads driving the shards (0 = one per
//                       shard up to hardware concurrency; 1 = sequential
//                       shard execution, useful for determinism A/B)
//   --metrics-interval <us>
//                       arm streaming telemetry: SLO histograms on every
//                       engine plus a flight-recorder snapshot of every
//                       probe/percentile each <us> of virtual time; the
//                       ckd.metrics.v1 block lands under each profile's
//                       "telemetry" key and as Perfetto counter tracks
//   --metrics-snapshots <n>
//                       flight-recorder ring capacity (default 512; oldest
//                       snapshots drop once full)
//
// When given, --trace-cap, --metrics-snapshots, --checkpoint-period,
// --heartbeat-period and --heartbeat-misses must be positive (the misses at
// most INT_MAX), --shards and --shard-threads in [0, INT_MAX], and
// --metrics-interval non-negative; anything else aborts via CKD_REQUIRE.
//
// Usage:
//   util::Args args(argc, argv);
//   harness::BenchRunner runner("table1_pingpong_ib", args);
//   ...
//   runner.addMetric("rtt_us", rtt, "us", {{"variant","charm"},...});
//   if (runner.wantsProfiles()) runner.addProfile(std::move(report));
//   ...
//   return runner.finish();  // prints/writes everything, returns exit code

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "harness/profile.hpp"
#include "harness/trace_export.hpp"
#include "sim/trace.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace ckd::harness {

class BenchRunner {
 public:
  BenchRunner(std::string name, const util::Args& args);

  /// True when any of --profile / --json / --trace-dump / --trace-perfetto
  /// was given: the bench should capture a ProfileReport per run and
  /// addProfile() it.
  bool wantsProfiles() const { return profile_ || !jsonPath_.empty() ||
                                      traceEnabled(); }
  /// True when --trace-dump or --trace-perfetto was given: runs should
  /// enable the event ring.
  bool traceEnabled() const {
    return !tracePath_.empty() || !perfettoPath_.empty();
  }
  std::size_t traceCapacity() const { return traceCap_; }

  /// Apply the trace flags to a recorder (capacity + enable). Call before
  /// the run, while the ring is still empty.
  void configureTrace(sim::TraceRecorder& trace) const;

  /// True when --faults parsed to a non-empty plan.
  bool faultsArmed() const { return faultPlan_.armed(); }
  const fault::FaultPlan& faultPlan() const { return faultPlan_; }
  std::uint64_t faultSeed() const { return faultSeed_; }
  /// --checkpoint-period value, or a negative number when not given.
  double checkpointPeriod() const { return checkpointPeriod_; }
  /// --scale-plan spec (empty when not given).
  const std::string& scalePlan() const { return scalePlan_; }
  /// Copy the --faults plan + seed (and --checkpoint-period /
  /// --heartbeat-*, when given) into a MachineConfig (no-op when unarmed);
  /// the runtime arms the fabric at construction.
  void applyFaults(charm::MachineConfig& machine) const;
  /// Copy --scale-plan and the --heartbeat-* overrides into a
  /// MachineConfig (each a no-op when not given).
  void applyLifecycle(charm::MachineConfig& machine) const;

  /// --shards / --shard-threads values (0 = legacy serial engine / auto).
  /// Reading shards() (or calling applyEngine) marks --shards as honoured;
  /// finish() refuses a --shards the bench never read.
  int shards() const {
    shardsRead_ = true;
    return shards_;
  }
  int shardThreads() const { return shardThreads_; }
  /// Copy --shards / --shard-threads into a MachineConfig (no-op when
  /// --shards was not given, leaving the classic serial engine).
  void applyEngine(charm::MachineConfig& machine) const;
  /// --metrics-interval / --metrics-snapshots values (0 = telemetry off).
  double metricsInterval() const { return metricsInterval_; }
  std::size_t metricsSnapshots() const { return metricsSnapshots_; }
  bool metricsEnabled() const { return metricsInterval_ > 0.0; }
  /// Copy --metrics-interval / --metrics-snapshots into a MachineConfig
  /// (no-op without --metrics-interval; the runtime arms telemetry at
  /// construction).
  void applyMetrics(charm::MachineConfig& machine) const;
  /// Snapshot the parallel engine's per-shard counters (executed events per
  /// shard, window count, lookahead) for the host JSON. Call after run(),
  /// while the runtime is still alive; no-op for serial runtimes. One
  /// snapshot per document: a bench that runs several sharded runtimes
  /// reports per-run counters as labelled metric rows instead.
  void recordShardStats(const charm::Runtime& rts);

  /// Record one scalar result row. `labels` is an optional JSON object of
  /// discriminators ({"variant":"ckdirect","bytes":100}).
  void addMetric(std::string name, double value, std::string unit,
                 util::JsonValue labels = util::JsonValue::object());

  /// Attach a captured profile; report.label should name the run.
  void addProfile(ProfileReport report);

  /// Print --profile output, write --json / --trace-dump files. Returns the
  /// process exit code (0 on success). Aborts when --shards was given to a
  /// bench that never applied it.
  int finish();

  /// Host-performance snapshot since this runner was constructed: wall time,
  /// events executed by every engine in the process, events/sec, peak RSS,
  /// and the buffer-pool hit/miss counters. Emitted as the "host" object of
  /// the ckd.bench.v1 JSON; also what --json consumers chart over time.
  util::JsonValue hostJson() const;

 private:
  void writeJson() const;
  void writeTraceDump() const;

  std::string name_;
  std::chrono::steady_clock::time_point wallStart_;
  std::uint64_t eventsAtStart_ = 0;
  std::uint64_t poolHitsAtStart_ = 0;
  std::uint64_t poolMissesAtStart_ = 0;
  std::uint64_t poolReleasesAtStart_ = 0;
  std::uint64_t poolUnpooledAtStart_ = 0;
  bool profile_ = false;
  std::string jsonPath_;
  std::string tracePath_;
  std::string perfettoPath_;
  TraceFilter traceFilter_;
  std::size_t traceCap_ = sim::TraceRecorder::kDefaultCapacity;
  fault::FaultPlan faultPlan_;
  std::uint64_t faultSeed_ = 1;
  double checkpointPeriod_ = -1.0;  ///< < 0: keep the MachineConfig default
  double heartbeatPeriod_ = -1.0;   ///< < 0: keep the MachineConfig default
  int heartbeatMisses_ = 0;         ///< 0: keep the MachineConfig default
  std::string scalePlan_;           ///< empty: no lifecycle script
  int shards_ = 0;                  ///< 0: classic serial engine
  mutable bool shardsRead_ = false; ///< shards() / applyEngine() was called
  int shardThreads_ = 0;            ///< 0: one thread per shard
  double metricsInterval_ = 0.0;    ///< 0: streaming telemetry off
  std::size_t metricsSnapshots_ = 0;  ///< 0: FlightRecorder default
  util::JsonValue shardStats_;      ///< recordShardStats() snapshot (or null)

  util::JsonValue metrics_ = util::JsonValue::array();
  std::vector<ProfileReport> profiles_;
};

}  // namespace ckd::harness
