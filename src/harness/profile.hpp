#pragma once
// Post-run profiling: summarizes where a simulation spent its (virtual)
// time — per-PE utilization, scheduler activity, fabric traffic, CkDirect
// polling, and the per-layer time attribution collected by the engine's
// TraceRecorder — in a compact report the benches can print with --profile
// or serialize with --json. Roughly the role Projections plays for real
// Charm++ runs.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "charm/runtime.hpp"
#include "sim/causal.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace ckd::harness {

struct ProfileReport {
  std::string label;                   ///< which run this report describes
  int pes = 0;
  sim::Time horizon_us = 0.0;          ///< engine.now() at capture
  util::RunningStats utilization;      ///< busy fraction per PE
  util::RunningStats messagesPerPe;    ///< scheduler messages per PE
  util::RunningStats pumpsPerPe;       ///< scheduler pumps per PE
  std::uint64_t fabricBytes = 0;
  std::uint64_t runtimeMessages = 0;
  std::uint64_t ckdirectPuts = 0;      ///< logical puts; 0 when CkDirect unused

  /// Checkpoint/restart state (all zero unless pe_crash faults armed a
  /// CheckpointManager for the run).
  std::uint64_t checkpointBytes = 0;   ///< chare state packed to buddies
  sim::Time recoveryUs = 0.0;          ///< crash -> restored, summed
  sim::Time heartbeatPeriodUs = 0.0;   ///< effective --heartbeat-period
  int heartbeatMisses = 0;             ///< effective --heartbeat-misses

  /// Parallel-engine counters (all zero on classic serial runs).
  int shards = 0;                      ///< 0 when the serial engine ran
  std::uint64_t windows = 0;           ///< conservative windows executed
  std::uint64_t ringPushes = 0;        ///< cross-shard ring entries published
  std::uint64_t ringBatches = 0;       ///< release-stores that published them
  std::uint64_t ringOverflow = 0;      ///< entries spilled to chained segments

  /// Elastic lifecycle counters (all zero unless the run had a
  /// LifecycleManager).
  std::uint64_t elementsMigrated = 0;
  std::uint64_t handoffBytes = 0;
  std::uint64_t handoffRetries = 0;

  /// Virtual time attributed to each runtime tier, indexed by sim::Layer.
  std::array<sim::Time, sim::kLayerCount> layerTime_us{};
  sim::Time layerSum_us = 0.0;
  /// layerSum / horizon; ~1.0 on serial workloads, >1 with overlap.
  double layerCoverage = 0.0;

  /// Per-tag trace point counts, indexed by sim::TraceTag. Event counts
  /// with a tag (fabric transfers, CkDirect callbacks, checkpoints taken,
  /// restarts, scale-outs, drains, aborted migrations) are read from here.
  std::array<std::uint64_t, sim::kTraceTagCount> tagCounts{};
  std::uint64_t tag(sim::TraceTag t) const {
    return tagCounts[static_cast<std::size_t>(t)];
  }
  /// Poll-queue length histogram (log2 buckets, see TraceRecorder).
  std::array<std::uint64_t, sim::TraceRecorder::kPollHistBuckets> pollHist{};
  /// Rendezvous RTS -> ack round-trip times.
  util::RunningStats rendezvousRtt_us;
  /// Wire transmissions consumed per acknowledged reliable message (1.0
  /// everywhere means no retransmission happened; only populated when a
  /// fault plan was armed).
  util::RunningStats deliveryAttempts;

  /// Ring-buffer state plus the retained events (empty unless the trace
  /// ring was enabled for the run).
  std::uint64_t traceRecorded = 0;
  std::uint64_t traceDropped = 0;
  std::vector<sim::TraceEvent> traceEvents;

  /// Causal-chain headline numbers, derived from traceEvents (all zero
  /// unless the event ring was enabled). criticalPath_us is the span of the
  /// longest parent-link chain; the latency summaries carry exact-sum
  /// per-layer splits (see sim::CausalGraph).
  std::size_t causalChains = 0;
  sim::Time criticalPath_us = 0.0;
  std::size_t criticalPathHops = 0;
  sim::LatencySummary putLatency;
  sim::LatencySummary msgLatency;

  /// Streaming-telemetry block (ckd.metrics.v1: flight-recorder series +
  /// merged SLO summary); null unless the run armed metrics
  /// (--metrics-interval). Rendered as Perfetto counter tracks by
  /// writePerfettoTrace and embedded under "telemetry" in the bench JSON.
  util::JsonValue telemetry;

  /// Multi-line human-readable summary.
  std::string toString() const;
};

/// Capture a report from a finished (or paused) runtime.
ProfileReport captureProfile(charm::Runtime& rts);

/// Serialize to the documented BENCH_*.json "profile" schema.
util::JsonValue toJson(const ProfileReport& report);

}  // namespace ckd::harness
