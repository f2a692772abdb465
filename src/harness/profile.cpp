#include "harness/profile.hpp"

#include <sstream>

#include "charm/checkpoint.hpp"
#include "charm/lifecycle.hpp"
#include "ckdirect/ckdirect.hpp"
#include "util/table.hpp"

namespace ckd::harness {

namespace {

/// Trace-derived counters summed over every engine of the machine (one
/// engine serially, the serial engine plus every shard under --shards).
void captureTraceMetrics(ProfileReport& report, charm::Runtime& rts) {
  bool tracing = false;
  rts.forEachEngine([&report, &tracing](sim::Engine& eng) {
    const sim::TraceRecorder& trace = eng.trace();
    for (std::size_t i = 0; i < sim::kLayerCount; ++i)
      report.layerTime_us[i] += trace.layerTime(static_cast<sim::Layer>(i));
    report.layerSum_us += trace.totalLayerTime();
    for (std::size_t i = 0; i < sim::kTraceTagCount; ++i)
      report.tagCounts[i] += trace.count(static_cast<sim::TraceTag>(i));
    for (std::size_t i = 0; i < report.pollHist.size(); ++i)
      report.pollHist[i] += trace.pollQueueHistogram()[i];
    report.rendezvousRtt_us.merge(trace.rendezvousRtt());
    report.deliveryAttempts.merge(trace.deliveryAttempts());
    report.traceRecorded += trace.recorded();
    report.traceDropped += trace.dropped();
    tracing |= trace.enabled();
  });
  report.layerCoverage =
      report.horizon_us > 0.0 ? report.layerSum_us / report.horizon_us : 0.0;
  if (tracing) report.traceEvents = rts.traceEvents();
  if (!report.traceEvents.empty()) {
    const sim::CausalGraph graph(report.traceEvents);
    report.causalChains = graph.chains().size();
    const std::vector<sim::CausalChain> path = graph.criticalPath();
    report.criticalPathHops = path.size();
    report.criticalPath_us = graph.criticalPathSpan();
    report.putLatency = graph.putLatency();
    report.msgLatency = graph.messageLatency();
  }
}

}  // namespace

ProfileReport captureProfile(charm::Runtime& rts) {
  ProfileReport report;
  report.pes = rts.numPes();
  report.horizon_us = rts.now();
  // Scheduler stats only when some scheduler ran: the mini-MPI and PGAS
  // pingpongs bypass the schedulers entirely.
  bool pumped = false;
  for (int pe = 0; pe < report.pes; ++pe)
    pumped |= rts.scheduler(pe).pumps() > 0;
  for (int pe = 0; pumped && pe < report.pes; ++pe) {
    report.utilization.add(
        rts.processor(pe).utilization(report.horizon_us));
    report.messagesPerPe.add(
        static_cast<double>(rts.scheduler(pe).messagesProcessed()));
    report.pumpsPerPe.add(static_cast<double>(rts.scheduler(pe).pumps()));
  }
  report.fabricBytes = rts.fabric().bytesSubmitted();
  report.runtimeMessages = rts.messagesSent();
  // peek, not of(): profiling must never create the manager it observes.
  if (const direct::Manager* mgr = direct::Manager::peek(rts))
    report.ckdirectPuts = mgr->putsIssued();
  if (const charm::CheckpointManager* ckpt = rts.checkpoints()) {
    report.checkpointBytes = ckpt->bytesPacked();
    report.recoveryUs = ckpt->recoveryUs();
    report.heartbeatPeriodUs = ckpt->beatPeriodUs();
    report.heartbeatMisses = ckpt->missedBeats();
  }
  if (const sim::ParallelEngine* par = rts.parallelEngine()) {
    report.shards = par->shards();
    report.windows = par->windows();
    const sim::ParallelEngine::RingStats rings = par->ringStats();
    report.ringPushes = rings.pushes;
    report.ringBatches = rings.batches;
    report.ringOverflow = rings.overflow;
  }
  if (const charm::LifecycleManager* life = rts.lifecycle()) {
    report.elementsMigrated = life->elementsMigrated();
    report.handoffBytes = life->handoffBytesShipped();
    report.handoffRetries = life->handoffRetries();
  }
  captureTraceMetrics(report, rts);
  if (rts.metricsArmed()) report.telemetry = rts.metricsJson();
  return report;
}

std::string ProfileReport::toString() const {
  std::ostringstream out;
  out << "profile";
  if (!label.empty()) out << " [" << label << "]";
  out << ": " << pes << " PEs over " << util::formatFixed(horizon_us, 1)
      << " us\n";
  if (utilization.count() > 0) {
    out << "  utilization   min " << util::formatPercent(utilization.min())
        << "  mean " << util::formatPercent(utilization.mean()) << "  max "
        << util::formatPercent(utilization.max()) << "\n";
    out << "  sched msgs/PE mean " << util::formatFixed(messagesPerPe.mean(), 1)
        << "  (pumps/PE mean " << util::formatFixed(pumpsPerPe.mean(), 1)
        << ")\n";
  }
  out << "  fabric        " << tag(sim::TraceTag::kFabricSubmit)
      << " transfers, " << fabricBytes << " bytes; runtime messages "
      << runtimeMessages << "\n";
  if (ckdirectPuts > 0) {
    out << "  ckdirect      " << ckdirectPuts << " puts, "
        << tag(sim::TraceTag::kDirectCallback) << " callbacks\n";
  }
  if (layerSum_us > 0.0) {
    out << "  layers        ";
    for (std::size_t i = 0; i < sim::kLayerCount; ++i) {
      if (i) out << "  ";
      out << sim::layerName(static_cast<sim::Layer>(i)) << " "
          << util::formatFixed(layerTime_us[i], 2);
    }
    out << "  (sum " << util::formatFixed(layerSum_us, 2) << " us, "
        << util::formatPercent(layerCoverage) << " of horizon)\n";
  }
  if (rendezvousRtt_us.count() > 0) {
    out << "  rendezvous    " << rendezvousRtt_us.count() << " round trips, "
        << "rtt mean " << util::formatFixed(rendezvousRtt_us.mean(), 2)
        << " us (min " << util::formatFixed(rendezvousRtt_us.min(), 2)
        << ", max " << util::formatFixed(rendezvousRtt_us.max(), 2) << ")\n";
  }
  const std::uint64_t faultsInjected =
      tag(sim::TraceTag::kFaultDrop) + tag(sim::TraceTag::kFaultDelay) +
      tag(sim::TraceTag::kFaultDuplicate) + tag(sim::TraceTag::kFaultCorrupt) +
      tag(sim::TraceTag::kFaultQpError) +
      tag(sim::TraceTag::kFaultRegionInvalid);
  if (faultsInjected > 0) {
    out << "  faults        " << faultsInjected << " injected: drop "
        << tag(sim::TraceTag::kFaultDrop) << ", delay "
        << tag(sim::TraceTag::kFaultDelay) << ", dup "
        << tag(sim::TraceTag::kFaultDuplicate) << ", corrupt "
        << tag(sim::TraceTag::kFaultCorrupt) << ", qp_error "
        << tag(sim::TraceTag::kFaultQpError) << ", region_invalidate "
        << tag(sim::TraceTag::kFaultRegionInvalid) << "\n";
  }
  if (tag(sim::TraceTag::kRelRetransmit) > 0 ||
      tag(sim::TraceTag::kRelError) > 0 || deliveryAttempts.count() > 0) {
    out << "  reliability   " << tag(sim::TraceTag::kRelRetransmit)
        << " retransmits, " << tag(sim::TraceTag::kRelDupDrop)
        << " dup drops, " << tag(sim::TraceTag::kRelOooDrop)
        << " ooo drops, " << tag(sim::TraceTag::kRelError) << " errors";
    if (deliveryAttempts.count() > 0) {
      out << "; attempts/msg mean "
          << util::formatFixed(deliveryAttempts.mean(), 3) << " (max "
          << util::formatFixed(deliveryAttempts.max(), 0) << ")";
    }
    out << "\n";
  }
  const std::uint64_t checkpointsTaken = tag(sim::TraceTag::kCkptTaken);
  const std::uint64_t restarts = tag(sim::TraceTag::kCkptRestore);
  if (checkpointsTaken > 0 || restarts > 0) {
    out << "  checkpoints   " << checkpointsTaken << " taken ("
        << checkpointBytes << " bytes packed), " << restarts << " restarts";
    if (restarts > 0)
      out << ", recovery " << util::formatFixed(recoveryUs, 2) << " us";
    out << "; crashes " << tag(sim::TraceTag::kFaultPeCrash)
        << ", stale naks " << tag(sim::TraceTag::kRelStaleNak)
        << ", stale epoch drops " << tag(sim::TraceTag::kStaleEpochDrop)
        << "\n";
  }
  if (shards > 0) {
    out << "  shards        " << shards << " over " << windows
        << " windows; ring " << ringPushes << " pushes in " << ringBatches
        << " batches, " << ringOverflow << " overflowed\n";
  }
  const std::uint64_t scaleOuts = tag(sim::TraceTag::kLifeScaleOut);
  const std::uint64_t drainsCompleted = tag(sim::TraceTag::kLifeRetire);
  const std::uint64_t migrationsAborted = tag(sim::TraceTag::kLifeAbort);
  if (scaleOuts > 0 || drainsCompleted > 0 || migrationsAborted > 0) {
    out << "  lifecycle     " << scaleOuts << " scale-outs, "
        << drainsCompleted << " drains (" << elementsMigrated
        << " elements, " << handoffBytes << " bytes shipped, "
        << handoffRetries << " retries), " << migrationsAborted
        << " migrations aborted\n";
  }
  bool anyPoll = false;
  for (const std::uint64_t n : pollHist) anyPoll |= n > 0;
  if (anyPoll) {
    out << "  poll queue    len histogram";
    for (std::size_t i = 0; i < pollHist.size(); ++i)
      if (pollHist[i] > 0) out << "  [" << i << "]=" << pollHist[i];
    out << "\n";
  }
  if (causalChains > 0) {
    out << "  causal        " << causalChains << " chains; critical path "
        << util::formatFixed(criticalPath_us, 2) << " us over "
        << criticalPathHops << " hops";
    if (horizon_us > 0.0)
      out << " (" << util::formatPercent(criticalPath_us / horizon_us)
          << " of horizon)";
    out << "\n";
    const auto split = [&out](const char* name,
                              const sim::LatencySummary& s) {
      if (s.count == 0) return;
      out << "  " << name << s.count << " chains, mean "
          << util::formatFixed(s.mean.total_us, 3) << " us = queue "
          << util::formatFixed(s.mean.queue_us, 3) << " + wire "
          << util::formatFixed(s.mean.wire_us, 3) << " + poll "
          << util::formatFixed(s.mean.poll_us, 3) << " + handler "
          << util::formatFixed(s.mean.handler_us, 3) << "\n";
    };
    split("put latency   ", putLatency);
    split("msg latency   ", msgLatency);
  }
  return out.str();
}

util::JsonValue toJson(const ProfileReport& report) {
  using util::JsonValue;
  const auto statsJson = [](const util::RunningStats& s) {
    JsonValue v = JsonValue::object();
    v.set("count", JsonValue(s.count()));
    v.set("mean", JsonValue(s.mean()));
    v.set("min", JsonValue(s.min()));
    v.set("max", JsonValue(s.max()));
    return v;
  };

  JsonValue obj = JsonValue::object();
  if (!report.label.empty()) obj.set("label", JsonValue(report.label));
  obj.set("pes", JsonValue(report.pes));
  obj.set("horizon_us", JsonValue(report.horizon_us));
  if (report.utilization.count() > 0) {
    obj.set("utilization", statsJson(report.utilization));
    obj.set("messages_per_pe", statsJson(report.messagesPerPe));
    obj.set("pumps_per_pe", statsJson(report.pumpsPerPe));
  }
  const auto tag = [&report](sim::TraceTag t) { return report.tag(t); };
  JsonValue fabric = JsonValue::object();
  fabric.set("messages", JsonValue(tag(sim::TraceTag::kFabricSubmit)));
  fabric.set("bytes", JsonValue(report.fabricBytes));
  obj.set("fabric", std::move(fabric));
  obj.set("runtime_messages", JsonValue(report.runtimeMessages));
  const std::uint64_t callbacks = tag(sim::TraceTag::kDirectCallback);
  if (report.ckdirectPuts > 0 || callbacks > 0) {
    JsonValue ckd = JsonValue::object();
    ckd.set("puts", JsonValue(report.ckdirectPuts));
    ckd.set("callbacks", JsonValue(callbacks));
    obj.set("ckdirect", std::move(ckd));
  }

  JsonValue layers = JsonValue::object();
  for (std::size_t i = 0; i < sim::kLayerCount; ++i)
    layers.set(std::string(sim::layerName(static_cast<sim::Layer>(i))) + "_us",
               JsonValue(report.layerTime_us[i]));
  layers.set("sum_us", JsonValue(report.layerSum_us));
  layers.set("coverage", JsonValue(report.layerCoverage));
  obj.set("layers", std::move(layers));

  JsonValue tags = JsonValue::object();
  for (std::size_t i = 0; i < sim::kTraceTagCount; ++i) {
    if (report.tagCounts[i] == 0) continue;
    tags.set(std::string(sim::traceTagName(static_cast<sim::TraceTag>(i))),
             JsonValue(report.tagCounts[i]));
  }
  obj.set("tag_counts", std::move(tags));

  bool anyPoll = false;
  for (const std::uint64_t n : report.pollHist) anyPoll |= n > 0;
  if (anyPoll) {
    JsonValue hist = JsonValue::array();
    for (const std::uint64_t n : report.pollHist) hist.push(JsonValue(n));
    obj.set("poll_queue_hist", std::move(hist));
  }
  if (report.rendezvousRtt_us.count() > 0)
    obj.set("rendezvous_rtt_us", statsJson(report.rendezvousRtt_us));

  const std::uint64_t faultsInjected =
      tag(sim::TraceTag::kFaultDrop) + tag(sim::TraceTag::kFaultDelay) +
      tag(sim::TraceTag::kFaultDuplicate) + tag(sim::TraceTag::kFaultCorrupt) +
      tag(sim::TraceTag::kFaultQpError) +
      tag(sim::TraceTag::kFaultRegionInvalid);
  if (faultsInjected > 0) {
    JsonValue faults = JsonValue::object();
    faults.set("injected", JsonValue(faultsInjected));
    faults.set("drop", JsonValue(tag(sim::TraceTag::kFaultDrop)));
    faults.set("delay", JsonValue(tag(sim::TraceTag::kFaultDelay)));
    faults.set("duplicate", JsonValue(tag(sim::TraceTag::kFaultDuplicate)));
    faults.set("corrupt", JsonValue(tag(sim::TraceTag::kFaultCorrupt)));
    faults.set("qp_error", JsonValue(tag(sim::TraceTag::kFaultQpError)));
    faults.set("region_invalidate",
               JsonValue(tag(sim::TraceTag::kFaultRegionInvalid)));
    obj.set("faults", std::move(faults));
  }
  if (tag(sim::TraceTag::kRelRetransmit) > 0 ||
      tag(sim::TraceTag::kRelError) > 0 ||
      report.deliveryAttempts.count() > 0) {
    JsonValue rel = JsonValue::object();
    rel.set("retransmits", JsonValue(tag(sim::TraceTag::kRelRetransmit)));
    rel.set("acks", JsonValue(tag(sim::TraceTag::kRelAck)));
    rel.set("dup_drops", JsonValue(tag(sim::TraceTag::kRelDupDrop)));
    rel.set("ooo_drops", JsonValue(tag(sim::TraceTag::kRelOooDrop)));
    rel.set("errors", JsonValue(tag(sim::TraceTag::kRelError)));
    if (report.deliveryAttempts.count() > 0)
      rel.set("attempts_per_msg", statsJson(report.deliveryAttempts));
    obj.set("reliability", std::move(rel));
  }
  const std::uint64_t checkpointsTaken = tag(sim::TraceTag::kCkptTaken);
  const std::uint64_t restarts = tag(sim::TraceTag::kCkptRestore);
  if (checkpointsTaken > 0 || restarts > 0) {
    JsonValue ckpt = JsonValue::object();
    ckpt.set("taken", JsonValue(checkpointsTaken));
    ckpt.set("bytes_packed", JsonValue(report.checkpointBytes));
    ckpt.set("restarts", JsonValue(restarts));
    ckpt.set("recovery_us", JsonValue(report.recoveryUs));
    ckpt.set("heartbeat_period_us", JsonValue(report.heartbeatPeriodUs));
    ckpt.set("heartbeat_misses", JsonValue(report.heartbeatMisses));
    ckpt.set("pe_crashes", JsonValue(tag(sim::TraceTag::kFaultPeCrash)));
    ckpt.set("crash_detects", JsonValue(tag(sim::TraceTag::kCrashDetect)));
    ckpt.set("stale_naks", JsonValue(tag(sim::TraceTag::kRelStaleNak)));
    ckpt.set("stale_epoch_drops",
             JsonValue(tag(sim::TraceTag::kStaleEpochDrop)));
    obj.set("checkpoint", std::move(ckpt));
  }
  if (report.shards > 0) {
    JsonValue eng = JsonValue::object();
    eng.set("shards", JsonValue(report.shards));
    eng.set("windows", JsonValue(report.windows));
    JsonValue ring = JsonValue::object();
    ring.set("pushes", JsonValue(report.ringPushes));
    ring.set("batches", JsonValue(report.ringBatches));
    ring.set("overflow", JsonValue(report.ringOverflow));
    eng.set("ring", std::move(ring));
    obj.set("parallel", std::move(eng));
  }
  const std::uint64_t scaleOuts = tag(sim::TraceTag::kLifeScaleOut);
  const std::uint64_t drainsCompleted = tag(sim::TraceTag::kLifeRetire);
  const std::uint64_t migrationsAborted = tag(sim::TraceTag::kLifeAbort);
  if (scaleOuts > 0 || drainsCompleted > 0 || migrationsAborted > 0) {
    JsonValue life = JsonValue::object();
    life.set("scale_outs", JsonValue(scaleOuts));
    life.set("drains_completed", JsonValue(drainsCompleted));
    life.set("elements_migrated", JsonValue(report.elementsMigrated));
    life.set("handoff_bytes", JsonValue(report.handoffBytes));
    life.set("handoff_retries", JsonValue(report.handoffRetries));
    life.set("migrations_aborted", JsonValue(migrationsAborted));
    obj.set("lifecycle", std::move(life));
  }

  if (report.traceRecorded > 0) {
    JsonValue trace = JsonValue::object();
    trace.set("recorded", JsonValue(report.traceRecorded));
    trace.set("dropped", JsonValue(report.traceDropped));
    trace.set("retained", JsonValue(report.traceEvents.size()));
    obj.set("trace", std::move(trace));
  }
  if (report.causalChains > 0) {
    const auto latencyJson = [](const sim::LatencySummary& s) {
      JsonValue v = JsonValue::object();
      v.set("count", JsonValue(s.count));
      v.set("mean_us", JsonValue(s.mean.total_us));
      v.set("queue_us", JsonValue(s.mean.queue_us));
      v.set("wire_us", JsonValue(s.mean.wire_us));
      v.set("poll_us", JsonValue(s.mean.poll_us));
      v.set("handler_us", JsonValue(s.mean.handler_us));
      return v;
    };
    JsonValue causal = JsonValue::object();
    causal.set("chains", JsonValue(report.causalChains));
    causal.set("critical_path_us", JsonValue(report.criticalPath_us));
    causal.set("critical_path_hops", JsonValue(report.criticalPathHops));
    if (report.putLatency.count > 0)
      causal.set("put_latency", latencyJson(report.putLatency));
    if (report.msgLatency.count > 0)
      causal.set("msg_latency", latencyJson(report.msgLatency));
    obj.set("causal", std::move(causal));
  }
  if (!report.telemetry.isNull()) obj.set("telemetry", report.telemetry);
  return obj;
}

}  // namespace ckd::harness
