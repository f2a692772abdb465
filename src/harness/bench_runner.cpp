#include "harness/bench_runner.hpp"

#include <climits>
#include <cstdio>
#include <iostream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "sim/engine.hpp"
#include "util/pool.hpp"
#include "util/require.hpp"

namespace {

/// Peak resident set size in KiB, 0 where getrusage is unavailable.
long peakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // macOS reports bytes
#else
    return usage.ru_maxrss;  // Linux reports KiB
#endif
  }
#endif
  return 0;
}

}  // namespace

namespace ckd::harness {

BenchRunner::BenchRunner(std::string name, const util::Args& args)
    : name_(std::move(name)) {
  profile_ = args.getBool("profile", false);
  jsonPath_ = args.get("json", "");
  tracePath_ = args.get("trace-dump", "");
  perfettoPath_ = args.get("trace-perfetto", "");
  traceFilter_ = TraceFilter::parse(args.get("trace-filter", ""));
  // Numeric flags are range-checked as signed values before any cast, so a
  // negative count cannot wrap to a huge size_t, a count narrowed to int
  // cannot wrap (2^32 + 2 to 2), and a negative period is refused instead of
  // silently keeping the default.
  const std::int64_t traceCap = args.getInt(
      "trace-cap",
      static_cast<std::int64_t>(sim::TraceRecorder::kDefaultCapacity));
  CKD_REQUIRE(traceCap > 0, "--trace-cap must be positive");
  traceCap_ = static_cast<std::size_t>(traceCap);
  const std::string faultSpec = args.get("faults", "");
  if (!faultSpec.empty()) faultPlan_ = fault::parseFaultSpec(faultSpec);
  faultSeed_ = static_cast<std::uint64_t>(args.getInt("fault-seed", 1));
  checkpointPeriod_ = args.getDouble("checkpoint-period", -1.0);
  CKD_REQUIRE(!args.has("checkpoint-period") || checkpointPeriod_ > 0.0,
              "--checkpoint-period must be positive");
  heartbeatPeriod_ = args.getDouble("heartbeat-period", -1.0);
  CKD_REQUIRE(!args.has("heartbeat-period") || heartbeatPeriod_ > 0.0,
              "--heartbeat-period must be positive");
  const std::int64_t heartbeatMisses = args.getInt("heartbeat-misses", 0);
  CKD_REQUIRE(!args.has("heartbeat-misses") ||
                  (heartbeatMisses > 0 && heartbeatMisses <= INT_MAX),
              "--heartbeat-misses must be positive (at most INT_MAX)");
  heartbeatMisses_ = static_cast<int>(heartbeatMisses);
  scalePlan_ = args.get("scale-plan", "");
  const std::int64_t shards = args.getInt("shards", 0);
  CKD_REQUIRE(shards >= 0 && shards <= INT_MAX,
              "--shards must be in [0, INT_MAX]");
  shards_ = static_cast<int>(shards);
  const std::int64_t shardThreads = args.getInt("shard-threads", 0);
  CKD_REQUIRE(shardThreads >= 0 && shardThreads <= INT_MAX,
              "--shard-threads must be in [0, INT_MAX]");
  shardThreads_ = static_cast<int>(shardThreads);
  metricsInterval_ = args.getDouble("metrics-interval", 0.0);
  CKD_REQUIRE(metricsInterval_ >= 0.0, "--metrics-interval must be >= 0");
  const std::int64_t metricsSnapshots = args.getInt("metrics-snapshots", 0);
  CKD_REQUIRE(!args.has("metrics-snapshots") || metricsSnapshots > 0,
              "--metrics-snapshots must be positive");
  metricsSnapshots_ = static_cast<std::size_t>(metricsSnapshots);

  // Host-performance baseline: everything in hostJson() is measured relative
  // to runner construction, so flag parsing and static init stay out of the
  // events/sec denominator. Pool counters aggregate every live pool (thread
  // defaults plus the parallel engine's per-shard instances).
  wallStart_ = std::chrono::steady_clock::now();
  eventsAtStart_ = sim::Engine::processExecutedEvents();
  const util::BufferPool::Stats pool = util::BufferPool::processStats();
  poolHitsAtStart_ = pool.hits;
  poolMissesAtStart_ = pool.misses;
  poolReleasesAtStart_ = pool.releases;
  poolUnpooledAtStart_ = pool.unpooled;
}

util::JsonValue BenchRunner::hostJson() const {
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - wallStart_;
  const std::uint64_t events =
      sim::Engine::processExecutedEvents() - eventsAtStart_;
  const double wallSec = wall.count() / 1000.0;
  const util::BufferPool::Stats stats = util::BufferPool::processStats();

  util::JsonValue host = util::JsonValue::object();
  host.set("wall_ms", util::JsonValue(wall.count()));
  host.set("events_executed",
           util::JsonValue(static_cast<double>(events)));
  host.set("events_per_sec",
           util::JsonValue(wallSec > 0.0 ? static_cast<double>(events) / wallSec
                                         : 0.0));
  host.set("peak_rss_kb", util::JsonValue(static_cast<double>(peakRssKb())));
  host.set("pools_enabled",
           util::JsonValue(util::BufferPool::instance().enabled()));
  host.set("pool_hits", util::JsonValue(static_cast<double>(
                            stats.hits - poolHitsAtStart_)));
  host.set("pool_misses", util::JsonValue(static_cast<double>(
                              stats.misses - poolMissesAtStart_)));
  host.set("pool_releases", util::JsonValue(static_cast<double>(
                                stats.releases - poolReleasesAtStart_)));
  host.set("pool_unpooled", util::JsonValue(static_cast<double>(
                                stats.unpooled - poolUnpooledAtStart_)));
  if (shardStats_.isObject()) host.set("shards", shardStats_);
  return host;
}

void BenchRunner::applyFaults(charm::MachineConfig& machine) const {
  if (!faultsArmed()) return;
  machine.faults = faultPlan_;
  machine.faultSeed = faultSeed_;
  if (checkpointPeriod_ > 0.0) machine.checkpointPeriod_us = checkpointPeriod_;
  if (heartbeatPeriod_ > 0.0) machine.heartbeatPeriod_us = heartbeatPeriod_;
  if (heartbeatMisses_ > 0) machine.heartbeatMisses = heartbeatMisses_;
}

void BenchRunner::applyLifecycle(charm::MachineConfig& machine) const {
  if (!scalePlan_.empty()) machine.scalePlan = scalePlan_;
  if (heartbeatPeriod_ > 0.0) machine.heartbeatPeriod_us = heartbeatPeriod_;
  if (heartbeatMisses_ > 0) machine.heartbeatMisses = heartbeatMisses_;
}

void BenchRunner::applyEngine(charm::MachineConfig& machine) const {
  shardsRead_ = true;
  if (shards_ <= 0) return;
  machine.shards = shards_;
  machine.shardThreads = shardThreads_;
}

void BenchRunner::applyMetrics(charm::MachineConfig& machine) const {
  if (metricsInterval_ <= 0.0) return;
  machine.metricsInterval_us = metricsInterval_;
  if (metricsSnapshots_ > 0) machine.metricsSnapshots = metricsSnapshots_;
}

void BenchRunner::recordShardStats(const charm::Runtime& rts) {
  const sim::ParallelEngine* par = rts.parallelEngine();
  if (par == nullptr) return;
  util::JsonValue stats = util::JsonValue::object();
  stats.set("count", util::JsonValue(static_cast<double>(par->shards())));
  stats.set("threads", util::JsonValue(static_cast<double>(par->threads())));
  stats.set("windows", util::JsonValue(static_cast<double>(par->windows())));
  stats.set("lookahead_us", util::JsonValue(par->lookahead()));
  util::JsonValue events = util::JsonValue::array();
  for (int i = 0; i < par->shards(); ++i)
    events.push(util::JsonValue(
        static_cast<double>(par->shardExecutedEvents(i))));
  stats.set("events", std::move(events));
  stats.set("serial_events", util::JsonValue(static_cast<double>(
                                 par->serialEngine().executedEvents())));
  const sim::ParallelEngine::RingStats rings = par->ringStats();
  util::JsonValue ring = util::JsonValue::object();
  ring.set("pushes", util::JsonValue(static_cast<double>(rings.pushes)));
  ring.set("batches", util::JsonValue(static_cast<double>(rings.batches)));
  ring.set("overflow", util::JsonValue(static_cast<double>(rings.overflow)));
  stats.set("ring", std::move(ring));
  util::JsonValue pools = util::JsonValue::array();
  for (int i = 0; i < par->shards(); ++i) {
    const util::BufferPool::Stats& ps =
        const_cast<sim::ParallelEngine*>(par)->shardPool(i).stats();
    util::JsonValue row = util::JsonValue::object();
    row.set("hits", util::JsonValue(static_cast<double>(ps.hits)));
    row.set("misses", util::JsonValue(static_cast<double>(ps.misses)));
    row.set("releases", util::JsonValue(static_cast<double>(ps.releases)));
    pools.push(std::move(row));
  }
  stats.set("pools", std::move(pools));
  shardStats_ = std::move(stats);
}

void BenchRunner::configureTrace(sim::TraceRecorder& trace) const {
  if (!traceEnabled()) return;
  trace.setCapacity(traceCap_);
  trace.enable();
}

void BenchRunner::addMetric(std::string name, double value, std::string unit,
                            util::JsonValue labels) {
  util::JsonValue row = util::JsonValue::object();
  row.set("name", util::JsonValue(std::move(name)));
  row.set("value", util::JsonValue(value));
  row.set("unit", util::JsonValue(std::move(unit)));
  if (labels.isObject() && labels.size() > 0)
    row.set("labels", std::move(labels));
  metrics_.push(std::move(row));
}

void BenchRunner::addProfile(ProfileReport report) {
  profiles_.push_back(std::move(report));
}

int BenchRunner::finish() {
  CKD_REQUIRE(shards_ == 0 || shardsRead_,
              "--shards is not supported by this bench (it runs the serial "
              "engine only)");
  if (profile_) {
    for (const ProfileReport& report : profiles_)
      std::cout << report.toString();
  }
  if (!jsonPath_.empty()) writeJson();
  if (!tracePath_.empty()) writeTraceDump();
  if (!perfettoPath_.empty()) {
    writePerfettoTrace(perfettoPath_, name_, profiles_);
    std::fprintf(stderr, "[bench] wrote %s\n", perfettoPath_.c_str());
  }
  return 0;
}

void BenchRunner::writeJson() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema", util::JsonValue("ckd.bench.v1"));
  doc.set("bench", util::JsonValue(name_));
  doc.set("host", hostJson());
  doc.set("metrics", metrics_);
  util::JsonValue profiles = util::JsonValue::array();
  for (const ProfileReport& report : profiles_) profiles.push(toJson(report));
  doc.set("profiles", std::move(profiles));

  std::FILE* f = std::fopen(jsonPath_.c_str(), "w");
  CKD_REQUIRE(f != nullptr, "cannot open --json output file");
  const std::string text = doc.dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", jsonPath_.c_str());
}

void BenchRunner::writeTraceDump() const {
  // Streamed, not built as a JsonValue tree: a full ring is ~1M events.
  std::FILE* f = std::fopen(tracePath_.c_str(), "w");
  CKD_REQUIRE(f != nullptr, "cannot open --trace-dump output file");
  std::fprintf(f, "{\"schema\":\"ckd.trace.v1\",\"bench\":\"%s\",\"runs\":[",
               util::jsonEscape(name_).c_str());
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    std::fprintf(f, "%s{\"label\":\"%s\",\"horizon_us\":%s}", i ? "," : "",
                 util::jsonEscape(profiles_[i].label).c_str(),
                 util::jsonNumber(profiles_[i].horizon_us).c_str());
  }
  std::fputs("],\"events\":[", f);
  bool first = true;
  for (const ProfileReport& report : profiles_) {
    const std::string run = util::jsonEscape(report.label);
    for (const sim::TraceEvent& ev : report.traceEvents) {
      if (traceFilter_.active() && !traceFilter_.matches(ev)) continue;
      std::fprintf(f, "%s\n{\"run\":\"%s\",\"t\":%s,\"pe\":%d,\"tag\":\"%s\"",
                   first ? "" : ",", run.c_str(),
                   util::jsonNumber(ev.time).c_str(), ev.pe,
                   std::string(sim::traceTagName(ev.tag)).c_str());
      if (ev.value != 0.0)
        std::fprintf(f, ",\"v\":%s", util::jsonNumber(ev.value).c_str());
      // Causal span fields ride along only when set, so dumps from
      // non-causal tags stay byte-compatible with pre-causal readers.
      if (ev.id != 0) {
        std::fprintf(f, ",\"id\":%llu",
                     static_cast<unsigned long long>(ev.id));
        if (ev.parent != 0)
          std::fprintf(f, ",\"parent\":%llu",
                       static_cast<unsigned long long>(ev.parent));
        if (ev.phase != sim::SpanPhase::kInstant)
          std::fprintf(f, ",\"ph\":\"%s\"",
                       ev.phase == sim::SpanPhase::kBegin ? "b" : "e");
        if (ev.aux >= 0) std::fprintf(f, ",\"aux\":%d", ev.aux);
      }
      std::fputc('}', f);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", tracePath_.c_str());
}

}  // namespace ckd::harness
