#include "charm/runtime.hpp"

#include <algorithm>
#include <utility>

#include "charm/checkpoint.hpp"
#include "charm/lifecycle.hpp"
#include "charm/marshal.hpp"
#include "charm/transport.hpp"
#include "dcmf/dcmf.hpp"
#include "ib/verbs.hpp"
#include "obs/flight_recorder.hpp"
#include "util/pool.hpp"
#include "util/require.hpp"

namespace ckd::charm {

Runtime::Runtime(MachineConfig config) : config_(std::move(config)) {
  CKD_REQUIRE(config_.topology != nullptr, "Runtime requires a topology");
  if (config_.shards > 0) {
    // Windowed sharded execution. The partition is node-aligned (contiguous
    // node ranges) so injection/ejection ports, intra-node transfers, and
    // self-sends — all of which may cost less than the lookahead — stay
    // shard-local. The lookahead is the machine's wire-latency floor: no
    // cross-node arrival can land sooner after its send instant.
    const topo::Topology& topo = *config_.topology;
    const int nodes = topo.numNodes();
    const int nShards = std::min(config_.shards, nodes);
    std::vector<int> shardOf(static_cast<std::size_t>(topo.numPes()));
    for (int pe = 0; pe < topo.numPes(); ++pe)
      shardOf[static_cast<std::size_t>(pe)] = static_cast<int>(
          static_cast<std::int64_t>(topo.nodeOf(pe)) * nShards / nodes);
    sim::ParallelEngine::Config pcfg;
    pcfg.shards = nShards;
    pcfg.threads = config_.shardThreads;
    pcfg.lookahead = config_.netParams.wireLatencyFloor();
    parallel_ = std::make_unique<sim::ParallelEngine>(pcfg, std::move(shardOf));
    peMsgSeq_.assign(static_cast<std::size_t>(topo.numPes()) + 1, 0);
    // Unverified-under-sharding paths are refused loudly rather than run
    // racily: probabilistic wire faults draw from one RNG stream (pe_crash
    // plans are scheduled up front and fire serially, so they are fine).
    for (const fault::FaultRule& rule : config_.faults.rules)
      CKD_REQUIRE(rule.kind == fault::FaultKind::kPeCrash,
                  "--shards supports fail-stop (pe_crash) fault plans only");
    CKD_REQUIRE(config_.layer == LayerKind::kInfiniband,
                "--shards currently supports the InfiniBand machine layer "
                "only (the DCMF layer's connection state is not sharded)");
  }
  fabric_ = std::make_unique<net::Fabric>(
      parallel_ ? parallel_->serialEngine() : engine_, config_.topology,
      config_.netParams);
  if (parallel_) {
    fabric_->attachParallel(parallel_.get());
    // Chain ids and message sequences switch to per-PE minting so they are
    // functions of per-PE order alone (partition-independent).
    forEachEngine([this](sim::Engine& eng) {
      eng.trace().setPerPeMinting(&parallel_->mintCounters());
    });
  }
  if (config_.faults.armed())
    fabric_->installFaults(config_.faults, config_.faultSeed);
  const int pes = numPes();
  schedulers_.reserve(static_cast<std::size_t>(pes));
  for (int pe = 0; pe < pes; ++pe) {
    processors_.emplace_back(pe);
    schedulers_.push_back(std::make_unique<Scheduler>(*this, pe));
  }
  if (config_.layer == LayerKind::kInfiniband) {
    ib_ = std::make_unique<ib::IbVerbs>(*fabric_);
    transport_ = std::make_unique<IbTransport>(*this, *ib_);
  } else {
    dcmf_ = std::make_unique<dcmf::DcmfContext>(*fabric_);
    transport_ = std::make_unique<BgpTransport>(*this, *dcmf_);
  }
  if (config_.faults.hasCrashes())
    ckpt_ = std::make_unique<CheckpointManager>(*this);
  if (config_.elastic || !config_.scalePlan.empty())
    lifecycle_ = std::make_unique<LifecycleManager>(*this);
  if (config_.metricsInterval_us > 0.0)
    enableMetrics(config_.metricsInterval_us, config_.metricsSnapshots);
}

Runtime::~Runtime() = default;

Scheduler& Runtime::scheduler(int pe) {
  CKD_REQUIRE(pe >= 0 && pe < numPes(), "PE out of range");
  return *schedulers_[static_cast<std::size_t>(pe)];
}

sim::Processor& Runtime::processor(int pe) {
  CKD_REQUIRE(pe >= 0 && pe < numPes(), "PE out of range");
  return processors_[static_cast<std::size_t>(pe)];
}

ib::IbVerbs& Runtime::ibVerbs() {
  CKD_REQUIRE(ib_ != nullptr, "not an InfiniBand machine");
  return *ib_;
}

dcmf::DcmfContext& Runtime::dcmf() {
  CKD_REQUIRE(dcmf_ != nullptr, "not a Blue Gene machine");
  return *dcmf_;
}

void Runtime::enableTracing(std::size_t capacity) {
  forEachEngine([capacity](sim::Engine& eng) {
    if (capacity != 0) eng.trace().setCapacity(capacity);
    eng.trace().enable();
  });
}

std::vector<sim::TraceEvent> Runtime::traceEvents() const {
  return parallel_ ? parallel_->mergedTrace() : engine_.trace().snapshot();
}

void Runtime::enableMetrics(double interval_us, std::size_t snapshots) {
  forEachEngine([](sim::Engine& eng) { eng.metrics().arm(); });
  metricsArmed_ = true;
  if (interval_us <= 0.0) return;

  flight_ = std::make_unique<obs::FlightRecorder>();
  if (snapshots != 0) flight_->setCapacity(snapshots);
  flight_->setInterval(interval_us);
  // Gauges/counters over live machine state. Probe closures run with every
  // shard parked (serial dispatch path, or the parallel coordinator between
  // rounds), so plain reads of shard engines are race-free.
  flight_->addProbe("events", "1",
                    [this]() { return static_cast<double>(executedEvents()); });
  flight_->addProbe("msgs", "1", [this]() {
    return static_cast<double>(messagesSent());
  });
  flight_->addProbe("pool.hit_rate", "x", []() {
    const util::BufferPool::Stats s = util::BufferPool::processStats();
    const std::uint64_t acquires = s.hits + s.misses;
    return acquires == 0
               ? 0.0
               : static_cast<double>(s.hits) / static_cast<double>(acquires);
  });
  flight_->addProbe("retransmits", "1", [this]() {
    std::uint64_t n = 0;
    forEachEngine([&n](sim::Engine& eng) {
      n += eng.trace().count(sim::TraceTag::kRelRetransmit);
    });
    return static_cast<double>(n);
  });
  flight_->addProbe("trace.ring", "1", [this]() {
    std::size_t n = 0;
    forEachEngine([&n](sim::Engine& eng) { n += eng.trace().ringSize(); });
    return static_cast<double>(n);
  });
  if (parallel_) {
    flight_->addProbe("windows", "1", [this]() {
      return static_cast<double>(parallel_->windows());
    });
    // Spread between the fastest and slowest shard clock at the sampling
    // boundary — how uneven the last window's work split was.
    flight_->addProbe("shard.lag_us", "us", [this]() {
      sim::Time lo = std::numeric_limits<sim::Time>::infinity();
      sim::Time hi = -std::numeric_limits<sim::Time>::infinity();
      for (int s = 0; s < parallel_->shards(); ++s) {
        const sim::Time t = parallel_->shardEngine(s).now();
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      return parallel_->shards() > 0 ? hi - lo : 0.0;
    });
  }
  // Merged SLO view: sum cumulative bucket counts over every registry, so
  // windowed percentiles cover the whole machine without copying histograms.
  for (std::size_t k = 0; k < obs::kSloCount; ++k) {
    const obs::Slo kind = static_cast<obs::Slo>(k);
    flight_->watch(
        "slo." + std::string(obs::sloName(kind)),
        [this, kind](std::vector<std::uint64_t>& counts) {
          std::uint64_t total = 0;
          forEachEngine([&](sim::Engine& eng) {
            total += eng.metrics().slo(kind).addCounts(counts);
          });
          return total;
        });
  }
  if (parallel_)
    parallel_->attachSampler(flight_.get());
  else
    engine_.attachSampler(flight_.get());
}

util::JsonValue Runtime::metricsJson() {
  util::JsonValue doc;
  if (flight_ != nullptr) {
    doc = flight_->toJson();
  } else {
    doc = util::JsonValue::object();
    doc.set("schema", "ckd.metrics.v1");
    doc.set("interval_us", 0.0);
    doc.set("snapshots", 0);
    doc.set("dropped", 0);
    doc.set("series", util::JsonValue::array());
  }
  obs::MetricsRegistry merged;
  forEachEngine(
      [&merged](sim::Engine& eng) { merged.mergeFrom(eng.metrics()); });
  doc.set("slo", merged.toJson());
  return doc;
}

std::uint64_t Runtime::nextMsgSeq(int srcPe) {
  if (!parallel_) return nextSeq_++;
  // Per-PE sequence space: the counter slot is touched only by srcPe's own
  // shard thread (or by the coordinator while every shard is parked), and
  // the value is a function of srcPe's send order alone — identical for
  // every shard count.
  auto& counter = peMsgSeq_[static_cast<std::size_t>(srcPe) + 1];
  return (static_cast<std::uint64_t>(srcPe) + 1) << 40 | ++counter;
}

// --- arrays -----------------------------------------------------------------

ArrayId Runtime::beginArray(std::string name, std::int64_t count, MapFn map) {
  CKD_REQUIRE(count > 0, "array must have at least one element");
  CKD_REQUIRE(map != nullptr, "array needs a placement map");
  ArrayRecord rec;
  rec.name = std::move(name);
  rec.count = count;
  rec.peOf.resize(static_cast<std::size_t>(count));
  rec.elems.resize(static_cast<std::size_t>(count));
  rec.onPe.resize(static_cast<std::size_t>(numPes()));
  for (std::int64_t i = 0; i < count; ++i) {
    const int pe = map(i);
    CKD_REQUIRE(pe >= 0 && pe < numPes(), "placement map returned a bad PE");
    rec.peOf[static_cast<std::size_t>(i)] = pe;
    rec.onPe[static_cast<std::size_t>(pe)].push_back(i);
  }
  for (int pe = 0; pe < numPes(); ++pe) {
    if (!rec.onPe[static_cast<std::size_t>(pe)].empty()) {
      rec.hostPos[pe] = static_cast<int>(rec.hostPes.size());
      rec.hostPes.push_back(pe);
    }
  }
  rec.reduce.resize(rec.hostPes.size());
  arrays_.push_back(std::move(rec));
  return static_cast<ArrayId>(arrays_.size() - 1);
}

void Runtime::rebuildPlacement(ArrayRecord& rec) {
  for (PeReduceState& state : rec.reduce)
    CKD_REQUIRE(state.rounds.empty(),
                "placement rebind with an open reduction round — migrations "
                "must happen at reduction cuts");
  rec.onPe.assign(static_cast<std::size_t>(numPes()), {});
  rec.hostPes.clear();
  rec.hostPos.clear();
  for (std::int64_t i = 0; i < rec.count; ++i)
    rec.onPe[static_cast<std::size_t>(rec.peOf[static_cast<std::size_t>(i)])]
        .push_back(i);
  for (int pe = 0; pe < numPes(); ++pe) {
    if (!rec.onPe[static_cast<std::size_t>(pe)].empty()) {
      rec.hostPos[pe] = static_cast<int>(rec.hostPes.size());
      rec.hostPes.push_back(pe);
    }
  }
  rec.reduce.assign(rec.hostPes.size(), {});
}

void Runtime::growMachine() {
  const int pes = numPes();  // the topology has already grown
  const int oldPes = static_cast<int>(schedulers_.size());
  CKD_REQUIRE(pes >= oldPes, "the machine never shrinks (PEs retire instead)");
  if (pes == oldPes) return;
  fabric_->growTopology();
  if (parallel_) {
    // Map each new node onto an existing shard (node-aligned, like the
    // construction-time partition; the exact choice is unobservable — the
    // determinism gate checks exactly that).
    std::vector<int> shardOfNew;
    shardOfNew.reserve(static_cast<std::size_t>(pes - oldPes));
    for (int pe = oldPes; pe < pes; ++pe)
      shardOfNew.push_back(config_.topology->nodeOf(pe) % parallel_->shards());
    parallel_->growPes(shardOfNew);
    peMsgSeq_.resize(static_cast<std::size_t>(pes) + 1, 0);
  }
  for (int pe = oldPes; pe < pes; ++pe) {
    processors_.emplace_back(pe);
    schedulers_.push_back(std::make_unique<Scheduler>(*this, pe));
  }
  for (ArrayRecord& rec : arrays_)
    rec.onPe.resize(static_cast<std::size_t>(pes));
  if (ckpt_) ckpt_->onPesGrown();
  if (growHook_) growHook_();
}

void Runtime::placeElement(ArrayId id, std::int64_t index,
                           std::unique_ptr<Chare> obj) {
  ArrayRecord& rec = record(id);
  CKD_REQUIRE(obj != nullptr, "array factory returned null");
  obj->_init(this, id, index, rec.peOf[static_cast<std::size_t>(index)]);
  rec.elems[static_cast<std::size_t>(index)] = std::move(obj);
}

Runtime::ArrayRecord& Runtime::record(ArrayId id) {
  CKD_REQUIRE(id >= 0 && id < static_cast<ArrayId>(arrays_.size()),
              "unknown array");
  return arrays_[static_cast<std::size_t>(id)];
}

const Runtime::ArrayRecord& Runtime::record(ArrayId id) const {
  CKD_REQUIRE(id >= 0 && id < static_cast<ArrayId>(arrays_.size()),
              "unknown array");
  return arrays_[static_cast<std::size_t>(id)];
}

EntryId Runtime::registerEntryRaw(ArrayId array, const char* name,
                                  EntryFn fn) {
  ArrayRecord& rec = record(array);
  CKD_REQUIRE(fn != nullptr, "null entry function");
  rec.entries.push_back(std::move(fn));
  rec.entryNames.emplace_back(name ? name : "?");
  return static_cast<EntryId>(rec.entries.size() - 1);
}

std::int64_t Runtime::arraySize(ArrayId array) const {
  return record(array).count;
}

int Runtime::homePe(ArrayId array, std::int64_t index) const {
  const ArrayRecord& rec = record(array);
  CKD_REQUIRE(index >= 0 && index < rec.count, "element index out of range");
  return rec.peOf[static_cast<std::size_t>(index)];
}

Chare& Runtime::element(ArrayId array, std::int64_t index) {
  ArrayRecord& rec = record(array);
  CKD_REQUIRE(index >= 0 && index < rec.count, "element index out of range");
  return *rec.elems[static_cast<std::size_t>(index)];
}

const std::vector<std::int64_t>& Runtime::elementsOnPe(ArrayId array,
                                                       int pe) const {
  const ArrayRecord& rec = record(array);
  CKD_REQUIRE(pe >= 0 && pe < numPes(), "PE out of range");
  return rec.onPe[static_cast<std::size_t>(pe)];
}

// --- messaging ----------------------------------------------------------------

void Runtime::sendToElement(ArrayId array, std::int64_t index, EntryId entry,
                            std::span<const std::byte> payload) {
  sendMessage(Message::make(userEnvelope(array, index, entry), payload));
}

void Runtime::sendPacked(ArrayId array, std::int64_t index, EntryId entry,
                         Packer&& packer) {
  sendMessage(
      Message::adopt(userEnvelope(array, index, entry), std::move(packer)));
}

Envelope Runtime::userEnvelope(ArrayId array, std::int64_t index,
                               EntryId entry) const {
  const ArrayRecord& rec = record(array);
  CKD_REQUIRE(index >= 0 && index < rec.count, "element index out of range");
  CKD_REQUIRE(entry >= 0 && entry < static_cast<EntryId>(rec.entries.size()),
              "unregistered entry method");
  Envelope env;
  env.kind = MsgKind::kUser;
  env.srcPe = effectiveSrcPe();
  env.dstPe = rec.peOf[static_cast<std::size_t>(index)];
  env.arrayId = array;
  env.elemIndex = index;
  env.entry = entry;
  return env;
}

void Runtime::sendMessage(MessagePtr msg) {
  CKD_REQUIRE(msg != nullptr, "sending a null message");
  Envelope& env = msg->env();
  CKD_REQUIRE(env.srcPe >= 0 && env.srcPe < numPes(), "bad source PE");
  CKD_REQUIRE(env.dstPe >= 0 && env.dstPe < numPes(), "bad destination PE");
  env.seq = nextMsgSeq(env.srcPe);
  env.epoch = epoch_;
  if (env.traceId == 0) {
    // Mint the causal chain id once per logical message; retransmits and
    // forwarded copies that already carry one keep it. mintIdFor draws from
    // the per-PE counters under --shards, the global counter otherwise.
    sim::TraceRecorder& tr = engine().trace();
    env.traceId = tr.mintIdFor(env.srcPe);
    env.parentTraceId = tr.context();
  }
  messagesSent_.fetch_add(1, std::memory_order_relaxed);

  Scheduler& src = scheduler(env.srcPe);
  const bool inContext = (currentPe_ == env.srcPe) && src.inHandler();
  if (inContext)
    src.chargeAs(sim::Layer::kTransport,
                 config_.costs.pack_us + config_.costs.send_overhead_us);
  const sim::Time issue = inContext ? src.currentTime() : engine().now();

  msg->sealHeader();
  const int srcPe = env.srcPe;
  if (env.srcPe == env.dstPe) {
    const int dst = env.dstPe;
    schedAt(srcPe, issue, [this, dst, msg = std::move(msg)]() mutable {
      scheduler(dst).enqueue(std::move(msg));
    });
  } else {
    schedAt(srcPe, issue, [this, msg = std::move(msg)]() mutable {
      transport_->send(std::move(msg));
    });
  }
}

void Runtime::enqueueLocalUser(ArrayId array, std::int64_t index,
                               EntryId entry,
                               std::span<const std::byte> payload, int pe) {
  Envelope env;
  env.kind = MsgKind::kUser;
  env.srcPe = pe;
  env.dstPe = pe;
  env.arrayId = array;
  env.elemIndex = index;
  env.entry = entry;
  env.seq = nextMsgSeq(pe);
  env.epoch = epoch_;
  env.traceId = engine().trace().mintIdFor(pe);
  env.parentTraceId = engine().trace().context();
  scheduler(pe).enqueue(Message::make(env, payload));
}

void Runtime::deliver(Message& msg) {
  const Envelope& env = msg.env();
  switch (env.kind) {
    case MsgKind::kUser: {
      ArrayRecord& rec = record(env.arrayId);
      CKD_REQUIRE(env.elemIndex >= 0 && env.elemIndex < rec.count,
                  "delivery to an element out of range");
      const int owner = rec.peOf[static_cast<std::size_t>(env.elemIndex)];
      if (owner != env.dstPe) {
        // Elastic placement: the element migrated (drain / rebalance) while
        // this message was in flight. The old home acts as a tombstone and
        // forwards to the new owner, preserving the causal chain id (the
        // forwarded copy carries traceId != 0, so sendMessage keeps it).
        CKD_REQUIRE(lifecycle_ != nullptr,
                    "message delivered to a PE that does not own the element");
        engine().trace().record(engine().now(), env.dstPe,
                                sim::TraceTag::kLifeForward,
                                static_cast<double>(env.elemIndex));
        MessagePtr fwd = Message::make(env, msg.payload());
        fwd->env().srcPe = env.dstPe;
        fwd->env().dstPe = owner;
        sendMessage(std::move(fwd));
        return;
      }
      CKD_REQUIRE(
          env.entry >= 0 && env.entry < static_cast<EntryId>(rec.entries.size()),
          "delivery to an unregistered entry");
      Chare& obj = *rec.elems[static_cast<std::size_t>(env.elemIndex)];
      rec.entries[static_cast<std::size_t>(env.entry)](obj, msg);
      return;
    }
    case MsgKind::kBroadcast:
      handleBroadcast(msg);
      return;
    case MsgKind::kReduceUp:
      handleReduceUp(msg);
      return;
    case MsgKind::kReduceDown:
      handleReduceDown(msg);
      return;
    default:
      CKD_REQUIRE(false, "unhandled message kind in deliver()");
  }
}

// --- broadcast ------------------------------------------------------------------

void Runtime::broadcast(ArrayId array, EntryId entry,
                        std::span<const std::byte> payload) {
  sendMessage(Message::make(broadcastEnvelope(array, entry), payload));
}

void Runtime::broadcastPacked(ArrayId array, EntryId entry, Packer&& packer) {
  sendMessage(Message::adopt(broadcastEnvelope(array, entry), std::move(packer)));
}

Envelope Runtime::broadcastEnvelope(ArrayId array, EntryId entry) const {
  const ArrayRecord& rec = record(array);
  CKD_REQUIRE(entry >= 0 && entry < static_cast<EntryId>(rec.entries.size()),
              "unregistered entry method");
  Envelope env;
  env.kind = MsgKind::kBroadcast;
  env.srcPe = effectiveSrcPe();
  env.dstPe = rec.hostPes.front();
  env.arrayId = array;
  env.entry = entry;
  return env;
}

void Runtime::handleBroadcast(Message& msg) {
  const Envelope& env = msg.env();
  ArrayRecord& rec = record(env.arrayId);
  const auto posIt = rec.hostPos.find(env.dstPe);
  CKD_REQUIRE(posIt != rec.hostPos.end(),
              "broadcast reached a PE hosting no elements");
  const int pos = posIt->second;
  // Forward down the PE spanning tree (each hop pays the normal message
  // costs), then deliver one scheduler message per local element.
  for (int which = 0; which < 2; ++which) {
    const int childPos = treeChild(pos, which);
    if (childPos >= static_cast<int>(rec.hostPes.size())) continue;
    Envelope fwd = env;
    fwd.srcPe = env.dstPe;
    fwd.dstPe = rec.hostPes[static_cast<std::size_t>(childPos)];
    // Each tree hop is its own causal chain, parented on the arriving copy
    // (the delivery context), so the fan-out shows up as a DAG, not one id.
    fwd.traceId = 0;
    fwd.parentTraceId = 0;
    sendMessage(Message::make(fwd, msg.payload()));
  }
  for (std::int64_t index : rec.onPe[static_cast<std::size_t>(env.dstPe)])
    enqueueLocalUser(env.arrayId, index, env.entry, msg.payload(), env.dstPe);
}

// --- reductions -------------------------------------------------------------------

namespace {
constexpr const char* kOpMismatch =
    "all contributions to one reduction round must use the same op and "
    "completion entry";
}  // namespace

void Runtime::accumulate(ReduceAgg& agg, std::span<const double> values,
                         ReduceOp op, EntryId completion) {
  if (!agg.hasData) {
    agg.hasData = true;
    agg.op = op;
    agg.completion = completion;
    agg.partial.assign(values.begin(), values.end());
    return;
  }
  CKD_REQUIRE(agg.op == op && agg.completion == completion, kOpMismatch);
  CKD_REQUIRE(agg.partial.size() == values.size(),
              "reduction contributions disagree on value count");
  for (std::size_t i = 0; i < values.size(); ++i) {
    switch (op) {
      case ReduceOp::kNop:
        break;
      case ReduceOp::kSum:
        agg.partial[i] += values[i];
        break;
      case ReduceOp::kMin:
        agg.partial[i] = std::min(agg.partial[i], values[i]);
        break;
      case ReduceOp::kMax:
        agg.partial[i] = std::max(agg.partial[i], values[i]);
        break;
    }
  }
}

void Runtime::contribute(ArrayId array, std::int64_t index,
                         std::span<const double> values, ReduceOp op,
                         EntryId completion) {
  ArrayRecord& rec = record(array);
  CKD_REQUIRE(index >= 0 && index < rec.count, "element index out of range");
  CKD_REQUIRE(op != ReduceOp::kNop || values.empty(),
              "barrier contributions carry no data");
  Chare& el = *rec.elems[static_cast<std::size_t>(index)];
  const std::uint32_t round = el._reductionRound++;
  const int pe = rec.peOf[static_cast<std::size_t>(index)];
  const int pos = rec.hostPos.at(pe);
  ReduceAgg& agg = rec.reduce[static_cast<std::size_t>(pos)].rounds[round];
  ++agg.ownContrib;
  CKD_REQUIRE(agg.ownContrib <=
                  static_cast<int>(rec.onPe[static_cast<std::size_t>(pe)].size()),
              "element contributed twice to the same reduction round");
  accumulate(agg, values, op, completion);
  tryFlushReduction(rec, pos, round);
}

void Runtime::tryFlushReduction(ArrayRecord& rec, int pos,
                                std::uint32_t round) {
  const int pe = rec.hostPes[static_cast<std::size_t>(pos)];
  auto& rounds = rec.reduce[static_cast<std::size_t>(pos)].rounds;
  const auto it = rounds.find(round);
  if (it == rounds.end()) return;
  ReduceAgg& agg = it->second;

  const int localElems =
      static_cast<int>(rec.onPe[static_cast<std::size_t>(pe)].size());
  int children = 0;
  for (int which = 0; which < 2; ++which)
    if (treeChild(pos, which) < static_cast<int>(rec.hostPes.size()))
      ++children;
  if (agg.ownContrib < localElems || agg.childSeen < children) return;

  if (pos == 0) {
    const ArrayId arrayId = static_cast<ArrayId>(&rec - arrays_.data());
    // Pending migration work (drain / post-scale-out rebalance) captures the
    // cut instead: the lifecycle manager rebinds placement in a serial phase
    // and delivers this exact result itself once the handoff completes.
    if (lifecycle_ != nullptr && lifecycle_->interceptRoot(arrayId, round, agg)) {
      rounds.erase(it);
      return;
    }
    // The root flush is a consistent cut: every element has contributed and
    // none has resumed — the checkpoint manager snapshots here, BEFORE the
    // result fans back out, so a restore can replay this exact delivery.
    if (ckpt_ != nullptr) ckpt_->onReductionRoot(arrayId, round, agg);
    deliverReductionResult(rec, pos, round, agg);
    rounds.erase(it);
    return;
  }

  // Send the combined partial up the tree as a regular message.
  Packer packer;
  packer.put<std::int32_t>(static_cast<std::int32_t>(agg.op));
  packer.put<std::int32_t>(agg.completion);
  packer.putSpan<double>(agg.partial);
  Envelope env;
  env.kind = MsgKind::kReduceUp;
  env.srcPe = pe;
  env.dstPe = rec.hostPes[static_cast<std::size_t>(treeParent(pos))];
  env.arrayId = static_cast<ArrayId>(&rec - arrays_.data());
  env.reductionRound = round;
  sendMessage(Message::adopt(env, std::move(packer)));
  rounds.erase(it);
}

void Runtime::handleReduceUp(Message& msg) {
  const Envelope& env = msg.env();
  ArrayRecord& rec = record(env.arrayId);
  const int pos = rec.hostPos.at(env.dstPe);
  Unpacker unpacker(msg.payload());
  const auto op = static_cast<ReduceOp>(unpacker.get<std::int32_t>());
  const EntryId completion = unpacker.get<std::int32_t>();
  const std::span<const double> values = unpacker.getSpan<double>();
  ReduceAgg& agg =
      rec.reduce[static_cast<std::size_t>(pos)].rounds[env.reductionRound];
  ++agg.childSeen;
  accumulate(agg, values, op, completion);
  tryFlushReduction(rec, pos, env.reductionRound);
}

void Runtime::deliverReductionResult(ArrayRecord& rec, int pos,
                                     std::uint32_t round,
                                     const ReduceAgg& agg) {
  const int pe = rec.hostPes[static_cast<std::size_t>(pos)];
  Packer packer;
  packer.put<std::int32_t>(agg.completion);
  packer.putSpan<double>(agg.partial);

  // Forward the result down the tree.
  for (int which = 0; which < 2; ++which) {
    const int childPos = treeChild(pos, which);
    if (childPos >= static_cast<int>(rec.hostPes.size())) continue;
    Envelope env;
    env.kind = MsgKind::kReduceDown;
    env.srcPe = pe;
    env.dstPe = rec.hostPes[static_cast<std::size_t>(childPos)];
    env.arrayId = static_cast<ArrayId>(&rec - arrays_.data());
    env.reductionRound = round;
    sendMessage(Message::make(env, packer.bytes()));
  }

  // Completion entry on each local element, payload = the combined values.
  Packer result;
  result.putSpan<double>(agg.partial);
  for (std::int64_t index : rec.onPe[static_cast<std::size_t>(pe)])
    enqueueLocalUser(static_cast<ArrayId>(&rec - arrays_.data()), index,
                     agg.completion, result.bytes(), pe);
}

void Runtime::handleReduceDown(Message& msg) {
  const Envelope& env = msg.env();
  ArrayRecord& rec = record(env.arrayId);
  const int pos = rec.hostPos.at(env.dstPe);
  Unpacker unpacker(msg.payload());
  ReduceAgg agg;
  agg.hasData = true;
  agg.completion = unpacker.get<std::int32_t>();
  const std::span<const double> values = unpacker.getSpan<double>();
  agg.partial.assign(values.begin(), values.end());
  deliverReductionResult(rec, pos, env.reductionRound, agg);
}

// --- Chare methods (need the full Runtime definition) ---------------------------

void Chare::charge(sim::Time cost) const {
  runtime_->scheduler(pe_).charge(cost);
}

sim::Time Chare::now() const {
  return runtime_->scheduler(pe_).currentTime();
}

void Chare::contribute(std::span<const double> values, ReduceOp op,
                       EntryId completion) {
  runtime_->contribute(arrayId_, index_, values, op, completion);
}

}  // namespace ckd::charm
