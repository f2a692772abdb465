#include "charm/lifecycle.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "charm/checkpoint.hpp"
#include "charm/pup.hpp"
#include "util/require.hpp"

namespace ckd::charm {

std::string_view peStateName(PeState state) {
  switch (state) {
    case PeState::kActive:   return "Active";
    case PeState::kJoining:  return "Joining";
    case PeState::kDraining: return "Draining";
    case PeState::kRetired:  return "Retired";
  }
  return "?";
}

namespace {

std::vector<std::string> splitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

double parseNumber(const std::string& text, const char* what) {
  std::size_t used = 0;
  double value = 0.0;
  bool ok = !text.empty();
  if (ok) {
    try {
      value = std::stod(text, &used);
    } catch (...) {
      ok = false;
    }
  }
  CKD_REQUIRE(ok && used == text.size(), what);
  return value;
}

}  // namespace

ScalePlan parseScalePlan(const std::string& spec) {
  ScalePlan plan;
  if (spec.empty()) return plan;
  for (const std::string& ruleText : splitOn(spec, ',')) {
    CKD_REQUIRE(!ruleText.empty(), "empty rule in --scale-plan spec");
    const std::vector<std::string> parts = splitOn(ruleText, ';');
    const std::string& head = parts.front();
    ScaleRule rule;
    std::size_t at = std::string::npos;
    if (head.rfind("scale_out@", 0) == 0) {
      rule.kind = ScaleRule::Kind::kScaleOut;
      at = std::strlen("scale_out@");
    } else if (head.rfind("drain@", 0) == 0) {
      rule.kind = ScaleRule::Kind::kDrain;
      at = std::strlen("drain@");
    } else {
      CKD_REQUIRE(false,
                  "--scale-plan rule must start with scale_out@ or drain@");
    }
    rule.at = parseNumber(head.substr(at), "bad time in --scale-plan spec");
    CKD_REQUIRE(rule.at >= 0.0, "--scale-plan time must be >= 0");
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::size_t eq = parts[i].find('=');
      CKD_REQUIRE(eq != std::string::npos,
                  "--scale-plan option must be key=value");
      const std::string key = parts[i].substr(0, eq);
      const std::string value = parts[i].substr(eq + 1);
      if (key == "pes") {
        CKD_REQUIRE(rule.kind == ScaleRule::Kind::kScaleOut,
                    "pes= is only valid on scale_out rules");
        rule.pes = static_cast<int>(
            parseNumber(value, "bad pes in --scale-plan spec"));
      } else if (key == "pe") {
        CKD_REQUIRE(rule.kind == ScaleRule::Kind::kDrain,
                    "pe= is only valid on drain rules");
        rule.pe = static_cast<int>(
            parseNumber(value, "bad pe in --scale-plan spec"));
      } else {
        CKD_REQUIRE(false, "unknown option in --scale-plan spec");
      }
    }
    if (rule.kind == ScaleRule::Kind::kScaleOut)
      CKD_REQUIRE(rule.pes > 0, "scale_out rule needs pes=<n> with n > 0");
    else
      CKD_REQUIRE(rule.pe >= 0, "drain rule needs pe=<k>");
    plan.rules.push_back(rule);
  }
  return plan;
}

LifecycleManager::LifecycleManager(Runtime& rts)
    : rts_(rts),
      elastic_(topo::ElasticTopology::fromShared(rts.config_.topology)),
      plan_(parseScalePlan(rts.config_.scalePlan)),
      handoffLink_(rts.fabric(), rts.config_.faults.rel),
      states_(static_cast<std::size_t>(rts.numPes()), PeState::kActive) {
  CKD_REQUIRE(rts_.config_.minPes >= 1, "minPes must be at least 1");
  for (const ScaleRule& rule : plan_.rules) {
    if (rule.kind == ScaleRule::Kind::kScaleOut)
      CKD_REQUIRE(elastic_ != nullptr,
                  "--scale-plan scale_out rules require an ElasticTopology "
                  "machine");
    scheduleRule(rule);
  }
}

void LifecycleManager::scheduleRule(const ScaleRule& rule) {
  // Scripted rules fire as serial events at their absolute virtual times —
  // same discipline as the fail-stop crash schedule.
  auto fire = [this, rule]() {
    if (rule.kind == ScaleRule::Kind::kScaleOut)
      requestScaleOut(rule.pes);
    else
      requestDrain(rule.pe);
  };
  if (rts_.parallel_ != nullptr)
    rts_.parallel_->atSerial(rule.at, std::move(fire));
  else
    rts_.engine_.at(rule.at, std::move(fire));
}

void LifecycleManager::scheduleSerialAfter(sim::Time delay,
                                           std::function<void()> fn) {
  if (rts_.parallel_ != nullptr)
    rts_.parallel_->atSerial(rts_.parallel_->serialEngine().now() + delay,
                             std::move(fn));
  else
    rts_.engine_.after(delay, std::move(fn));
}

int LifecycleManager::activePes() const {
  int active = 0;
  for (const PeState s : states_)
    if (s == PeState::kActive) ++active;
  return active;
}

bool LifecycleManager::migrationPending() const {
  return drainingCount_.load(std::memory_order_relaxed) > 0 ||
         rebalancePending_.load(std::memory_order_relaxed) ||
         captureActive_.load(std::memory_order_relaxed) ||
         outstandingHandoffs_ > 0;
}

// --- scale-out ---------------------------------------------------------------

void LifecycleManager::requestScaleOut(int addPes) {
  CKD_REQUIRE(elastic_ != nullptr,
              "scale-out requires an ElasticTopology machine");
  CKD_REQUIRE(addPes > 0 && addPes % elastic_->pesPerNode() == 0,
              "scale-out adds whole nodes: pes must be a positive multiple "
              "of pesPerNode");
  // The machine mutates in a serial phase: every shard parked, no event can
  // target the new PEs before every layer has been extended.
  rts_.runAtSerialBoundary([this, addPes]() { doScaleOut(addPes); });
}

void LifecycleManager::doScaleOut(int addPes) {
  const int oldPes = rts_.numPes();
  elastic_->grow(addPes / elastic_->pesPerNode());
  rts_.growMachine();
  const int newPes = rts_.numPes();
  states_.resize(static_cast<std::size_t>(newPes), PeState::kJoining);
  rts_.engine().trace().record(rts_.engine().now(), oldPes,
                               sim::TraceTag::kLifeScaleOut,
                               static_cast<double>(newPes));
  // The join handshake (boot + wireup announcement) takes a fixed modeled
  // latency; the PEs turn Active together and the next cut rebalances.
  scheduleSerialAfter(kJoinLatencyUs,
                      [this, oldPes, newPes]() { completeJoin(oldPes, newPes); });
}

void LifecycleManager::completeJoin(int firstPe, int lastPe) {
  for (int pe = firstPe; pe < lastPe; ++pe) {
    if (states_[static_cast<std::size_t>(pe)] != PeState::kJoining) continue;
    states_[static_cast<std::size_t>(pe)] = PeState::kActive;
    rts_.engine().trace().record(rts_.engine().now(), pe,
                                 sim::TraceTag::kLifeJoin,
                                 static_cast<double>(pe));
  }
  rebalancePending_.store(true, std::memory_order_relaxed);
}

// --- drain -------------------------------------------------------------------

void LifecycleManager::requestDrain(int pe) {
  CKD_REQUIRE(pe >= 0 && pe < rts_.numPes(), "drain PE out of range");
  // Synchronous rejection so misuse dies at the request site: a PE can only
  // drain out of Active (double drains and drains of joining/retired PEs
  // are bugs), and the machine keeps a minimum active quorum.
  CKD_REQUIRE(states_[static_cast<std::size_t>(pe)] == PeState::kActive,
              "drain rejected: PE is not Active (double drain?)");
  CKD_REQUIRE(activePes() - 1 >= rts_.config_.minPes,
              "drain rejected: would leave the machine below the minimum "
              "active PE count");
  states_[static_cast<std::size_t>(pe)] = PeState::kDraining;
  drainingCount_.fetch_add(1, std::memory_order_relaxed);
  rts_.engine().trace().record(rts_.engine().now(), pe,
                               sim::TraceTag::kLifeDrain,
                               static_cast<double>(pe));
}

// --- migration at the reduction cut ------------------------------------------

bool LifecycleManager::interceptRoot(ArrayId array, std::uint32_t round,
                                     const Runtime::ReduceAgg& agg) {
  if (drainingCount_.load(std::memory_order_relaxed) == 0 &&
      !rebalancePending_.load(std::memory_order_relaxed))
    return false;
  // During a fail-stop outage no cut is migratable; the rollback reverts
  // placement anyway and the post-restore cut re-drives the migration.
  if (rts_.ckpt_ != nullptr && rts_.ckpt_->outageInProgress()) return false;
  // Claim the capture (two arrays may root-flush in one window on different
  // shards; exactly one cut drives the migration, the other proceeds
  // normally).
  bool expected = false;
  if (!captureActive_.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel))
    return false;
  capturedArray_ = array;
  capturedRound_ = round;
  capturedAgg_ = agg;
  const std::uint64_t epoch = migrationEpoch_;
  auto body = [this, epoch]() {
    if (epoch != migrationEpoch_) return;  // aborted by a crash meanwhile
    performMigration();
  };
  if (rts_.parallel_ != nullptr) {
    rts_.parallel_->atSerialBoundary(std::move(body));
  } else {
    // Legacy engine: runAtSerialBoundary would run the body synchronously,
    // INSIDE tryFlushReduction — before the captured root round is erased,
    // so the capturing array would look mid-reduction and the placement
    // rebind would trip the open-round assert. A zero-delay event runs
    // after the flush unwinds, matching the windowed boundary semantics.
    rts_.engine_.after(0.0, std::move(body));
  }
  return true;
}

void LifecycleManager::collectMoves(ArrayId array,
                                    std::vector<Move>& moves) const {
  const Runtime::ArrayRecord& rec =
      rts_.arrays_[static_cast<std::size_t>(array)];
  const int pes = rts_.numPes();
  std::vector<int> eligible;
  for (int pe = 0; pe < pes; ++pe)
    if (states_[static_cast<std::size_t>(pe)] == PeState::kActive)
      eligible.push_back(pe);
  if (eligible.empty()) return;
  // Balanced floor/ceil targets over the active PEs (remainder to the
  // lowest-indexed). Draining/retired/joining PEs target zero, so a drain
  // and a post-scale-out rebalance are the same computation.
  const auto nEligible = static_cast<std::int64_t>(eligible.size());
  const std::int64_t base = rec.count / nEligible;
  const std::int64_t rem = rec.count % nEligible;
  std::vector<std::int64_t> target(static_cast<std::size_t>(pes), 0);
  for (std::int64_t i = 0; i < nEligible; ++i)
    target[static_cast<std::size_t>(eligible[static_cast<std::size_t>(i)])] =
        base + (i < rem ? 1 : 0);
  // Deterministic donor pool: PE-ascending, shedding last-placed elements
  // first; receivers fill PE-ascending. Bit-identical for every shard count
  // because it runs in a serial phase over serial-phase state.
  std::vector<std::pair<std::int64_t, int>> pool;  // (element index, from)
  for (int pe = 0; pe < pes; ++pe) {
    const std::vector<std::int64_t>& local =
        rec.onPe[static_cast<std::size_t>(pe)];
    const std::int64_t excess =
        static_cast<std::int64_t>(local.size()) -
        target[static_cast<std::size_t>(pe)];
    for (std::int64_t k = 0; k < excess; ++k)
      pool.emplace_back(local[local.size() - 1 - static_cast<std::size_t>(k)],
                        pe);
  }
  std::size_t next = 0;
  for (int pe = 0; pe < pes && next < pool.size(); ++pe) {
    std::int64_t deficit =
        target[static_cast<std::size_t>(pe)] -
        static_cast<std::int64_t>(rec.onPe[static_cast<std::size_t>(pe)].size());
    while (deficit-- > 0 && next < pool.size()) {
      moves.push_back(Move{array, pool[next].first, pool[next].second, pe});
      ++next;
    }
  }
}

void LifecycleManager::performMigration() {
  // An outage began between the capture and this boundary: drop the capture
  // — the rollback replays from an earlier cut and re-drives everything.
  if (rts_.ckpt_ != nullptr && rts_.ckpt_->outageInProgress()) {
    rts_.engine().trace().record(rts_.engine().now(), 0,
                                 sim::TraceTag::kLifeAbort, 0.0);
    ++migrationEpoch_;
    captureActive_.store(false, std::memory_order_release);
    return;
  }

  migrationIncomplete_ = false;
  std::vector<Move> moves;
  std::vector<bool> touched(rts_.arrays_.size(), false);
  for (std::size_t a = 0; a < rts_.arrays_.size(); ++a) {
    const Runtime::ArrayRecord& rec = rts_.arrays_[a];
    bool open = false;
    for (const Runtime::PeReduceState& state : rec.reduce)
      if (!state.rounds.empty()) open = true;
    if (open) {
      // This array is mid-reduction at another array's cut; its elements
      // stay put this time and the pending flags keep the next cut trying.
      migrationIncomplete_ = true;
      continue;
    }
    const std::size_t before = moves.size();
    collectMoves(static_cast<ArrayId>(a), moves);
    if (moves.size() != before) touched[a] = true;
  }

  if (!migrationIncomplete_)
    rebalancePending_.store(false, std::memory_order_relaxed);

  if (moves.empty()) {
    // Nothing resident to move (e.g. draining PEs host no elements).
    retireEmptyDrains();
    releaseCapture();
    return;
  }

  // Rebind placement. The elements themselves never move in memory — only
  // their simulated home PE changes — so CkDirect buffer addresses stay
  // valid and the handoff below is a pure cost/wire model of the state
  // actually shipping.
  for (const Move& m : moves) {
    Runtime::ArrayRecord& rec = rts_.arrays_[static_cast<std::size_t>(m.array)];
    rec.peOf[static_cast<std::size_t>(m.index)] = m.to;
    rec.elems[static_cast<std::size_t>(m.index)]->_rebind(m.to);
    if (rts_.migrateHook_) rts_.migrateHook_(m.array, m.index, m.from, m.to);
    ++elementsMigrated_;
  }
  for (std::size_t a = 0; a < touched.size(); ++a)
    if (touched[a]) rts_.rebuildPlacement(rts_.arrays_[a]);

  // Measure and ship the moved state per (source, destination) pair over
  // the dedicated handoff link — PUP shards, exactly like the buddy
  // checkpoint shipping. The captured reduction result is held until every
  // shard lands.
  std::map<std::pair<int, int>, std::size_t> shardBytes;
  for (const Move& m : moves) {
    const Runtime::ArrayRecord& rec =
        rts_.arrays_[static_cast<std::size_t>(m.array)];
    Packer packer;
    Puper puper(packer);
    Chare& el = *rec.elems[static_cast<std::size_t>(m.index)];
    puper | el._reductionRound;
    el.pup(puper);
    shardBytes[{m.from, m.to}] += packer.bytes().size();
  }
  const double memcpyRate = rts_.fabric().params().self_per_byte_us;
  outstandingHandoffs_ = static_cast<int>(shardBytes.size());
  for (const auto& [pair, bytes] : shardBytes) {
    const auto [src, dst] = pair;
    // Pack cost is a memcpy of the shard on the draining/donor PE.
    rts_.scheduler(src).enqueueSystemWork(
        memcpyRate * static_cast<double>(bytes), []() {},
        sim::Layer::kScheduler);
    rts_.engine().trace().record(rts_.engine().now(), src,
                                 sim::TraceTag::kLifeHandoff,
                                 static_cast<double>(bytes));
    handoffBytes_ += bytes;
    shipHandoff(src, dst, bytes, /*attempts=*/0);
  }
}

void LifecycleManager::shipHandoff(int src, int dst, std::size_t stateBytes,
                                   int attempts) {
  const std::uint64_t epoch = migrationEpoch_;
  const double memcpyRate = rts_.fabric().params().self_per_byte_us;
  fault::ReliableLink::Send send;
  send.src = src;
  send.dst = dst;
  send.wireBytes = stateBytes + 32;  // shard + handoff header
  send.cls = fault::MsgClass::kBulk;
  send.on_deliver = [this, epoch, dst, stateBytes,
                     memcpyRate](std::vector<std::byte>&&) {
    rts_.runAtSerialBoundary([this, epoch, dst, stateBytes, memcpyRate]() {
      if (epoch != migrationEpoch_) return;  // migration aborted by a crash
      // Applying the shipped state is a memcpy at the adoptive PE.
      rts_.scheduler(dst).enqueueSystemWork(
          memcpyRate * static_cast<double>(stateBytes), []() {},
          sim::Layer::kScheduler);
      onHandoffArrived();
    });
  };
  send.on_error = [this, epoch, src, dst, stateBytes,
                   attempts](fault::WcStatus) {
    // Bounded retry with exponential backoff above the link's own go-back-N
    // machinery; a handoff that outlives every budget aborts loudly instead
    // of wedging the drain silently.
    rts_.runAtSerialBoundary([this, epoch, src, dst, stateBytes, attempts]() {
      if (epoch != migrationEpoch_) return;  // migration aborted by a crash
      const fault::ReliabilityParams& rel = rts_.config_.faults.rel;
      CKD_REQUIRE(attempts < rel.app_retry_budget,
                  "drain handoff failed permanently (retry budget exhausted "
                  "with no crash to roll back to)");
      handoffLink_.resetChannel(handoffChannel(src, dst));
      ++handoffRetries_;
      sim::Time delay = rel.timeout_us;
      for (int i = 0; i < attempts; ++i) delay *= rel.backoff;
      scheduleSerialAfter(delay, [this, epoch, src, dst, stateBytes,
                                  attempts]() {
        if (epoch != migrationEpoch_) return;
        shipHandoff(src, dst, stateBytes, attempts + 1);
      });
    });
  };
  handoffLink_.post(handoffChannel(src, dst), std::move(send));
}

void LifecycleManager::onHandoffArrived() {
  CKD_REQUIRE(outstandingHandoffs_ > 0, "stray handoff arrival");
  if (--outstandingHandoffs_ > 0) return;
  finishMigration();
}

void LifecycleManager::finishMigration() {
  retireEmptyDrains();
  releaseCapture();
}

void LifecycleManager::retireEmptyDrains() {
  for (int pe = 0; pe < rts_.numPes(); ++pe) {
    if (states_[static_cast<std::size_t>(pe)] != PeState::kDraining) continue;
    bool resident = false;
    for (const Runtime::ArrayRecord& rec : rts_.arrays_)
      if (!rec.onPe[static_cast<std::size_t>(pe)].empty()) resident = true;
    if (resident) continue;  // some array skipped this pass; next cut retries
    states_[static_cast<std::size_t>(pe)] = PeState::kRetired;
    drainingCount_.fetch_sub(1, std::memory_order_relaxed);
    // Retired: no chare work, no heartbeats, no buddy duty — but the
    // scheduler keeps pumping so late arrivals forward to the new owners.
    rts_.schedulers_[static_cast<std::size_t>(pe)]->setRetired(true);
    rts_.engine().trace().record(rts_.engine().now(), pe,
                                 sim::TraceTag::kLifeRetire,
                                 static_cast<double>(pe));
  }
}

void LifecycleManager::releaseCapture() {
  const ArrayId array = capturedArray_;
  const std::uint32_t round = capturedRound_;
  const Runtime::ReduceAgg agg = std::move(capturedAgg_);
  capturedAgg_ = Runtime::ReduceAgg{};
  captureActive_.store(false, std::memory_order_release);
  // Re-drive exactly what the un-intercepted root flush would have done,
  // now under the post-migration placement: checkpoint at the cut, then fan
  // the result down the (rebuilt) reduction tree.
  if (rts_.ckpt_ != nullptr) rts_.ckpt_->onReductionRoot(array, round, agg);
  rts_.deliverReductionResult(rts_.record(array), /*pos=*/0, round, agg);
}

// --- fail-stop interplay -----------------------------------------------------

void LifecycleManager::onPeCrash(int victim) {
  // Tear down handoff flows touching the victim (silent, like every other
  // reliable link on a fail-stop).
  handoffLink_.flushPe(victim);
  if (captureActive_.load(std::memory_order_relaxed) ||
      outstandingHandoffs_ > 0) {
    // Crash mid-drain: the in-flight migration cannot complete — entries
    // were dropped silently and placement will be reverted by the global
    // rollback. Cancel it; the post-restore cut re-drives the drain.
    rts_.engine().trace().record(rts_.engine().now(), victim,
                                 sim::TraceTag::kLifeAbort,
                                 static_cast<double>(victim));
    ++migrationEpoch_;
    outstandingHandoffs_ = 0;
    captureActive_.store(false, std::memory_order_release);
  }
}

std::vector<std::uint8_t> LifecycleManager::packImage() const {
  // [flags][per-PE state]: enough to revert retirements/drains and re-pend
  // a rebalance across a global rollback.
  std::vector<std::uint8_t> image;
  image.reserve(states_.size() + 1);
  image.push_back(rebalancePending_.load(std::memory_order_relaxed) ? 1 : 0);
  for (const PeState s : states_)
    image.push_back(static_cast<std::uint8_t>(s));
  return image;
}

void LifecycleManager::onRestore(const std::vector<std::uint8_t>& image) {
  CKD_REQUIRE(!image.empty(), "lifecycle restore with an empty state image");
  ++migrationEpoch_;
  captureActive_.store(false, std::memory_order_relaxed);
  outstandingHandoffs_ = 0;
  migrationIncomplete_ = false;
  handoffLink_.flushAll();
  int draining = 0;
  for (std::size_t pe = 0; pe < states_.size(); ++pe) {
    // PEs added by a scale-out after the cut stay in the machine (hardware
    // does not un-provision); they own nothing under the reverted placement
    // and the pended rebalance re-levels onto them. A PE caught Joining at
    // the cut is treated as Active: the join latency is long past by the
    // time a crash has been detected and rolled back.
    PeState s = pe + 1 < image.size() ? static_cast<PeState>(image[pe + 1])
                                      : PeState::kActive;
    if (s == PeState::kJoining) s = PeState::kActive;
    // A drain requested (or even completed) after the cut is INTENT, not
    // state: the rollback reverted the placement, so the PE must re-drain.
    // Without this merge a scripted drain whose rule already fired would be
    // lost forever and the PE would never retire.
    if (s == PeState::kActive && (states_[pe] == PeState::kDraining ||
                                  states_[pe] == PeState::kRetired))
      s = PeState::kDraining;
    states_[pe] = s;
    rts_.schedulers_[pe]->setRetired(s == PeState::kRetired);
    if (s == PeState::kDraining) ++draining;
  }
  drainingCount_.store(draining, std::memory_order_relaxed);
  const bool grown = states_.size() + 1 > image.size();
  rebalancePending_.store((image[0] & 1) != 0 || grown,
                          std::memory_order_relaxed);
}

}  // namespace ckd::charm
