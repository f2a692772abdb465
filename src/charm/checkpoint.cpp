#include "charm/checkpoint.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "charm/lifecycle.hpp"
#include "charm/pup.hpp"
#include "charm/transport.hpp"
#include "dcmf/dcmf.hpp"
#include "ib/verbs.hpp"
#include "net/fabric.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace ckd::charm {

CheckpointManager::CheckpointManager(Runtime& rts)
    : rts_(rts), shardLink_(rts.fabric(), rts.config_.faults.rel) {
  CKD_REQUIRE(rts_.numPes() >= 2,
              "fail-stop tolerance needs a buddy: at least 2 PEs");
  // Resolve crash victims up front so the whole schedule is a pure function
  // of (plan, fault seed). A distinct stream from the wire injector's keeps
  // victim choice independent of message order.
  util::Rng rng(rts_.config_.faultSeed ^ 0x9e3779b97f4a7c15ull);
  for (const fault::FaultRule& rule : rts_.config_.faults.rules) {
    if (rule.kind != fault::FaultKind::kPeCrash || rule.crash_at_us < 0.0)
      continue;
    PlannedCrash crash;
    crash.at = rule.crash_at_us;
    crash.pe = rule.src >= 0
                   ? rule.src
                   : static_cast<int>(
                         rng.below(static_cast<std::uint64_t>(rts_.numPes())));
    CKD_REQUIRE(crash.pe >= 0 && crash.pe < rts_.numPes(),
                "pe_crash victim out of range");
    crashes_.push_back(crash);
  }
  std::sort(crashes_.begin(), crashes_.end(),
            [](const PlannedCrash& a, const PlannedCrash& b) {
              return a.at < b.at;
            });
  pendingCrashes_ = static_cast<int>(crashes_.size());
  lastBeat_.assign(static_cast<std::size_t>(rts_.numPes()), 0.0);
}

sim::Time CheckpointManager::beatPeriodUs() const {
  return rts_.config_.heartbeatPeriod_us;
}

int CheckpointManager::missedBeats() const {
  return rts_.config_.heartbeatMisses;
}

int CheckpointManager::buddyOf(int pe) const {
  const int n = rts_.numPes();
  for (int step = 1; step < n; ++step) {
    const int buddy = (pe + step) % n;
    if (!rts_.schedulers_[static_cast<std::size_t>(buddy)]->retired())
      return buddy;
  }
  return (pe + 1) % n;
}

void CheckpointManager::onPesGrown() {
  lastBeat_.resize(static_cast<std::size_t>(rts_.numPes()),
                   rts_.engine().now());
}

void CheckpointManager::arm() {
  CKD_REQUIRE(!armed_, "checkpoint manager armed twice");
  armed_ = true;
  const sim::Time now = rts_.engine().now();
  lastBeat_.assign(static_cast<std::size_t>(rts_.numPes()), now);
  for (std::size_t i = 0; i < crashes_.size(); ++i)
    rts_.engine().at(std::max(now, crashes_[i].at),
                     [this, i]() { injectCrash(i); });
  // The heartbeat loop self-reschedules while an outage is possible and
  // stops once the last planned crash has been recovered, so engine.run()
  // still reaches quiescence.
  heartbeatTick();
}

void CheckpointManager::onReductionRoot(ArrayId array, std::uint32_t round,
                                        const Runtime::ReduceAgg& agg) {
  // Checkpoints only make sense between arm() (setup done, measured run
  // about to start) and the last recovery. During an outage no cut is
  // consistent (the victim cannot have contributed — this only triggers
  // for arrays with no elements there).
  if (!armed_ || crashedPe_ >= 0 || pendingCrashes_ == 0) return;
  // The snapshot packs EVERY PE's elements, so under --shards it must run
  // in serial context (every shard parked). Defer to the boundary of the
  // window that flushed the root — a partition-independent instant — and
  // re-evaluate the gates there: an outage can begin at exactly that
  // boundary, and the period must be measured at the commit time. On the
  // classic engine the deferral runs inline and nothing changes.
  rts_.runAtSerialBoundary([this, array, round, agg]() {
    if (crashedPe_ >= 0 || pendingCrashes_ == 0) return;
    // Genesis: the first root flush checkpoints regardless of the period,
    // so a usable snapshot exists as soon as the application's setup
    // barrier completes. After that the period gates checkpoint frequency.
    if (lastCkptAt_ >= 0.0 && rts_.engine().now() - lastCkptAt_ <
                                  rts_.config_.checkpointPeriod_us)
      return;
    takeCheckpoint(array, round, agg);
  });
}

void CheckpointManager::takeCheckpoint(ArrayId array, std::uint32_t round,
                                       const Runtime::ReduceAgg& agg) {
  const sim::Time now = rts_.engine().now();
  const std::uint64_t id = nextSnapId_++;
  Snapshot& snap = snapshots_[id];
  snap.takenAt = now;
  snap.rootArray = array;
  snap.round = round;
  snap.agg = agg;
  snap.shards.resize(static_cast<std::size_t>(rts_.numPes()));
  if (rts_.lifecycle_ != nullptr) {
    // Elastic runs: snapshot the placement and lifecycle state too, so a
    // restore can revert migrations/retirements that happen after the cut.
    snap.peOfByArray.reserve(rts_.arrays_.size());
    for (const Runtime::ArrayRecord& rec : rts_.arrays_)
      snap.peOfByArray.push_back(rec.peOf);
    snap.lifeImage = rts_.lifecycle_->packImage();
  }

  const double memcpyRate = rts_.fabric().params().self_per_byte_us;
  std::size_t total = 0;
  for (int pe = 0; pe < rts_.numPes(); ++pe) {
    if (rts_.schedulers_[static_cast<std::size_t>(pe)]->retired())
      continue;  // retired PEs host nothing and ship no shard
    Packer packer;
    Puper puper(packer);
    // Deterministic shard layout: arrays in id order, elements in onPe
    // order; per element the reduction round, then the pup image. Restore
    // walks the same order, so no per-element framing is needed.
    for (Runtime::ArrayRecord& rec : rts_.arrays_) {
      for (std::int64_t index : rec.onPe[static_cast<std::size_t>(pe)]) {
        Chare& el = *rec.elems[static_cast<std::size_t>(index)];
        puper | el._reductionRound;
        el.pup(puper);
      }
    }
    std::vector<std::byte>& shard = snap.shards[static_cast<std::size_t>(pe)];
    shard.assign(packer.bytes().begin(), packer.bytes().end());
    total += shard.size();

    // Pack cost is a memcpy of the shard on the owning PE.
    rts_.scheduler(pe).enqueueSystemWork(
        memcpyRate * static_cast<double>(shard.size()), []() {},
        sim::Layer::kScheduler);

    // Ship the shard to the buddy as reliable bulk traffic; the snapshot is
    // usable only once every shard has actually landed.
    fault::ReliableLink::Send send;
    send.src = pe;
    send.dst = buddyOf(pe);
    // Channel key must be pair-based: a PE's buddy changes when the machine
    // grows or a PE retires, and a reliable channel is one (src, dst) flow.
    const int channel = (pe << 20) + send.dst;
    send.wireBytes = shard.size() + 32;  // shard + checkpoint header
    send.cls = fault::MsgClass::kBulk;
    send.on_deliver = [this, id, pe](std::vector<std::byte>&&) {
      // Arrival fires on the buddy's shard; the snapshot table is global
      // state, so completion is committed at the window boundary.
      rts_.runAtSerialBoundary([this, id, pe]() { onShardArrived(id, pe); });
    };
    send.on_error = [this, channel](fault::WcStatus) {
      // Extreme storm: give up on this snapshot's shard but recover the
      // flow so later checkpoints still ship.
      shardLink_.resetChannel(channel);
    };
    shardLink_.post(channel, std::move(send));
    ++snap.expected;
  }

  bytesPacked_ += total;
  lastCkptAt_ = now;
  rts_.engine().trace().record(now, rts_.record(array).hostPes.front(),
                               sim::TraceTag::kCkptTaken,
                               static_cast<double>(total));
}

void CheckpointManager::onShardArrived(std::uint64_t id, int pe) {
  const auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return;  // pruned while the shard was in flight
  Snapshot& snap = it->second;
  (void)pe;
  ++snap.arrived;
  if (snap.arrived < snap.expected) return;
  snap.complete = true;
  snap.safeAt = rts_.engine().now();
  pruneSnapshots();
}

void CheckpointManager::pruneSnapshots() {
  // Ids are monotone in takenAt, so "newest" == largest id. Keep the two
  // newest completed snapshots; everything older (completed or not) can no
  // longer win the restore selection and is dropped.
  int completeSeen = 0;
  std::uint64_t cutoff = 0;
  bool haveCutoff = false;
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (!it->second.complete) continue;
    if (++completeSeen == 2) {
      cutoff = it->first;
      haveCutoff = true;
      break;
    }
  }
  if (!haveCutoff) return;
  for (auto it = snapshots_.begin(); it != snapshots_.end();)
    it = it->first < cutoff ? snapshots_.erase(it) : std::next(it);
}

void CheckpointManager::injectCrash(std::size_t which) {
  const PlannedCrash& crash = crashes_[which];
  CKD_REQUIRE(crashedPe_ < 0,
              "overlapping pe_crash events: one outage at a time");
  int victim = crash.pe;
  // Elastic runs: a retired PE has left the machine and cannot crash — the
  // fault lands on the next live PE in the ring (deterministic retarget).
  while (rts_.schedulers_[static_cast<std::size_t>(victim)]->retired())
    victim = (victim + 1) % rts_.numPes();
  CKD_REQUIRE(rts_.peAlive(victim), "pe_crash victim is already dead");
  const sim::Time now = rts_.engine().now();
  crashedPe_ = victim;
  crashAt_ = now;
  --pendingCrashes_;
  rts_.engine().trace().record(now, victim, sim::TraceTag::kFaultPeCrash,
                               static_cast<double>(victim));

  // Fail-stop: the PE's pending work evaporates, every reliable flow
  // touching it is torn down silently (flush barriers NAK in-flight
  // copies), its in-flight transport transactions die, and its pinned
  // memory stops validating for remote access.
  rts_.scheduler(victim).crash();
  rts_.transport_->onPeCrash(victim);
  if (rts_.ib_ != nullptr) {
    rts_.ib_->flushPe(victim);
    rts_.ib_->invalidatePe(victim);
  }
  if (rts_.dcmf_ != nullptr) rts_.dcmf_->flushPe(victim);
  shardLink_.flushPe(victim);
  // Crash mid-drain: tear down handoff flows touching the victim; the
  // restore below falls back to the global rollback instead of wedging.
  if (rts_.lifecycle_ != nullptr) rts_.lifecycle_->onPeCrash(victim);
}

void CheckpointManager::heartbeatTick() {
  // Quiesce once no outage is pending or in progress, so run() terminates.
  if (pendingCrashes_ == 0 && crashedPe_ < 0) return;
  const sim::Time now = rts_.engine().now();
  for (int pe = 0; pe < rts_.numPes(); ++pe) {
    if (!rts_.peAlive(pe)) continue;  // the dead go silent
    if (rts_.schedulers_[static_cast<std::size_t>(pe)]->retired())
      continue;  // retired PEs have left the machine
    rts_.fabric().sendWire(
        pe, buddyOf(pe), kBeatBytes, fault::MsgClass::kControl,
        [this, pe](const fault::WireSender::Delivery&) {
          lastBeat_[static_cast<std::size_t>(pe)] = rts_.engine().now();
        });
  }
  if (crashedPe_ >= 0 &&
      now - lastBeat_[static_cast<std::size_t>(crashedPe_)] >=
          missedBeats() * beatPeriodUs()) {
    rts_.engine().trace().record(now, crashedPe_, sim::TraceTag::kCrashDetect,
                                 now - crashAt_);
    restore();
  }
  rts_.engine().after(beatPeriodUs(), [this]() { heartbeatTick(); });
}

void CheckpointManager::restore() {
  const sim::Time now = rts_.engine().now();
  // Newest snapshot that was fully at the buddies before the crash. A
  // snapshot completed after the crash instant may contain shards shipped
  // from the victim post-checkpoint; safeAt <= crashAt rules those out.
  Snapshot* snap = nullptr;
  for (auto& [id, s] : snapshots_)
    if (s.complete && s.safeAt <= crashAt_ &&
        (snap == nullptr || s.takenAt > snap->takenAt))
      snap = &s;
  CKD_REQUIRE(snap != nullptr,
              "pe_crash happened before the first buddy checkpoint completed "
              "(crash scheduled too early or checkpoints undeliverable)");

  // 1. New epoch: every live message from before this instant is stale and
  //    will be dropped at enqueue.
  ++rts_.epoch_;
  // 2. Flush every scheduler queue (live PEs hold pre-rollback messages
  //    too) and bring the victim back.
  for (auto& sched : rts_.schedulers_) sched->flushQueues();
  rts_.scheduler(crashedPe_).revive();
  // 3. Tear down every reliable flow — including live-live flows, whose
  //    in-flight deliveries would otherwise land pre-crash bytes in
  //    restored buffers — and every in-flight transport transaction.
  if (rts_.ib_ != nullptr) rts_.ib_->flushAll();
  if (rts_.dcmf_ != nullptr) rts_.dcmf_->flushAll();
  shardLink_.flushAll();
  rts_.transport_->reset();

  // 4. Reduction progress restarts from the cut (cleared before the
  //    placement revert below, which requires closed rounds).
  for (Runtime::ArrayRecord& rec : rts_.arrays_)
    for (Runtime::PeReduceState& state : rec.reduce) state.rounds.clear();
  // 4b. Elastic runs: revert element placement to the snapshot's. Any
  //     migration (drain handoff, post-scale-out rebalance) that happened
  //     after the cut is undone — the crash-mid-drain fallback. The app's
  //     migrate hook fires for every reverted element so its CkDirect
  //     channels move home again, and the lifecycle manager rolls its own
  //     state machine back to the image taken at the cut.
  if (!snap->peOfByArray.empty()) {
    CKD_REQUIRE(snap->peOfByArray.size() == rts_.arrays_.size(),
                "arrays created after arm() are not restorable");
    for (std::size_t a = 0; a < rts_.arrays_.size(); ++a) {
      Runtime::ArrayRecord& rec = rts_.arrays_[a];
      const std::vector<int>& want = snap->peOfByArray[a];
      for (std::int64_t i = 0; i < rec.count; ++i) {
        const int cur = rec.peOf[static_cast<std::size_t>(i)];
        const int old = want[static_cast<std::size_t>(i)];
        if (cur == old) continue;
        if (rts_.migrateHook_)
          rts_.migrateHook_(static_cast<ArrayId>(a), i, cur, old);
        rec.elems[static_cast<std::size_t>(i)]->_rebind(old);
        rec.peOf[static_cast<std::size_t>(i)] = old;
      }
      rts_.rebuildPlacement(rec);
    }
  }
  if (rts_.lifecycle_ != nullptr) rts_.lifecycle_->onRestore(snap->lifeImage);
  // 5. Unpack every element in place from the chosen snapshot. Buffer
  //    addresses are stable (pup's in-place vector contract), which is what
  //    re-registration below keys off. The loop is bounded by the
  //    snapshot's PE count: PEs added by a later scale-out own nothing
  //    under the reverted placement.
  const double memcpyRate = rts_.fabric().params().self_per_byte_us;
  for (int pe = 0; pe < static_cast<int>(snap->shards.size()); ++pe) {
    const std::vector<std::byte>& shard =
        snap->shards[static_cast<std::size_t>(pe)];
    Unpacker unpacker(std::span<const std::byte>(shard.data(), shard.size()));
    Puper puper(unpacker);
    for (Runtime::ArrayRecord& rec : rts_.arrays_) {
      for (std::int64_t index : rec.onPe[static_cast<std::size_t>(pe)]) {
        Chare& el = *rec.elems[static_cast<std::size_t>(index)];
        puper | el._reductionRound;
        el.pup(puper);
      }
    }
    rts_.scheduler(pe).enqueueSystemWork(
        memcpyRate * static_cast<double>(shard.size()), []() {},
        sim::Layer::kScheduler);
  }
  // 6. Re-register memory and re-run the CkDirect handle handshake under
  //    the new epoch.
  if (rts_.reestablishHook_) rts_.reestablishHook_();
  // 7. Replay the snapshotted reduction-root delivery; its messages carry
  //    the new epoch, so the application resumes exactly from the cut.
  rts_.deliverReductionResult(rts_.record(snap->rootArray), /*pos=*/0,
                              snap->round, snap->agg);

  recoveryUs_ += now - crashAt_;
  rts_.engine().trace().record(now, crashedPe_, sim::TraceTag::kCkptRestore,
                               now - crashAt_);
  crashedPe_ = -1;
}

}  // namespace ckd::charm
