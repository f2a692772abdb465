#pragma once
// Elastic PE lifecycle: supervisor-driven scale-out / drain / retire with
// checkpoint-grade state handoff (DESIGN.md §2i).
//
// Every PE moves through a small state machine supervised by the
// LifecycleManager:
//
//     Joining ──join latency──▶ Active ──requestDrain──▶ Draining
//                                  ▲                        │
//                                  │ (rollback reverts)      │ handoff done
//                                  └──── Crashed ◀───┐      ▼
//                                       (transient)  └── Retired
//
//  * Scale-out (`scale_out@<t>;pes=<n>`, or requestScaleOut) grows the
//    ElasticTopology by whole nodes in a serial phase: the fabric ports, the
//    shard map, the per-PE minting tables, schedulers/processors, the
//    heartbeat table, and the CkDirect manager's per-PE state all extend in
//    the same phase, before any event can target the new PEs. New PEs sit in
//    Joining for a fixed handshake latency, then become Active and the next
//    reduction cut rebalances elements onto them.
//  * Drain (`drain@<t>;pe=<k>`, or requestDrain) marks a PE Draining: at the
//    next reduction-root cut — the one instant where no user message or
//    CkDirect put is in flight — the supervisor intercepts the root
//    delivery, rebinds every resident element to adoptive PEs, ships the
//    packed element state over a dedicated reliable link (bounded
//    retry/backoff, like the PR 3 buddy-checkpoint shipping), re-registers
//    moved CkDirect channels via the migrate hook + Manager::rehome, and
//    only then releases the captured reduction result. A Draining PE that
//    hosts nothing retires: it stops heartbeating and accepting chare work
//    but keeps pumping so late arrivals forward to the new owners
//    (tombstone forwarding).
//  * Crash mid-drain (of the draining PE or an adoptive PE) falls back to
//    the PR 3 global rollback: the snapshot carries the placement and a
//    lifecycle state image, so restore reverts the half-done migration and
//    the post-restore cut re-drives it. No wedging, no special cases.
//
// Double-drain and drain-below-minimum are rejected synchronously
// (CKD_REQUIRE), so misuse dies loudly at the request site.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "charm/runtime.hpp"
#include "fault/reliable.hpp"
#include "sim/time.hpp"
#include "topo/elastic.hpp"

namespace ckd::charm {

enum class PeState : std::uint8_t {
  kActive = 0,
  kJoining,
  kDraining,
  kRetired,
};

std::string_view peStateName(PeState state);

/// One scripted lifecycle action (--scale-plan).
struct ScaleRule {
  enum class Kind : std::uint8_t { kScaleOut, kDrain };
  Kind kind = Kind::kScaleOut;
  sim::Time at = 0.0;  ///< virtual time the rule fires
  int pes = 0;         ///< kScaleOut: PEs to add (whole nodes)
  int pe = -1;         ///< kDrain: the PE to drain
};

struct ScalePlan {
  std::vector<ScaleRule> rules;
  bool empty() const { return rules.empty(); }
};

/// Parse a --scale-plan spec. Grammar (comma-separated rules, modeled on
/// --faults):
///
///   plan := rule ("," rule)*
///   rule := "scale_out@" time_us ";pes=" n     (grow by n PEs, whole nodes)
///         | "drain@" time_us ";pe=" k          (drain PE k)
///
/// Example: "scale_out@400;pes=8,drain@900;pe=2".
/// Empty string -> empty plan. Aborts (CKD_REQUIRE) on malformed specs.
ScalePlan parseScalePlan(const std::string& spec);

class LifecycleManager {
 public:
  /// Modeled join handshake: time between the scale-out growing the machine
  /// and the new PEs turning Active (boot + wireup announcement).
  static constexpr sim::Time kJoinLatencyUs = 25.0;

  explicit LifecycleManager(Runtime& rts);

  // --- supervisor API --------------------------------------------------------

  /// Grow the machine by `addPes` PEs (a whole number of nodes). Requires an
  /// ElasticTopology. The growth itself runs at the next serial boundary.
  void requestScaleOut(int addPes);

  /// Begin draining `pe`. Rejects (aborts) a double drain and a drain that
  /// would leave fewer than MachineConfig::minPes active PEs. The migration
  /// runs at the next reduction-root cut.
  void requestDrain(int pe);

  PeState state(int pe) const {
    return states_[static_cast<std::size_t>(pe)];
  }
  int activePes() const;
  /// True while a drain or post-scale-out rebalance awaits a reduction cut,
  /// or a handoff is in flight.
  bool migrationPending() const;

  // --- runtime hooks ---------------------------------------------------------

  /// Reduction-root interception (called by tryFlushReduction at pos == 0,
  /// possibly on a shard thread). Returns true when this cut was captured
  /// for migration: the caller must NOT checkpoint or deliver the result —
  /// the supervisor re-drives both once the handoff completes.
  bool interceptRoot(ArrayId array, std::uint32_t round,
                     const Runtime::ReduceAgg& agg);

  /// Fail-stop notification (from CheckpointManager::injectCrash): tear
  /// down handoff flows touching the victim and abort any in-flight
  /// migration — the global rollback reverts placement, and the
  /// post-restore cut re-drives the drain.
  void onPeCrash(int victim);

  /// Opaque state image stored with each checkpoint snapshot.
  std::vector<std::uint8_t> packImage() const;
  /// Roll the lifecycle back to `image` (global rollback). PEs added after
  /// the cut stay in the machine (hardware does not un-provision) and are
  /// rebalanced onto at the next cut; drains requested after the cut are
  /// kept as intent (the PE re-enters Draining) so scripted drains survive.
  void onRestore(const std::vector<std::uint8_t>& image);

  // --- stats (bench JSON) ----------------------------------------------------
  std::uint64_t scaleOuts() const {
    return rts_.fabric().tagCount(sim::TraceTag::kLifeScaleOut);
  }
  std::uint64_t drainsCompleted() const {
    return rts_.fabric().tagCount(sim::TraceTag::kLifeRetire);
  }
  std::uint64_t elementsMigrated() const { return elementsMigrated_; }
  std::uint64_t handoffBytesShipped() const { return handoffBytes_; }
  std::uint64_t handoffRetries() const { return handoffRetries_; }
  std::uint64_t migrationsAborted() const {
    return rts_.fabric().tagCount(sim::TraceTag::kLifeAbort);
  }
  /// Stale handoff arrivals NAKed on the handoff link itself.
  std::uint64_t handoffStaleNaks() const { return handoffLink_.staleNaks(); }

 private:
  struct Move {
    ArrayId array = -1;
    std::int64_t index = 0;
    int from = -1;
    int to = -1;
  };

  /// Directed-pair handoff channel key (size-independent, like the
  /// transport's).
  static int handoffChannel(int src, int dst) { return (src << 20) + dst; }

  void scheduleRule(const ScaleRule& rule);
  /// Serial-phase body of requestScaleOut.
  void doScaleOut(int addPes);
  /// Join latency elapsed: Joining -> Active, pend a rebalance.
  void completeJoin(int firstPe, int lastPe);
  /// Serial-phase migration driver: compute moves, rebind placement, ship
  /// state, or deliver the captured cut directly when nothing moves.
  void performMigration();
  /// Balanced placement moves for one array (drain + level); deterministic.
  void collectMoves(ArrayId array, std::vector<Move>& moves) const;
  /// Ship one (src, dst) handoff shard; bounded retry with backoff.
  void shipHandoff(int src, int dst, std::size_t stateBytes, int attempts);
  void onHandoffArrived();
  /// All handoffs landed: retire empty drained PEs, release the cut.
  void finishMigration();
  void retireEmptyDrains();
  /// Deliver the captured reduction result (checkpoint first, like the
  /// un-intercepted path would have).
  void releaseCapture();
  /// Schedule a serial-context event `delay` after now.
  void scheduleSerialAfter(sim::Time delay, std::function<void()> fn);

  Runtime& rts_;
  /// Non-null when the topology supports growth; drains work either way.
  std::shared_ptr<topo::ElasticTopology> elastic_;
  ScalePlan plan_;
  /// Handoff shipping rides its own go-back-N link (like the checkpoint
  /// shard link) so drained state survives the same wire faults the
  /// application traffic does.
  fault::ReliableLink handoffLink_;

  /// Per-PE lifecycle state; extended in serial phases only.
  std::vector<PeState> states_;
  /// Hot-path flags interceptRoot reads from shard threads.
  std::atomic<int> drainingCount_{0};
  std::atomic<bool> rebalancePending_{false};
  std::atomic<bool> captureActive_{false};

  /// Captured cut (valid while captureActive_).
  ArrayId capturedArray_ = -1;
  std::uint32_t capturedRound_ = 0;
  Runtime::ReduceAgg capturedAgg_;
  /// Arrays skipped by the last migration pass (open reduction rounds).
  bool migrationIncomplete_ = false;
  int outstandingHandoffs_ = 0;
  /// Bumped whenever an in-flight migration is cancelled (crash, restore);
  /// deferred handoff closures from an older epoch no-op.
  std::uint64_t migrationEpoch_ = 0;

  std::uint64_t elementsMigrated_ = 0;
  std::uint64_t handoffBytes_ = 0;
  std::uint64_t handoffRetries_ = 0;
};

}  // namespace ckd::charm
