#pragma once
// Runtime: the simulated message-driven machine. Owns the event engine, the
// fabric, the machine layer (InfiniBand verbs or BG/P DCMF), one scheduler
// and one simulated processor per PE, the chare-array registry, and the
// reduction/broadcast trees.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "charm/chare.hpp"
#include "charm/costs.hpp"
#include "charm/message.hpp"
#include "charm/scheduler.hpp"
#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/processor.hpp"
#include "topo/topology.hpp"

namespace ckd::ib {
class IbVerbs;
}
namespace ckd::dcmf {
class DcmfContext;
}

namespace ckd::charm {

class Transport;
class CheckpointManager;
class LifecycleManager;

enum class LayerKind { kInfiniband, kBlueGene };

struct MachineConfig {
  topo::TopologyPtr topology;
  net::CostParams netParams;
  RuntimeCosts costs;
  LayerKind layer = LayerKind::kInfiniband;
  /// Fault-injection plan, installed on the fabric at construction when
  /// armed. An empty/unarmed plan (the default) changes nothing.
  fault::FaultPlan faults;
  std::uint64_t faultSeed = 1;
  /// Minimum virtual time between buddy checkpoints. Only consulted when the
  /// fault plan schedules pe_crash events (checkpointing costs nothing
  /// otherwise because the manager is never created).
  sim::Time checkpointPeriod_us = 100.0;
  /// Discrete-event execution mode. 0 = the classic single engine. N >= 1 =
  /// the windowed sharded engine (sim::ParallelEngine) with min(N, numNodes)
  /// node-aligned shards; 1 is the serial baseline of the determinism gate
  /// (same windowed semantics, one shard). Every shard count produces
  /// bit-identical results; only wall-clock differs.
  int shards = 0;
  /// Worker threads for the sharded engine; 0 = min(shards, host cores).
  int shardThreads = 0;
  /// Virtual time between fail-stop heartbeats (--heartbeat-period).
  sim::Time heartbeatPeriod_us = 5.0;
  /// Consecutive silent beat periods before a PE is declared dead
  /// (--heartbeat-misses).
  int heartbeatMisses = 4;
  /// Elastic lifecycle script (--scale-plan): `scale_out@<t>;pes=<n>` /
  /// `drain@<t>;pe=<k>` rules, comma-separated. Non-empty implies
  /// `elastic = true`.
  std::string scalePlan;
  /// Create the LifecycleManager even with an empty scale plan, for
  /// programmatic requestScaleOut()/requestDrain() triggering.
  bool elastic = false;
  /// Drains that would leave fewer than this many active PEs are rejected.
  int minPes = 2;
  /// Streaming telemetry (--metrics-interval): > 0 arms the SLO histograms
  /// on every engine and samples a flight-recorder snapshot each this many
  /// virtual microseconds. 0 (default) compiles the whole path down to one
  /// disarmed branch per feed point.
  double metricsInterval_us = 0.0;
  /// Flight-recorder ring capacity (--metrics-snapshots); oldest snapshots
  /// drop (and are counted) once full.
  std::size_t metricsSnapshots = 512;
};

class Runtime {
 public:
  explicit Runtime(MachineConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- machine access -------------------------------------------------------

  /// Engine of the calling execution context: the classic single engine, or
  /// — under --shards — the current thread's shard engine (the serial engine
  /// from setup/coordinator code). All timing reads and direct scheduling by
  /// the layers go through this.
  sim::Engine& engine() {
    return parallel_ ? parallel_->current() : engine_;
  }
  /// True when the machine runs on the windowed sharded engine.
  bool windowed() const { return parallel_ != nullptr; }
  sim::ParallelEngine* parallelEngine() { return parallel_.get(); }
  const sim::ParallelEngine* parallelEngine() const { return parallel_.get(); }
  net::Fabric& fabric() { return *fabric_; }
  const topo::Topology& topology() const { return *config_.topology; }
  const RuntimeCosts& costs() const { return config_.costs; }
  LayerKind layer() const { return config_.layer; }
  int numPes() const { return config_.topology->numPes(); }

  Scheduler& scheduler(int pe);
  sim::Processor& processor(int pe);

  /// The verbs layer (InfiniBand machines only).
  ib::IbVerbs& ibVerbs();
  /// The DCMF layer (Blue Gene machines only).
  dcmf::DcmfContext& dcmf();

  /// PE whose handler is currently executing on THIS thread, or -1 between
  /// handlers (thread-local: each shard worker tracks its own pumping PE).
  int currentPe() const { return currentPe_; }
  void setCurrentPe(int pe) {
    currentPe_ = pe;
    // The pumping PE is also the canonical ordering key for serial events
    // issued from inside its handlers (checkpoint commits and the like).
    if (parallel_ && parallel_->currentShard() >= 0)
      parallel_->setSerialSrcPe(pe);
  }

  /// Schedule `fn` at `when` on `pe`'s home engine. Same-shard (and legacy
  /// single-engine) calls go straight to the heap; this is the required
  /// path for PE-local work whose latency may sit below the lookahead
  /// (scheduler pumps, self-sends, intra-node hops).
  template <class F>
  void schedAt(int pe, sim::Time when, F&& fn) {
    if (parallel_)
      parallel_->atLocal(pe, when, std::forward<F>(fn));
    else
      engine_.at(when, std::forward<F>(fn));
  }

  /// Run `fn` in serial context at the earliest globally-safe instant: the
  /// current window's ceiling under the sharded engine (every shard parked,
  /// cross-shard state free to touch), immediately on the legacy engine.
  template <class F>
  void runAtSerialBoundary(F&& fn) {
    if (parallel_)
      parallel_->atSerialBoundary(std::forward<F>(fn));
    else
      fn();
  }

  // --- fail-stop tolerance ---------------------------------------------------

  /// Restart epoch: bumped on every fail-stop recovery. Every message is
  /// stamped with the epoch it was sent in; schedulers drop stale-epoch
  /// arrivals so pre-crash traffic cannot land in rolled-back state.
  std::uint32_t epoch() const { return epoch_; }

  /// False while `pe` is crashed (between the fail-stop event and restore).
  bool peAlive(int pe) const {
    return !schedulers_[static_cast<std::size_t>(pe)]->dead();
  }

  /// Checkpoint/restart manager; null unless the fault plan schedules
  /// pe_crash events.
  CheckpointManager* checkpoints() const { return ckpt_.get(); }

  /// Elastic lifecycle supervisor; null unless the config asked for it
  /// (non-empty scalePlan, or elastic = true).
  LifecycleManager* lifecycle() const { return lifecycle_.get(); }

  /// Hook the restart protocol runs after chare state is restored, so the
  /// CkDirect manager (which charm cannot depend on) can re-register memory
  /// and re-run its handle handshake under the new epoch.
  void setReestablishHook(std::function<void()> fn) {
    reestablishHook_ = std::move(fn);
  }

  /// Hook run after the machine grows (elastic scale-out), so layers that
  /// size per-PE state (the CkDirect managers) can extend it.
  void setGrowHook(std::function<void()> fn) { growHook_ = std::move(fn); }

  /// Hook run once per element migrated by the lifecycle manager, with
  /// (array, index, fromPe, toPe). Applications that own CkDirect channels
  /// for the element rehome them here.
  using MigrateFn = std::function<void(ArrayId, std::int64_t, int, int)>;
  void setMigrateHook(MigrateFn fn) { migrateHook_ = std::move(fn); }

  // --- chare arrays ----------------------------------------------------------

  using MapFn = std::function<int(std::int64_t index)>;
  using EntryFn = std::function<void(Chare&, Message&)>;

  /// Create a chare array. `factory(i)` builds element i; `map(i)` places it.
  /// All elements are constructed eagerly (the paper's applications have
  /// static arrays).
  template <class T>
  ArrayId createArray(std::string name, std::int64_t count, MapFn map,
                      std::function<std::unique_ptr<T>(std::int64_t)> factory) {
    static_assert(std::is_base_of_v<Chare, T>, "array elements must be Chares");
    const ArrayId id = beginArray(std::move(name), count, std::move(map));
    for (std::int64_t i = 0; i < count; ++i) {
      std::unique_ptr<T> obj = factory(i);
      placeElement(id, i, std::move(obj));
    }
    return id;
  }

  /// Register an entry method on an array; returns its stable EntryId.
  template <class T>
  EntryId registerEntry(ArrayId array, const char* name,
                        void (T::*method)(Message&)) {
    return registerEntryRaw(array, name, [method](Chare& c, Message& m) {
      (static_cast<T&>(c).*method)(m);
    });
  }
  EntryId registerEntryRaw(ArrayId array, const char* name, EntryFn fn);

  std::int64_t arraySize(ArrayId array) const;
  int homePe(ArrayId array, std::int64_t index) const;
  Chare& element(ArrayId array, std::int64_t index);
  const std::vector<std::int64_t>& elementsOnPe(ArrayId array, int pe) const;

  // --- messaging --------------------------------------------------------------

  /// Invoke `entry` on element `index` with the given payload. The source PE
  /// is the currently executing PE (or PE 0 from setup code).
  void sendToElement(ArrayId array, std::int64_t index, EntryId entry,
                     std::span<const std::byte> payload);
  /// Same, adopting the packer's block as the message's wire image (no
  /// payload copy); the packer is left empty. (A distinct name, so a `{}`
  /// payload still means an empty span.)
  void sendPacked(ArrayId array, std::int64_t index, EntryId entry,
                  Packer&& packer);

  /// Deliver `entry` with `payload` to every element, via a PE spanning tree.
  void broadcast(ArrayId array, EntryId entry,
                 std::span<const std::byte> payload);
  void broadcastPacked(ArrayId array, EntryId entry, Packer&& packer);

  /// Element contribution to the array's reduction (see Chare::contribute).
  void contribute(ArrayId array, std::int64_t index,
                  std::span<const double> values, ReduceOp op,
                  EntryId completion);

  /// Low-level: route a fully formed message (pays pack/send overhead on the
  /// source PE when called from a handler).
  void sendMessage(MessagePtr msg);

  /// Scheduler upcall: dispatch a dequeued message.
  void deliver(Message& msg);

  // --- extensions (CkDirect attaches here; avoids a module cycle) -------------
  void setExtension(std::shared_ptr<void> ext) { extension_ = std::move(ext); }
  const std::shared_ptr<void>& extension() const { return extension_; }

  // --- driving -----------------------------------------------------------------

  /// Schedule `fn` at t=0, before any messages flow (mainchare-style setup).
  void seed(std::function<void()> fn) {
    if (parallel_)
      parallel_->atSerial(0.0, std::move(fn));
    else
      engine_.at(0.0, std::move(fn));
  }

  /// Run the machine until quiescence (no pending events).
  void run() {
    if (parallel_)
      parallel_->run();
    else
      engine_.run();
  }
  /// Completion horizon: max clock over every engine of the machine.
  sim::Time now() const {
    return parallel_ ? parallel_->horizon() : engine_.now();
  }

  /// Visit every engine of the machine: the classic single engine, or the
  /// serial engine and then each shard's engine in shard order.
  template <class F>
  void forEachEngine(F&& fn) {
    fabric_->forEachEngine(std::forward<F>(fn));
  }

  /// Events executed across every engine of the machine.
  std::uint64_t executedEvents() const {
    return parallel_ ? parallel_->executedEvents() : engine_.executedEvents();
  }
  /// Enable causal tracing on every engine; `capacity` != 0 resizes each
  /// ring first.
  void enableTracing(std::size_t capacity = 0);
  /// Retained trace events, merged across shards in canonical order.
  std::vector<sim::TraceEvent> traceEvents() const;

  /// Arm streaming telemetry: SLO histograms on every engine, plus — when
  /// `interval_us` > 0 — a flight recorder snapshotting every registered
  /// probe and the merged SLO view each `interval_us` of virtual time.
  /// Called from the ctor when the config sets metricsInterval_us; tests
  /// call it with interval 0 to get histograms without sampling. Read-only
  /// by construction: arming never changes simulation results.
  void enableMetrics(double interval_us = 0.0, std::size_t snapshots = 0);
  bool metricsArmed() const { return metricsArmed_; }
  /// The ckd.metrics.v1 document: flight-recorder series (empty when no
  /// interval was set) plus the shard-merged SLO summary.
  util::JsonValue metricsJson();

  std::uint64_t messagesSent() const {
    return messagesSent_.load(std::memory_order_relaxed);
  }

 private:
  struct ReduceAgg {
    int ownContrib = 0;
    int childSeen = 0;
    bool hasData = false;
    std::vector<double> partial;
    ReduceOp op = ReduceOp::kNop;
    EntryId completion = -1;
  };
  struct PeReduceState {
    std::map<std::uint32_t, ReduceAgg> rounds;
  };
  struct ArrayRecord {
    std::string name;
    std::int64_t count = 0;
    std::vector<int> peOf;                      // index -> home PE
    std::vector<std::unique_ptr<Chare>> elems;  // index -> object
    std::vector<EntryFn> entries;
    std::vector<std::string> entryNames;
    std::vector<int> hostPes;                    // sorted PEs with elements
    std::map<int, int> hostPos;                  // pe -> position in hostPes
    std::vector<std::vector<std::int64_t>> onPe;  // pe -> local indices
    std::vector<PeReduceState> reduce;            // indexed by hostPos
  };

  ArrayId beginArray(std::string name, std::int64_t count, MapFn map);
  void placeElement(ArrayId id, std::int64_t index, std::unique_ptr<Chare> obj);
  ArrayRecord& record(ArrayId id);
  const ArrayRecord& record(ArrayId id) const;

  /// Resolve the effective source PE for a send issued right now.
  int effectiveSrcPe() const { return currentPe_ >= 0 ? currentPe_ : 0; }
  /// Envelopes of sendToElement / broadcast (validated, not yet sequenced).
  Envelope userEnvelope(ArrayId array, std::int64_t index, EntryId entry) const;
  Envelope broadcastEnvelope(ArrayId array, EntryId entry) const;

  /// Next envelope sequence number for a message from `srcPe`.
  std::uint64_t nextMsgSeq(int srcPe);

  void handleBroadcast(Message& msg);
  void handleReduceUp(Message& msg);
  void handleReduceDown(Message& msg);
  void accumulate(ReduceAgg& agg, std::span<const double> values, ReduceOp op,
                  EntryId completion);
  void tryFlushReduction(ArrayRecord& a, int hostPos, std::uint32_t round);
  void deliverReductionResult(ArrayRecord& a, int hostPos, std::uint32_t round,
                              const ReduceAgg& agg);
  void enqueueLocalUser(ArrayId array, std::int64_t index, EntryId entry,
                        std::span<const std::byte> payload, int pe);

  static int treeParent(int pos) { return (pos - 1) / 2; }
  static int treeChild(int pos, int which) { return 2 * pos + 1 + which; }

  /// Rebuild an array's derived placement structures (onPe, hostPes,
  /// hostPos, reduce) from peOf after a rebind. Requires every reduction
  /// round of the array to be closed — migrations happen at reduction cuts.
  void rebuildPlacement(ArrayRecord& rec);

  /// Pick up a topology that grew (elastic scale-out, serial phase only):
  /// extend the fabric ports, the shard map, the per-PE minting tables,
  /// schedulers/processors, per-array onPe vectors, and notify the
  /// checkpoint manager and the grow hook.
  void growMachine();

  /// The checkpoint manager reaches into the array registry, reduction
  /// state, and machine layers to implement pack/restore.
  friend class CheckpointManager;
  /// The lifecycle manager drives placement rebinds, machine growth, and
  /// the drain/retire protocol.
  friend class LifecycleManager;

  MachineConfig config_;
  sim::Engine engine_;
  /// Sharded engine (--shards); declared before the fabric so the fabric
  /// (which schedules through it) is destroyed first.
  std::unique_ptr<sim::ParallelEngine> parallel_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<ib::IbVerbs> ib_;
  std::unique_ptr<dcmf::DcmfContext> dcmf_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  /// Deque, not vector: elastic growth appends processors mid-run and
  /// references held by running handlers must stay valid.
  std::deque<sim::Processor> processors_;
  std::vector<ArrayRecord> arrays_;
  std::shared_ptr<void> extension_;
  std::unique_ptr<CheckpointManager> ckpt_;
  std::unique_ptr<LifecycleManager> lifecycle_;
  /// Flight recorder sampled by whichever engine drives the run; created by
  /// enableMetrics when an interval is set.
  std::unique_ptr<obs::FlightRecorder> flight_;
  bool metricsArmed_ = false;
  std::function<void()> reestablishHook_;
  std::function<void()> growHook_;
  MigrateFn migrateHook_;
  std::uint32_t epoch_ = 0;
  /// Thread-local: each shard worker executes handlers for its own PEs.
  inline static thread_local int currentPe_ = -1;
  /// Legacy mode: one global message sequence (the historical stream).
  std::uint64_t nextSeq_ = 0;
  /// Windowed mode: per-PE sequence spaces, seq = (pe+1)<<40 | counter.
  /// Slot pe+1 is touched only by pe's shard thread (or the coordinator
  /// while every shard is parked); slot 0 is the serial context.
  std::vector<std::uint64_t> peMsgSeq_;
  std::atomic<std::uint64_t> messagesSent_{0};
};

}  // namespace ckd::charm
