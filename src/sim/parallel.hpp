#pragma once
// ParallelEngine: thread-sharded conservative discrete-event execution.
//
// The PE space is partitioned into shards; each shard owns a private
// sim::Engine (heap, clock, trace ring, arrival inbox) over its slice.
// Execution proceeds in rounds. The coordinator computes one global
// ceiling
//
//     C = min( min_over_shards(next event time) + lookahead,
//              next serial event time )
//
// and every shard concurrently executes its events with time < C. The
// lookahead is the machine's wire-latency floor, so no event a shard
// executes in this window can cause a cross-shard arrival below C.
//
// Cross-shard events travel through lock-free SPSC rings (chained overflow
// segments, batched release-store publication) and land in the destination
// engine's *inbox*, never directly in its heap. Inbox entries carry the
// canonical wire identity (when, srcPe, srcSeq) and are admitted into the
// heap just in time — when every event strictly before them has executed —
// so their position in the total order is a pure virtual-time property,
// independent of the partition, the window boundaries, and whether a
// mid-window drain or the barrier reconcile delivered them. That, plus
// per-PE id/sequence minting in the layers above, is why an N-shard run is
// bit-identical to a 1-shard run. Shards drain their inbound rings
// opportunistically inside the window loop (every Config::drainStride
// events), which keeps rings shallow and moves merge work off the barrier;
// the barrier only reconciles stragglers.
//
// Serial events (atSerial / atSerialBoundary) model globally-synchronous
// work — fault injections, heartbeat ticks, checkpoint commits. They run on
// the coordinator between rounds with every shard parked and every shard
// clock pinned to the event's instant, so they may touch cross-shard state
// freely. A serial event's time always caps the ceiling, so no shard ever
// runs past a pending serial event. A boundary event issued from a shard
// resolves to the ceiling of the window that issued it: one global time,
// the same under every partition.
//
// Shards are the determinism-relevant partition; worker threads are an
// execution detail. `threads` defaults to min(shards, hardware cores), and
// with one thread the coordinator runs each shard's window inline — same
// results, no synchronization. Results depend on the shard count only
// through nothing at all: that is the property the determinism gate checks.

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "util/pool.hpp"
#include "util/require.hpp"

namespace ckd::sim {

class ParallelEngine {
 public:
  struct Config {
    int shards = 1;      ///< partition count (affects nothing observable)
    int threads = 0;     ///< worker threads; 0 = min(shards, hw cores)
    Time lookahead = 0;  ///< cross-shard latency floor, must be > 0
    /// Events a shard executes between mid-window inbound-ring drains.
    std::uint64_t drainStride = 256;
  };

  /// Aggregated ring counters (cross-shard + serial rings).
  struct RingStats {
    std::uint64_t pushes = 0;   ///< entries published
    std::uint64_t batches = 0;  ///< release-stores that published them
    std::uint64_t overflow = 0; ///< entries that spilled to chained segments
  };

  /// `shardOfPe[pe]` maps every PE to its owning shard in [0, shards).
  /// Callers must align the partition so that PEs of one *node* never
  /// split across shards (the fabric's injection/ejection port state and
  /// sub-lookahead intra-node latencies are then shard-local by design).
  ParallelEngine(Config cfg, std::vector<int> shardOfPe);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const { return threadCount_; }
  Time lookahead() const { return lookahead_; }
  int shardOf(int pe) const {
    return pe < 0 ? -1 : shardOfPe_[static_cast<std::size_t>(pe)];
  }

  Engine& shardEngine(int shard) {
    return shards_[static_cast<std::size_t>(shard)].engine;
  }
  Engine& serialEngine() { return serial_; }
  const Engine& serialEngine() const { return serial_; }

  /// The shard's private buffer pool, installed as the thread-current pool
  /// for the duration of the shard's window.
  util::BufferPool& shardPool(int shard) {
    return shards_[static_cast<std::size_t>(shard)].pool;
  }

  /// Engine of the calling execution context: the shard engine while that
  /// shard's window runs on this thread, the serial engine otherwise
  /// (setup code, serial phases, post-run inspection).
  Engine& current() { return tlsShard_ < 0 ? serial_ : shardEngine(tlsShard_); }
  /// Shard executing on this thread, or -1 in serial/coordinator context.
  int currentShard() const { return tlsShard_; }

  /// Schedule onto `pe`'s home shard from a context that already owns it —
  /// the shard's own thread, or the serial phase (which stages the event
  /// and inserts it before the next round). Intra-shard work (same-PE,
  /// same-node) must use this: its latency may be below the lookahead.
  template <class F>
  void atLocal(int pe, Time when, F&& f) {
    const int dst = shardOf(pe);
    if (tlsShard_ == dst) {
      shardEngine(dst).at(when, std::forward<F>(f));
      return;
    }
    CKD_REQUIRE(tlsShard_ < 0,
                "atLocal from a foreign shard: cross-shard work must be a "
                "wire transfer (atRemote)");
    stageSerial(dst, when, Engine::Action(std::forward<F>(f)));
  }

  /// Schedule a cross-node wire arrival onto `dstPe`'s shard. `wireSrcPe`
  /// is the sending PE (the canonical sort key; its shard must be the
  /// calling context). The arrival must honor the lookahead: when >= the
  /// destination's current window ceiling, which the drains assert.
  /// Same-shard cross-node arrivals post straight into the shard's own
  /// inbox; cross-shard arrivals stage into a per-destination batch that is
  /// published to the SPSC ring with one release-store. Both paths mint the
  /// same per-PE push sequence and meet in the destination inbox, whose
  /// just-in-time admission keeps the merge canonical across shard counts.
  void atRemote(int dstPe, int wireSrcPe, Time when, Engine::Action action) {
    const int dst = shardOf(dstPe);
    if (tlsShard_ < 0) {  // serial context: coordinator-owned staging
      stageSerial(dst, when, std::move(action));
      return;
    }
    CKD_REQUIRE(tlsShard_ == shardOf(wireSrcPe),
                "wire source PE does not belong to the calling shard");
    auto& seq = pushSeq_[static_cast<std::size_t>(wireSrcPe) + 1];
    ++seq;
    Shard& self = shards_[static_cast<std::size_t>(tlsShard_)];
    if (dst == tlsShard_) {
      self.engine.postArrival(when, wireSrcPe, seq, std::move(action));
      return;
    }
    auto& stage = self.outStage[static_cast<std::size_t>(dst)];
    stage.push_back(RingEntry{when, wireSrcPe, seq, false, std::move(action)});
    if (stage.size() >= kPublishBatch) flushStage(tlsShard_, dst);
  }

  /// Schedule a serial event at absolute time `when`. From shard context,
  /// `when` must be at or beyond the current window ceiling (asserted at
  /// the drain); use atSerialBoundary for "as soon as globally safe".
  template <class F>
  void atSerial(Time when, F&& f) {
    if (tlsShard_ < 0) {
      serial_.at(when, std::forward<F>(f));
      return;
    }
    serialRings_[static_cast<std::size_t>(tlsShard_)].push(RingEntry{
        when, tlsSerialSrcPe_, nextSerialPushSeq(), false,
        Engine::Action(std::forward<F>(f))});
  }

  /// Schedule a serial event at the earliest globally-safe instant: the
  /// ceiling of the window that issued it (a partition-independent time).
  /// From serial context it runs later in the same serial phase.
  template <class F>
  void atSerialBoundary(F&& f) {
    if (tlsShard_ < 0) {
      serial_.at(serial_.now(), std::forward<F>(f));
      return;
    }
    serialRings_[static_cast<std::size_t>(tlsShard_)].push(
        RingEntry{0.0, tlsSerialSrcPe_, nextSerialPushSeq(), true,
                  Engine::Action(std::forward<F>(f))});
  }

  /// Set the PE used as the canonical sort key for serial events pushed
  /// from the current shard context (the scheduler sets it to the pumping
  /// PE). -1 sorts before every real PE.
  void setSerialSrcPe(int pe) { tlsSerialSrcPe_ = pe; }

  /// Append newly added PEs to the partition (serial context only, with
  /// every shard parked). `shardOfNewPes[i]` becomes the shard of PE
  /// `oldCount + i`. The shard COUNT never changes — growth only extends
  /// the PE->shard map and the per-PE canonical-order/minting tables, so
  /// a grown run stays bit-identical across shard counts.
  void growPes(const std::vector<int>& shardOfNewPes);

  /// Run the round loop to global quiescence (all heaps and rings empty).
  void run();

  /// Abort the round loop at the next boundary (pending events remain).
  void stop() { stopRequested_.store(true, std::memory_order_relaxed); }

  // ---- aggregates over every engine (shards + serial) ----

  std::uint64_t executedEvents() const;
  std::uint64_t shardExecutedEvents(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].engine.executedEvents();
  }
  /// Max clock over every engine: the completion horizon of the run.
  Time horizon() const;
  std::uint64_t windows() const { return windows_; }

  /// Ring counters summed over every cross-shard and serial ring. Read
  /// with shards parked (between runs).
  RingStats ringStats() const;

  /// Every retained trace event, merged across the serial + shard rings
  /// into the canonical order: stable-sorted by (time, pe) with the serial
  /// stream first. Events tied on (time, pe) all originate from one stream
  /// (a PE's events are recorded only by its own shard), so the merged
  /// order is partition-independent.
  std::vector<TraceEvent> mergedTrace() const;

  /// Attach (or detach) a flight recorder sampled by the coordinator at
  /// round boundaries — after each serial phase and each parallel window,
  /// with every shard parked, so probe reads over shard state are
  /// race-free. Snapshot timestamps follow this run's window boundaries;
  /// the samples themselves are read-only, so metrics-on and metrics-off
  /// runs stay bit-identical.
  void attachSampler(obs::FlightRecorder* recorder) { sampler_ = recorder; }

  /// Shared per-PE chain-id counter table for TraceRecorder::mintIdFor
  /// (slot 0 = the serial context). Wired into every shard recorder by the
  /// runtime so minted ids are a function of per-PE order alone.
  std::vector<std::uint64_t>& mintCounters() { return mintCounters_; }

 private:
  /// Cross-shard batch size: one release-store publishes this many entries.
  static constexpr std::size_t kPublishBatch = 32;

  struct RingEntry {
    Time when = 0.0;
    std::int32_t srcPe = -1;
    std::uint64_t srcSeq = 0;
    bool boundary = false;  ///< serial ring only: run at the window ceiling
    Engine::Action action;
  };

  /// Single-producer single-consumer ring with lock-free chained overflow
  /// segments. The producer is the source shard's current worker thread;
  /// the consumer is the destination shard's worker (mid-window drains) or
  /// the coordinator (barrier reconcile) — phases are ordered by the round
  /// barriers, so single-consumer discipline holds. The hot path never
  /// takes a lock: the main ring publishes with a release-store of head_,
  /// and an overflowing producer appends to a producer-owned segment whose
  /// fill count is release-published (the consumer reads the published
  /// prefix only). Stats are producer-written; read them with the producer
  /// parked.
  class SpscRing {
   public:
    struct Stats {
      std::uint64_t pushes = 0;
      std::uint64_t batches = 0;
      std::uint64_t overflow = 0;
    };

    SpscRing() = default;
    ~SpscRing();
    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    void push(RingEntry&& e);
    /// Publish `n` entries with one release-store per ring/segment chunk.
    void pushBatch(RingEntry* first, std::size_t n);
    void drainInto(std::vector<RingEntry>& out);
    /// Free fully-consumed overflow segments. Both sides must be parked
    /// (coordinator-only, at quiescence).
    void reclaim();
    const Stats& stats() const { return stats_; }

   private:
    static constexpr std::size_t kCapacity = 1024;    // power of two
    static constexpr std::size_t kSegmentCap = 1024;  // entries per segment

    /// Overflow segment: producer fills buf[0..count), publishing the fill
    /// with a release-store; the buffer never reallocates, so the consumer
    /// may read the published prefix while the producer appends behind it.
    struct Segment {
      std::vector<RingEntry> buf = std::vector<RingEntry>(kSegmentCap);
      std::atomic<std::size_t> count{0};   ///< release-published fill
      std::size_t consumed = 0;            ///< consumer-side cursor
      std::atomic<Segment*> next{nullptr};
    };

    void spill(RingEntry&& e);  ///< append to the overflow chain (no store)
    void publishSpill();        ///< release the pending segment fill

    std::vector<RingEntry> buf_ = std::vector<RingEntry>(kCapacity);
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
    std::atomic<Segment*> segHead_{nullptr};
    Segment* segTail_ = nullptr;      ///< producer-owned
    std::size_t segFill_ = 0;         ///< producer-side unpublished fill
    Stats stats_;
  };

  struct Shard {
    Engine engine;
    util::BufferPool pool;          ///< shard-local recycling (NUMA locality)
    std::vector<RingEntry> staged;  ///< serial-context pushes (coordinator)
    /// Per-destination producer-side batches (kPublishBatch entries per
    /// release-store). Only the shard's current worker thread touches them.
    std::vector<std::vector<RingEntry>> outStage;
    std::vector<RingEntry> drainScratch;  ///< mid-window drain buffer
  };

  std::size_t ringIndex(int src, int dst) const {
    return static_cast<std::size_t>(src) * shards_.size() +
           static_cast<std::size_t>(dst);
  }
  void stageSerial(int dstShard, Time when, Engine::Action action);
  std::uint64_t nextSerialPushSeq() { return ++pushSeq_[0]; }

  void flushStage(int src, int dst);
  void flushOutbound(int shard);
  /// Pull every published inbound-ring entry into the shard's inbox
  /// (mid-window pre-staging; conservatism guarantees nothing below the
  /// current window ceiling can appear).
  void drainInbound(int shard);
  /// Barrier reconcile: move straggler ring entries and serial-phase
  /// staging into the inboxes, and run shard-issued serial events' drain.
  void reconcile();

  Time minShardNext() const;
  void runShardWindow(int shard);  ///< execute below windowCeiling_
  /// Coordinator-side sampler check after a round/serial phase (shards
  /// parked); `t` is the boundary's virtual time.
  void maybeSample(Time t);
  void executeRound();
  void workerLoop(int workerIndex);

  Time lookahead_ = 0.0;
  std::uint64_t drainStride_ = 256;
  std::vector<int> shardOfPe_;
  std::vector<Shard> shards_;
  Engine serial_;
  std::vector<SpscRing> rings_;        ///< shard -> shard, [src*N + dst]
  std::vector<SpscRing> serialRings_;  ///< shard -> serial queue
  /// Per-source push counters for the canonical sort key; slot 0 is the
  /// serial context, slot pe+1 is touched only by shard(pe)'s thread.
  std::vector<std::uint64_t> pushSeq_;
  std::vector<std::uint64_t> mintCounters_;
  Time windowCeiling_ = 0.0;  ///< ceiling of the current/last round
  std::uint64_t windows_ = 0;
  std::atomic<bool> stopRequested_{false};
  obs::FlightRecorder* sampler_ = nullptr;

  // Worker pool (only when threads() > 1). Spin-then-yield barriers: the
  // generation counter releases a round, doneCount_ reports completion.
  int threadCount_ = 1;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> startGen_{0};
  std::atomic<int> doneCount_{0};
  std::atomic<bool> quit_{false};

  std::vector<RingEntry> drainScratch_;  ///< coordinator-side scratch

  inline static thread_local int tlsShard_ = -1;
  inline static thread_local int tlsSerialSrcPe_ = -1;
};

}  // namespace ckd::sim
