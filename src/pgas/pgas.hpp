#pragma once
// A PGAS (partitioned global address space) runtime over the simulated
// verbs/fabric stack, modeled on DART-MPI (Zhou et al., "DART-MPI: An
// MPI-based Implementation of a PGAS Runtime System") with the transport
// swapped for native one-sided RDMA:
//
//  * Symmetric heap — every PE owns one registered segment of identical
//    size; a collective alloc() hands out the same offset on every PE, so a
//    global pointer is just {offset, bytes} and translation to a concrete
//    (pe, address) is a base add. This is the "team-aligned allocation"
//    DART calls dart_team_memalloc_aligned.
//  * One-sided put/get — puts ride ib::IbVerbs::postRdmaWrite (RC QPs, and
//    with faults armed, the PR 2 ReliableLink underneath); gets are a
//    control-message request plus an RDMA write back into the origin's
//    buffer (how DART-MPI models get over a put-only transport).
//  * Local vs. remote completion split, exactly DART's model:
//      - local completion: the origin's source buffer is reusable
//        (dart_flush_local / the on_local_complete CQE);
//      - remote completion: the data is visible at the target, observed at
//        the origin through a completion ack (dart_flush / dart_wait).
//    Handle-based ops return an OpId to test/wait either level; blocking
//    put is put + waitRemote. flushLocal/flush/fence drain the levels for
//    one target or all targets; barrier() is the team barrier.
//  * Remote atomics — fetch-add and compare-swap execute *at the target PE*
//    in simulated time (a control request, an RMW on the target's segment
//    in the target's execution context, a replied old value), so concurrent
//    updaters serialize in the fabric's canonical delivery order and the
//    result is deterministic across reruns and shard counts.
//  * Fault tolerance — reestablish() (the PR 3 crash-rebinding hook)
//    re-registers invalidated segments, resets errored QPs, and fails any
//    op that was in flight at the crash; every op carries a PR 5 causal
//    trace id (pgas.put/get/atomic begin -> fabric milestones ->
//    pgas.complete end) so trace_analyze breaks PGAS ops down like
//    CkDirect puts.
//
// Threading/context contract (same as the rest of the stack): constructor
// and alloc() run at setup time (serial context, no traffic yet); every
// other call must be made from the calling PE's execution context. Under
// --shards all per-origin state is owned by that PE's shard; cross-PE
// effects travel only through fabric deliveries.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ib/verbs.hpp"
#include "net/fabric.hpp"

namespace ckd::pgas {

/// Global pointer into the symmetric heap: the same offset is valid on
/// every PE. `bytes` is the allocation's extent (bounds-checked on access).
struct Gptr {
  static constexpr std::size_t kNull = static_cast<std::size_t>(-1);
  std::size_t offset = kNull;
  std::size_t bytes = 0;

  bool valid() const { return offset != kNull; }
  /// Subrange starting `delta` bytes in.
  Gptr at(std::size_t delta) const {
    return Gptr{offset + delta, bytes > delta ? bytes - delta : 0};
  }
};

/// Software cost model for the PGAS runtime layer (on top of the wire costs
/// the fabric charges). Fitted qualitatively: a PGAS put is a CkDirect-style
/// RDMA write plus a thin runtime layer (address translation, op tracking),
/// so it sits between CkDirect and MPI one-sided.
struct PgasCosts {
  std::string name = "dart-ib";
  /// Origin-side software per put (translation, op bookkeeping, post).
  /// Thicker than CkDirect's direct post: the PGAS runtime resolves the
  /// global pointer, allocates an op record, and routes through a generic
  /// completion layer (DART-MPI measures ~1-2 us over native verbs for
  /// small puts).
  sim::Time put_origin_us = 1.0;
  /// Origin-side software per get before the request leaves.
  sim::Time get_origin_us = 1.0;
  /// Target-side service cost per get (progress engine turns the request
  /// into an RDMA write back).
  sim::Time get_target_us = 0.30;
  /// Origin-side software per remote atomic.
  sim::Time atomic_origin_us = 0.30;
  /// Target-side RMW execution cost (serialized at the target).
  sim::Time atomic_target_us = 0.25;
  /// Origin-side processing of a completion ack.
  sim::Time completion_us = 0.10;
  /// Target-side delay between RDMA land and the signal watcher noticing
  /// (putSignal only; the analogue of CkDirect's poll interval, plus the
  /// runtime's signal dispatch).
  sim::Time signal_poll_us = 0.70;
  /// Software cost per barrier message hop.
  sim::Time barrier_hop_us = 0.20;
  /// Registering a source/destination buffer outside the symmetric heap
  /// (pin + key exchange); hits in the per-PE registration cache are free —
  /// the "persistent buffer association" idea from the Liu et al. RDMA
  /// channel, applied to PGAS bounce buffers.
  sim::Time reg_miss_us = 12.0;
  double reg_miss_per_byte_us = 0.25e-3;
  /// Wire size of control messages (requests, acks, barrier tokens).
  std::size_t control_bytes = 16;
  /// Transparent re-posts after a QP error before the op is failed.
  int retry_budget = 3;
  /// reestablish(): idempotent in-flight ops (puts, gets) are re-driven up
  /// to this many times across restore phases, with exponentially growing
  /// delay, before being failed outright. Atomics are never re-driven —
  /// the RMW may already have executed at the target with only the reply
  /// lost, and re-applying it would double-count.
  int reestablish_retries = 2;
  /// Base re-drive delay; doubles per attempt (5, 10, 20, ... us).
  sim::Time reestablish_backoff_us = 5.0;
};

/// Default preset for the Abe-like IB machine.
PgasCosts dartIbCosts();

/// Handle for test/wait on one op's completion levels. 0 = invalid.
using OpId = std::uint64_t;
constexpr OpId kNoOp = 0;

using Callback = std::function<void()>;
using ValueCallback = std::function<void(std::int64_t)>;

class Pgas {
 public:
  /// Allocates and registers a `segmentBytes` symmetric segment per PE.
  /// Setup-time only (serial context, before traffic).
  Pgas(ib::IbVerbs& verbs, PgasCosts costs, std::size_t segmentBytes);
  ~Pgas();

  Pgas(const Pgas&) = delete;
  Pgas& operator=(const Pgas&) = delete;

  ib::IbVerbs& verbs() { return verbs_; }
  net::Fabric& fabric() { return fabric_; }
  const PgasCosts& costs() const { return costs_; }
  int numPes() const { return fabric_.numPes(); }
  std::size_t segmentBytes() const { return segmentBytes_; }

  // --- symmetric heap -------------------------------------------------------

  /// Collective bump allocation: the returned offset is valid on every PE.
  /// Setup-time only. Aborts when the segment is exhausted.
  Gptr alloc(std::size_t bytes, std::size_t align = 8);

  /// Translate a global pointer to PE `pe`'s concrete address.
  void* addr(int pe, Gptr g);
  const void* addr(int pe, Gptr g) const;

  // --- one-sided ops --------------------------------------------------------

  /// Handle-based put: returns immediately with an OpId; use
  /// testLocal/waitLocal for source-buffer reuse and testRemote/waitRemote
  /// (or flush/fence) for target visibility.
  OpId put(int origin, int target, Gptr dst, const void* src,
           std::size_t bytes);

  /// Blocking-style put: `done` fires at the origin once the data is
  /// visible at the target (remote completion).
  void putBlocking(int origin, int target, Gptr dst, const void* src,
                   std::size_t bytes, Callback done);

  /// Put with a target-side notification: `onTargetNotify` runs *on the
  /// target PE* signal_poll_us after the data lands (SHMEM put-with-signal
  /// flavor; the PGAS analogue of a CkDirect callback). The returned OpId
  /// still completes at the origin like a plain put.
  OpId putSignal(int origin, int target, Gptr dst, const void* src,
                 std::size_t bytes, Callback onTargetNotify);

  /// Get `bytes` from `target`'s `src` into the origin's local buffer.
  /// Completes locally (`done` at the origin when the data arrived); both
  /// completion levels coincide.
  OpId get(int origin, int target, Gptr src, void* dst, std::size_t bytes,
           Callback done = {});

  // --- remote atomics (8-byte cells, 8-aligned) -----------------------------

  /// Atomically add `delta` to the int64 cell at `g` on `target`; `done`
  /// receives the pre-add value at the origin.
  OpId fetchAdd(int origin, int target, Gptr g, std::int64_t delta,
                ValueCallback done = {});

  /// Atomic compare-swap: set the cell to `desired` iff it equals
  /// `expected`; `done` receives the pre-op value.
  OpId compareSwap(int origin, int target, Gptr g, std::int64_t expected,
                   std::int64_t desired, ValueCallback done = {});

  // --- completion (the DART local/remote split) -----------------------------

  /// True once the source buffer is reusable (unknown ids read complete:
  /// records are reclaimed when fully done).
  bool testLocal(OpId id) const;
  /// True once the op is remotely complete (visible at the target).
  bool testRemote(OpId id) const;
  void waitLocal(OpId id, Callback cb);
  void waitRemote(OpId id, Callback cb);

  /// All of `origin`'s ops locally complete (dart_flush_local_all).
  void flushLocal(int origin, Callback cb);
  /// All of `origin`'s ops to `target` remotely complete (dart_flush).
  void flush(int origin, int target, Callback cb);
  /// All of `origin`'s ops to every target remotely complete
  /// (dart_flush_all; the memory-model fence).
  void fence(int origin, Callback cb);

  /// Team barrier: every PE must call it once per round; `done` fires on
  /// the calling PE after all have entered. Does NOT imply fence (call
  /// fence first for the full "all my writes visible" barrier).
  void barrier(int pe, Callback done);

  // --- fault tolerance ------------------------------------------------------

  /// Crash-rebinding hook (PR 3 contract; call from the serial restore
  /// phase): re-registers segments whose registration was invalidated,
  /// resets errored QPs, and drops stale registration-cache entries. Ops
  /// still in flight are then re-driven with bounded exponential backoff
  /// (reestablish_retries / reestablish_backoff_us) rather than failed
  /// outright — a transient disruption costs latency, not completions.
  /// Only idempotent ops re-drive (puts and gets; the payload landing twice
  /// is harmless): atomics fail immediately, and an op out of re-drive
  /// budget fails too, so waiters and fences always fire. Callers keep
  /// source buffers stable until *remote* completion when restore phases
  /// may re-drive.
  void reestablish();

  /// Ops failed permanently (retry budget exhausted or canceled by
  /// reestablish()). Their waiters/flushes still fire.
  std::uint64_t failedOps() const {
    return failedOps_.load(std::memory_order_relaxed);
  }

  /// In-flight ops re-driven (not failed) by reestablish() so far.
  std::uint64_t opsRedriven() const {
    return redriven_.load(std::memory_order_relaxed);
  }

  // --- counters -------------------------------------------------------------

  std::uint64_t bytesPut() const {
    return putBytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t regCacheMisses() const {
    return regMisses_.load(std::memory_order_relaxed);
  }
  std::uint64_t barriersCompleted() const {
    return barriers_.load(std::memory_order_relaxed);
  }

 private:
  struct Op {
    int target = -1;
    /// Issue instant (newOp time); feeds the streaming request-latency
    /// histogram at remote completion. Redrives keep it — one op, N tries.
    sim::Time issuedAt = -1.0;
    bool localDone = false;
    bool remoteDone = false;
    bool failed = false;
    int redrives = 0;   ///< reestablish() re-drive attempts so far
    Callback redrive;   ///< re-issues the op; empty for non-idempotent ops
    Callback localWaiter;
    Callback remoteWaiter;
  };
  struct Watcher {
    bool local = false;  ///< watches local completions (else remote)
    int target = -1;     ///< -1 = any target
    std::uint64_t remaining = 0;
    Callback cb;
  };
  struct RegEntry {
    ib::RegionId id;
    const std::byte* base = nullptr;
    std::size_t len = 0;
  };
  /// Owned (touched) exclusively by its PE's execution context, except in
  /// the ctor and reestablish() (serial phases).
  struct PerPe {
    std::vector<std::byte> segment;
    ib::RegionId segRegion;
    std::unordered_map<OpId, Op> ops;
    std::uint64_t nextOp = 0;
    std::vector<Watcher> watchers;
    std::vector<std::uint64_t> outstandingRemote;  ///< per target
    std::uint64_t outstandingLocal = 0;
    std::unordered_map<const void*, RegEntry> regCache;
    std::vector<ib::QpId> qps;  ///< QPs this PE created (reset sweep)
    Callback barrierCb;
  };

  sim::Engine& engine() { return fabric_.engine(); }
  PerPe& pe(int p);
  const PerPe& pe(int p) const;

  /// Charge `cost` us of PGAS-library software in the calling context.
  void softwareDelay(sim::Time cost, sim::Engine::Action fn);

  OpId newOp(int origin, int target);
  void onLocalComplete(int origin, OpId id);
  void onRemoteComplete(int origin, OpId id);
  void failOp(int origin, OpId id);
  /// reestablish() helper: schedule a backed-off re-drive of an in-flight
  /// op, or fail it when non-idempotent / out of budget.
  void redriveOrFail(int origin, OpId id);
  void maybeReap(PerPe& p, OpId id);
  void satisfyWatchers(PerPe& p, bool local, int target);

  /// Region covering [ptr, ptr+bytes) for a buffer of PE `p`: the segment
  /// region when inside the symmetric heap, else the registration cache
  /// (registering + charging the miss cost on first use). Asynchronous
  /// because a miss costs time.
  void withRegion(int p, const void* ptr, std::size_t bytes,
                  std::function<void(ib::RegionId)> fn);

  void issuePut(int origin, int target, Gptr dst, const void* src,
                std::size_t bytes, OpId id, std::uint64_t traceId,
                Callback onTargetNotify);
  void postPutWrite(int origin, int target, void* remoteAddr, const void* src,
                    std::size_t bytes, ib::RegionId localRegion, OpId id,
                    std::uint64_t traceId, Callback notify, int budget);
  void issueGet(int origin, int target, Gptr src, void* dst,
                std::size_t bytes, OpId id, std::uint64_t traceId);
  void postGetWrite(int origin, int target, const void* srcAddr, void* dst,
                    std::size_t bytes, ib::RegionId dstRegion, OpId id,
                    std::uint64_t traceId, int budget);
  OpId issueAtomic(int origin, int target, Gptr g, bool isCas,
                   std::int64_t a, std::int64_t b, ValueCallback done);
  void barrierArrive();

  ib::IbVerbs& verbs_;
  net::Fabric& fabric_;
  PgasCosts costs_;
  std::size_t segmentBytes_;
  std::size_t allocOffset_ = 0;
  std::vector<PerPe> pes_;
  /// Barrier rendezvous state; touched only in PE 0's context.
  int barrierArrived_ = 0;
  std::uint64_t barrierGen_ = 0;

  std::atomic<std::uint64_t> putBytes_{0};
  std::atomic<std::uint64_t> regMisses_{0};
  std::atomic<std::uint64_t> failedOps_{0};
  std::atomic<std::uint64_t> redriven_{0};
  std::atomic<std::uint64_t> barriers_{0};
};

}  // namespace ckd::pgas
