#pragma once
// Deterministic discrete-event engine.
//
// Events scheduled for the same instant execute in scheduling order (a
// monotone sequence number breaks ties), which makes every simulation run
// bit-reproducible. The engine is strictly single-threaded; all simulated
// concurrency (processors, NICs, links) is expressed as events.
//
// Hot-path layout: the priority heap holds 24-byte POD entries (when, seq,
// slot); the closures themselves live in a slab of InplaceAction slots
// recycled through a free list. Heap sifts therefore move trivially-copyable
// structs, actions are move-constructed exactly once on entry and once on
// dispatch, and the common capture sizes never touch the allocator.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "util/inplace_fn.hpp"
#include "util/require.hpp"

namespace ckd::obs {
class FlightRecorder;
}

namespace ckd::sim {

/// Engine event closure. The capacity covers the deepest composite the
/// runtime builds (the fabric's 144-byte delivery stamp holding a
/// fault::WireSender::DeliverFn; net::Fabric static_asserts that it fits);
/// larger captures fall back to the heap.
using InplaceAction = util::InplaceFunction<void(), 152>;

class Engine {
 public:
  using Action = InplaceAction;

  Engine() {
    // Pre-size the slab so steady-state scheduling never grows a vector.
    heap_.reserve(kInitialSlots);
    slots_.reserve(kInitialSlots);
    freeSlots_.reserve(kInitialSlots);
  }

  /// Current virtual time. While an event runs, now() is that event's time.
  Time now() const { return now_; }

  /// Schedule a callable at absolute time `when` (must be >= now()). The
  /// callable is forwarded into its slab slot and constructed there exactly
  /// once (InplaceFunction's converting assignment), so scheduling a lambda
  /// never pays an intermediate wrapper move.
  template <class F, class = std::enable_if_t<
                         std::is_invocable_v<std::decay_t<F>&>>>
  void at(Time when, F&& f) {
    CKD_REQUIRE(when >= now_, "cannot schedule an event in the past");
    if constexpr (std::is_same_v<std::decay_t<F>, Action>)
      CKD_REQUIRE(f != nullptr, "cannot schedule a null action");
    const std::uint32_t slot = acquireSlot(std::forward<F>(f));
    heap_.push_back(HeapEntry{when, nextSeq_++, slot});
    siftUp(heap_.size() - 1);
  }

  /// Raw-thunk overload: schedule `fn(ctx)` without constructing a closure.
  /// The per-PE schedulers re-arm their pump through this (one statically
  /// bound member thunk instead of a fresh lambda per pump).
  void at(Time when, void (*fn)(void*), void* ctx) {
    CKD_REQUIRE(fn != nullptr, "cannot schedule a null thunk");
    at(when, Thunk{fn, ctx});
  }

  /// Schedule a callable `delay` microseconds from now (delay >= 0).
  template <class F, class = std::enable_if_t<
                         std::is_invocable_v<std::decay_t<F>&>>>
  void after(Time delay, F&& f) {
    CKD_REQUIRE(delay >= 0.0, "event delay must be non-negative");
    at(now_ + delay, std::forward<F>(f));
  }
  void after(Time delay, void (*fn)(void*), void* ctx) {
    CKD_REQUIRE(delay >= 0.0, "event delay must be non-negative");
    at(now_ + delay, fn, ctx);
  }

  /// Stage a cross-shard arrival carrying its canonical wire identity
  /// `(when, srcPe, srcSeq)`. Arrivals wait in a side heap ordered by that
  /// identity and are admitted into the main heap just in time: an arrival
  /// at time t receives its local tie-break sequence only once every event
  /// strictly before t has executed and before any event at t runs. The
  /// admission point is therefore a pure virtual-time property — it does not
  /// depend on which window, drain, or shard count delivered the arrival —
  /// which is what keeps parallel runs bit-identical across partitions even
  /// when window boundaries differ per destination.
  template <class F, class = std::enable_if_t<
                         std::is_invocable_v<std::decay_t<F>&>>>
  void postArrival(Time when, std::int32_t srcPe, std::uint64_t srcSeq,
                   F&& f) {
    CKD_REQUIRE(when >= now_, "cannot post an arrival in the past");
    const std::uint32_t slot = acquireSlot(std::forward<F>(f));
    inbox_.push_back(InboxEntry{when, srcSeq, srcPe, slot});
    std::push_heap(inbox_.begin(), inbox_.end(), arrivalAfter);
  }

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run events with time <= `deadline`; afterwards now() == deadline if the
  /// loop drained past the deadline (stop() leaves now() at the last event).
  void runUntil(Time deadline);

  /// Execute events with time strictly below `ceiling`, ignoring stop().
  /// This is the shard-local inner loop of sim::ParallelEngine's
  /// conservative window: the ceiling is a time no other shard can affect,
  /// so everything below it is safe to run without synchronization. Staged
  /// arrivals below the ceiling are admitted just in time (see
  /// postArrival). At most `maxSteps` events run per call so the caller can
  /// interleave inbound-ring drains mid-window; returns true when events
  /// below the ceiling remain (i.e. the window is unfinished).
  bool runWindow(Time ceiling,
                 std::uint64_t maxSteps =
                     std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t steps = 0;
    for (;;) {
      admitArrivals(ceiling);
      if (heap_.empty() || heap_.front().when >= ceiling) return false;
      if (steps >= maxSteps) return true;
      step();
      ++steps;
    }
  }

  /// Timestamp of the earliest pending event (heap or staged arrival), or
  /// +inf when idle. ParallelEngine derives window ceilings from these.
  Time nextEventTime() const {
    Time t = heap_.empty() ? std::numeric_limits<Time>::infinity()
                           : heap_.front().when;
    if (!inbox_.empty() && inbox_.front().when < t) t = inbox_.front().when;
    return t;
  }

  /// Advance the clock to `t` without executing anything (t >= now()).
  /// ParallelEngine pins every shard to the serial timestamp before running
  /// a global (serial-phase) event, so code observing now() on any shard
  /// sees a consistent instant.
  void pinNow(Time t) {
    CKD_REQUIRE(t >= now_, "cannot pin the clock backwards");
    now_ = t;
  }

  bool empty() const { return heap_.empty() && inbox_.empty(); }
  std::size_t pendingEvents() const { return heap_.size() + inbox_.size(); }
  std::uint64_t executedEvents() const { return executed_; }

  /// Events executed by every engine in this process — the numerator of the
  /// events/sec number harness::BenchRunner reports. Relaxed atomic: with
  /// one engine per shard thread the plain counter was a data race (and
  /// dropped increments, under-counting the events/sec numerator).
  static std::uint64_t processExecutedEvents() {
    return processExecuted_.load(std::memory_order_relaxed);
  }

  /// Abort the current run() / runUntil() loop after the current event.
  void stop() { stopRequested_ = true; }

  /// The trace/metrics recorder shared by every layer driven by this engine.
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// Streaming SLO histograms fed by the layers driven by this engine
  /// (single-writer, like trace()). Disarmed by default: every feed point
  /// pays one predictable branch, and arming never perturbs event order.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attach (or detach, with nullptr) a flight recorder sampled inline on
  /// the dispatch path: the first event at or past recorder->dueAt()
  /// triggers a read-only sample before it runs. Sampling never schedules
  /// events, so the event sequence is bit-identical with or without it.
  /// The sharded parallel engine does NOT use this hook — it samples from
  /// the coordinator between windows (see ParallelEngine::attachSampler).
  void attachSampler(obs::FlightRecorder* recorder);

 private:
  static constexpr std::size_t kInitialSlots = 256;

  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Staged cross-shard arrival awaiting just-in-time admission. Ordered by
  /// the canonical wire identity (when, srcPe, srcSeq) so same-instant
  /// arrivals from different sources always admit in the same order no
  /// matter which drain delivered them.
  struct InboxEntry {
    Time when;
    std::uint64_t srcSeq;
    std::int32_t srcPe;
    std::uint32_t slot;
  };
  struct Thunk {
    void (*fn)(void*);
    void* ctx;
    void operator()() const { fn(ctx); }
  };

  /// "a fires later than b": earliest event wins the heap root.
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  /// "a admits after b": canonical (when, srcPe, srcSeq) order for the
  /// arrival side heap (std::push_heap keeps the *smallest* at front under
  /// this comparator).
  static bool arrivalAfter(const InboxEntry& a, const InboxEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    if (a.srcPe != b.srcPe) return a.srcPe > b.srcPe;
    return a.srcSeq > b.srcSeq;
  }

  /// Move every staged arrival whose time is below `ceiling` and no later
  /// than the earliest heap event into the main heap, minting its local seq
  /// at that instant. Ties admit before the same-time heap event steps.
  void admitArrivals(Time ceiling) {
    while (!inbox_.empty()) {
      const InboxEntry& top = inbox_.front();
      if (top.when >= ceiling) break;
      if (!heap_.empty() && heap_.front().when < top.when) break;
      std::pop_heap(inbox_.begin(), inbox_.end(), arrivalAfter);
      const InboxEntry e = inbox_.back();
      inbox_.pop_back();
      heap_.push_back(HeapEntry{e.when, nextSeq_++, e.slot});
      siftUp(heap_.size() - 1);
    }
  }

  template <class F>
  std::uint32_t acquireSlot(F&& f) {
    if (!freeSlots_.empty()) {
      const std::uint32_t slot = freeSlots_.back();
      freeSlots_.pop_back();
      slots_[slot] = std::forward<F>(f);
      return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back(std::forward<F>(f));
    return slot;
  }

  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  /// Out-of-line sample slow path of the dispatch-time `now_ >= sampleNext_`
  /// check; refreshes sampleNext_ from the recorder.
  void runSampler();

  std::vector<HeapEntry> heap_;
  std::vector<InboxEntry> inbox_;
  std::vector<Action> slots_;
  std::vector<std::uint32_t> freeSlots_;
  Time now_ = kTimeZero;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopRequested_ = false;
  TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder* sampler_ = nullptr;
  Time sampleNext_ = std::numeric_limits<Time>::infinity();

  inline static std::atomic<std::uint64_t> processExecuted_{0};
};

}  // namespace ckd::sim
