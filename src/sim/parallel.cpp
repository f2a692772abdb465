#include "sim/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/flight_recorder.hpp"

namespace ckd::sim {

namespace {

constexpr int kSpinsBeforeYield = 1024;
constexpr Time kInf = std::numeric_limits<Time>::infinity();

std::size_t checkedShardCount(const ParallelEngine::Config& cfg) {
  CKD_REQUIRE(cfg.shards >= 1, "shard count must be positive");
  CKD_REQUIRE(cfg.lookahead > 0.0, "conservative lookahead must be positive");
  return static_cast<std::size_t>(cfg.shards);
}

}  // namespace

ParallelEngine::ParallelEngine(Config cfg, std::vector<int> shardOfPe)
    : lookahead_(cfg.lookahead),
      drainStride_(cfg.drainStride == 0 ? 1 : cfg.drainStride),
      shardOfPe_(std::move(shardOfPe)),
      shards_(checkedShardCount(cfg)),
      rings_(shards_.size() * shards_.size()),
      serialRings_(shards_.size()),
      pushSeq_(shardOfPe_.size() + 1, 0),
      mintCounters_(shardOfPe_.size() + 1, 0) {
  for (const int s : shardOfPe_)
    CKD_REQUIRE(s >= 0 && s < cfg.shards, "PE mapped to an out-of-range shard");
  for (auto& sh : shards_) sh.outStage.resize(shards_.size());

  int want = cfg.threads > 0
                 ? cfg.threads
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (want < 1) want = 1;
  threadCount_ = std::min(want, static_cast<int>(shards_.size()));
  workers_.reserve(static_cast<std::size_t>(threadCount_ - 1));
  for (int k = 1; k < threadCount_; ++k)
    workers_.emplace_back([this, k] { workerLoop(k); });
}

ParallelEngine::~ParallelEngine() {
  quit_.store(true, std::memory_order_release);
  startGen_.fetch_add(1, std::memory_order_release);
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

// ---- SpscRing ----

ParallelEngine::SpscRing::~SpscRing() {
  Segment* seg = segHead_.load(std::memory_order_relaxed);
  while (seg != nullptr) {
    Segment* next = seg->next.load(std::memory_order_relaxed);
    delete seg;
    seg = next;
  }
}

void ParallelEngine::SpscRing::spill(RingEntry&& e) {
  if (segTail_ == nullptr) {
    segTail_ = new Segment;
    segFill_ = 0;
    segHead_.store(segTail_, std::memory_order_release);
  } else if (segFill_ == kSegmentCap) {
    publishSpill();  // the full fill must be visible before the link is
    Segment* fresh = new Segment;
    segTail_->next.store(fresh, std::memory_order_release);
    segTail_ = fresh;
    segFill_ = 0;
  }
  segTail_->buf[segFill_++] = std::move(e);
  ++stats_.overflow;
}

void ParallelEngine::SpscRing::publishSpill() {
  if (segTail_ != nullptr)
    segTail_->count.store(segFill_, std::memory_order_release);
}

void ParallelEngine::SpscRing::push(RingEntry&& e) {
  ++stats_.pushes;
  ++stats_.batches;
  const std::size_t h = head_.load(std::memory_order_relaxed);
  if (h - tail_.load(std::memory_order_acquire) < kCapacity) {
    buf_[h & (kCapacity - 1)] = std::move(e);
    head_.store(h + 1, std::memory_order_release);
    return;
  }
  spill(std::move(e));
  publishSpill();
}

void ParallelEngine::SpscRing::pushBatch(RingEntry* first, std::size_t n) {
  if (n == 0) return;
  stats_.pushes += n;
  ++stats_.batches;
  const std::size_t h = head_.load(std::memory_order_relaxed);
  const std::size_t t = tail_.load(std::memory_order_acquire);
  const std::size_t fit = std::min(n, kCapacity - (h - t));
  for (std::size_t i = 0; i < fit; ++i)
    buf_[(h + i) & (kCapacity - 1)] = std::move(first[i]);
  if (fit != 0) head_.store(h + fit, std::memory_order_release);
  if (fit == n) return;
  for (std::size_t i = fit; i < n; ++i) spill(std::move(first[i]));
  publishSpill();
}

void ParallelEngine::SpscRing::drainInto(std::vector<RingEntry>& out) {
  std::size_t t = tail_.load(std::memory_order_relaxed);
  const std::size_t h = head_.load(std::memory_order_acquire);
  for (; t != h; ++t) out.push_back(std::move(buf_[t & (kCapacity - 1)]));
  tail_.store(t, std::memory_order_release);

  Segment* seg = segHead_.load(std::memory_order_acquire);
  while (seg != nullptr) {
    std::size_t published = seg->count.load(std::memory_order_acquire);
    Segment* next = seg->next.load(std::memory_order_acquire);
    // A visible link proves the producer finished this segment: the link
    // store is release-ordered after the full-capacity count store.
    if (next != nullptr) published = kSegmentCap;
    for (; seg->consumed < published; ++seg->consumed)
      out.push_back(std::move(seg->buf[seg->consumed]));
    if (next == nullptr) break;
    segHead_.store(next, std::memory_order_release);
    delete seg;
    seg = next;
  }
}

void ParallelEngine::SpscRing::reclaim() {
  Segment* seg = segHead_.load(std::memory_order_relaxed);
  while (seg != nullptr) {
    CKD_REQUIRE(seg->consumed == seg->count.load(std::memory_order_relaxed),
                "reclaiming a ring segment with unconsumed entries");
    Segment* next = seg->next.load(std::memory_order_relaxed);
    delete seg;
    seg = next;
  }
  segHead_.store(nullptr, std::memory_order_relaxed);
  segTail_ = nullptr;
  segFill_ = 0;
}

// ---- partition growth ----

void ParallelEngine::growPes(const std::vector<int>& shardOfNewPes) {
  CKD_REQUIRE(tlsShard_ < 0,
              "PE growth must run from a serial phase, not a shard window");
  for (const int s : shardOfNewPes)
    CKD_REQUIRE(s >= 0 && s < shards(),
                "new PE mapped to an out-of-range shard");
  shardOfPe_.insert(shardOfPe_.end(), shardOfNewPes.begin(),
                    shardOfNewPes.end());
  // Shards are parked during serial phases, so extending the per-PE tables
  // is race-free; recorders hold the vector's address, which is stable.
  pushSeq_.resize(shardOfPe_.size() + 1, 0);
  mintCounters_.resize(shardOfPe_.size() + 1, 0);
}

void ParallelEngine::stageSerial(int dstShard, Time when,
                                 Engine::Action action) {
  shards_[static_cast<std::size_t>(dstShard)].staged.push_back(
      RingEntry{when, -1, nextSerialPushSeq(), false, std::move(action)});
}

// ---- cross-shard traffic ----

void ParallelEngine::flushStage(int src, int dst) {
  auto& stage = shards_[static_cast<std::size_t>(src)]
                    .outStage[static_cast<std::size_t>(dst)];
  if (stage.empty()) return;
  rings_[ringIndex(src, dst)].pushBatch(stage.data(), stage.size());
  stage.clear();
}

void ParallelEngine::flushOutbound(int shard) {
  const int n = shards();
  for (int dst = 0; dst < n; ++dst)
    if (dst != shard) flushStage(shard, dst);
}

void ParallelEngine::drainInbound(int shard) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  auto& scratch = sh.drainScratch;
  scratch.clear();
  const int n = shards();
  for (int s = 0; s < n; ++s)
    if (s != shard) rings_[ringIndex(s, shard)].drainInto(scratch);
  for (auto& e : scratch) {
    CKD_REQUIRE(e.when >= windowCeiling_,
                "cross-shard event violates the conservative lookahead");
    sh.engine.postArrival(e.when, e.srcPe, e.srcSeq, std::move(e.action));
  }
}

namespace {
/// The canonical cross-shard order: (when, srcPe, srcSeq). srcSeq is unique
/// per source, so this is a total order — and every component is a function
/// of per-PE execution histories, never of the shard partition.
bool canonicalBefore(Time aWhen, std::int32_t aPe, std::uint64_t aSeq,
                     Time bWhen, std::int32_t bPe, std::uint64_t bSeq) {
  if (aWhen != bWhen) return aWhen < bWhen;
  if (aPe != bPe) return aPe < bPe;
  return aSeq < bSeq;
}
}  // namespace

void ParallelEngine::reconcile() {
  const int n = shards();
  // Straggler cross-shard arrivals (published after the destination's final
  // mid-window drain) plus the coordinator's serial-phase staging, moved
  // into the destination inboxes. No sort: the inbox heap canonicalizes on
  // (when, srcPe, srcSeq) and admission is just-in-time.
  for (int d = 0; d < n; ++d) {
    auto& scratch = drainScratch_;
    scratch.clear();
    for (int s = 0; s < n; ++s)
      if (s != d) rings_[ringIndex(s, d)].drainInto(scratch);
    auto& staged = shards_[static_cast<std::size_t>(d)].staged;
    for (auto& e : staged) scratch.push_back(std::move(e));
    staged.clear();
    if (scratch.empty()) continue;
    Engine& eng = shards_[static_cast<std::size_t>(d)].engine;
    for (auto& e : scratch) {
      CKD_REQUIRE(e.when >= windowCeiling_,
                  "cross-shard event violates the conservative lookahead");
      eng.postArrival(e.when, e.srcPe, e.srcSeq, std::move(e.action));
    }
  }
  // Shard-issued serial events. Boundary events resolve to the ceiling of
  // the window that produced them (partition-independent by construction).
  auto& scratch = drainScratch_;
  scratch.clear();
  for (int s = 0; s < n; ++s)
    serialRings_[static_cast<std::size_t>(s)].drainInto(scratch);
  if (scratch.empty()) return;
  for (auto& e : scratch)
    if (e.boundary) e.when = windowCeiling_;
  std::sort(scratch.begin(), scratch.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return canonicalBefore(a.when, a.srcPe, a.srcSeq, b.when, b.srcPe,
                                     b.srcSeq);
            });
  for (auto& e : scratch) {
    CKD_REQUIRE(e.when >= windowCeiling_,
                "serial event scheduled below the window ceiling");
    serial_.at(e.when, std::move(e.action));
  }
}

// ---- round loop ----

Time ParallelEngine::minShardNext() const {
  Time m = kInf;
  for (const auto& sh : shards_) m = std::min(m, sh.engine.nextEventTime());
  return m;
}

void ParallelEngine::runShardWindow(int shard) {
  tlsShard_ = shard;
  tlsSerialSrcPe_ = -1;
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  util::BufferPool* prevPool = util::BufferPool::swapCurrent(&sh.pool);
  // Chunked window: every drainStride_ events, publish pending outbound
  // batches (so consumers can pre-stage them) and pull inbound rings into
  // the inbox. Conservatism guarantees drained entries are at or beyond
  // the window ceiling, so mid-window drains never add work to the
  // running window — they only keep rings shallow and move the merge off
  // the barrier.
  while (sh.engine.runWindow(windowCeiling_, drainStride_)) {
    flushOutbound(shard);
    drainInbound(shard);
  }
  flushOutbound(shard);
  drainInbound(shard);
  util::BufferPool::swapCurrent(prevPool);
  tlsShard_ = -1;
  tlsSerialSrcPe_ = -1;
}

void ParallelEngine::executeRound() {
  if (threadCount_ <= 1) {
    // One host core: run each shard's window inline, in shard order. Same
    // partition, same rings, same canonical merges — bit-identical results,
    // zero synchronization.
    for (int i = 0; i < shards(); ++i)
      runShardWindow(i);
    return;
  }
  doneCount_.store(0, std::memory_order_relaxed);
  startGen_.fetch_add(1, std::memory_order_release);
  // The coordinator doubles as worker 0.
  for (int i = 0; i < shards(); i += threadCount_)
    runShardWindow(i);
  const int expect = threadCount_ - 1;
  for (int spins = 0;
       doneCount_.load(std::memory_order_acquire) != expect;) {
    if (++spins >= kSpinsBeforeYield) {
      spins = 0;
      std::this_thread::yield();
    }
  }
}

void ParallelEngine::workerLoop(int workerIndex) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen;
    for (int spins = 0;
         (gen = startGen_.load(std::memory_order_acquire)) == seen;) {
      if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        std::this_thread::yield();
      }
    }
    seen = gen;
    if (quit_.load(std::memory_order_acquire)) return;
    for (int i = workerIndex; i < shards(); i += threadCount_)
      runShardWindow(i);
    doneCount_.fetch_add(1, std::memory_order_release);
  }
}

void ParallelEngine::run() {
  for (;;) {
    if (stopRequested_.exchange(false, std::memory_order_relaxed)) break;
    reconcile();
    const Time m = minShardNext();
    const Time s = serial_.nextEventTime();
    if (m == kInf && s == kInf) {
      // Quiescent: every heap, inbox, ring, and staging buffer is empty.
      // Align all clocks on the horizon so host code between runs
      // (mainchare-style setup for the next phase) sees one consistent
      // "now" and may seed fresh work there without tripping the
      // monotonicity checks.
      const Time h = horizon();
      for (auto& sh : shards_) sh.engine.pinNow(h);
      serial_.pinNow(h);
      windowCeiling_ = h;
      for (auto& r : rings_) r.reclaim();
      for (auto& r : serialRings_) r.reclaim();
      break;
    }
    if (s <= m) {
      // Serial phase: everything pending sits at or beyond s, so pin every
      // shard clock to s and run the serial events at that instant (they
      // may cascade at the same time; runWindow picks those up too).
      for (auto& sh : shards_) sh.engine.pinNow(s);
      serial_.runWindow(std::nextafter(s, kInf));
      maybeSample(s);
      continue;
    }
    ++windows_;
    windowCeiling_ = std::min(m + lookahead_, s);
    executeRound();
    maybeSample(windowCeiling_);
  }
}

void ParallelEngine::maybeSample(Time t) {
  // Runs on the coordinator with every shard parked, so probe closures may
  // read shard engines race-free. Sampling is read-only — it never schedules
  // events or touches shard state — so metrics-on runs stay bit-identical.
  if (sampler_ != nullptr && t >= sampler_->dueAt()) sampler_->sample(t);
}

// ---- aggregates ----

std::uint64_t ParallelEngine::executedEvents() const {
  std::uint64_t total = serial_.executedEvents();
  for (const auto& sh : shards_) total += sh.engine.executedEvents();
  return total;
}

Time ParallelEngine::horizon() const {
  Time h = serial_.now();
  for (const auto& sh : shards_) h = std::max(h, sh.engine.now());
  return h;
}

ParallelEngine::RingStats ParallelEngine::ringStats() const {
  RingStats total;
  const auto fold = [&total](const SpscRing& r) {
    const SpscRing::Stats& s = r.stats();
    total.pushes += s.pushes;
    total.batches += s.batches;
    total.overflow += s.overflow;
  };
  for (const auto& r : rings_) fold(r);
  for (const auto& r : serialRings_) fold(r);
  return total;
}

std::vector<TraceEvent> ParallelEngine::mergedTrace() const {
  std::vector<TraceEvent> merged = serial_.trace().snapshot();
  for (const auto& sh : shards_) {
    auto part = sh.engine.trace().snapshot();
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  // A (time, pe) tie can only pair events from one stream with events from
  // the serial stream; the concatenation order (serial first, shards in
  // shard order) plus stability makes the merge partition-independent.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.pe < b.pe;
                   });
  return merged;
}

}  // namespace ckd::sim
