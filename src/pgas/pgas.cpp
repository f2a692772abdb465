#include "pgas/pgas.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/require.hpp"

namespace ckd::pgas {

namespace {

int originOf(OpId id) { return static_cast<int>(id >> 44) - 1; }

}  // namespace

PgasCosts dartIbCosts() { return PgasCosts{}; }

Pgas::Pgas(ib::IbVerbs& verbs, PgasCosts costs, std::size_t segmentBytes)
    : verbs_(verbs),
      fabric_(verbs.fabric()),
      costs_(std::move(costs)),
      segmentBytes_(segmentBytes) {
  CKD_REQUIRE(segmentBytes_ > 0, "PGAS segment must be non-empty");
  const int n = numPes();
  pes_.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    PerPe& s = pes_[static_cast<std::size_t>(p)];
    s.segment.assign(segmentBytes_, std::byte{0});
    s.segRegion = verbs_.registerMemory(p, s.segment.data(), segmentBytes_);
    s.outstandingRemote.assign(static_cast<std::size_t>(n), 0);
  }
}

Pgas::~Pgas() {
  for (PerPe& s : pes_) {
    if (verbs_.regionValid(s.segRegion)) verbs_.deregisterMemory(s.segRegion);
    for (auto& [ptr, entry] : s.regCache)
      if (verbs_.regionValid(entry.id)) verbs_.deregisterMemory(entry.id);
  }
}

Pgas::PerPe& Pgas::pe(int p) {
  CKD_REQUIRE(p >= 0 && p < numPes(), "PE out of range");
  return pes_[static_cast<std::size_t>(p)];
}

const Pgas::PerPe& Pgas::pe(int p) const {
  CKD_REQUIRE(p >= 0 && p < numPes(), "PE out of range");
  return pes_[static_cast<std::size_t>(p)];
}

void Pgas::softwareDelay(sim::Time cost, sim::Engine::Action fn) {
  sim::Engine& eng = engine();
  eng.trace().addLayerTime(sim::Layer::kTransport, cost);
  eng.after(cost, std::move(fn));
}

// --- symmetric heap -----------------------------------------------------------

Gptr Pgas::alloc(std::size_t bytes, std::size_t align) {
  CKD_REQUIRE(bytes > 0, "zero-byte PGAS allocation");
  CKD_REQUIRE(align > 0 && (align & (align - 1)) == 0,
              "alignment must be a power of two");
  const std::size_t offset = (allocOffset_ + align - 1) & ~(align - 1);
  CKD_REQUIRE(offset + bytes <= segmentBytes_, "PGAS segment exhausted");
  allocOffset_ = offset + bytes;
  return Gptr{offset, bytes};
}

void* Pgas::addr(int p, Gptr g) {
  CKD_REQUIRE(g.valid() && g.offset + g.bytes <= segmentBytes_,
              "global pointer outside the symmetric heap");
  return pe(p).segment.data() + g.offset;
}

const void* Pgas::addr(int p, Gptr g) const {
  CKD_REQUIRE(g.valid() && g.offset + g.bytes <= segmentBytes_,
              "global pointer outside the symmetric heap");
  return pe(p).segment.data() + g.offset;
}

// --- op bookkeeping -----------------------------------------------------------

OpId Pgas::newOp(int origin, int target) {
  PerPe& p = pe(origin);
  const OpId id =
      (static_cast<std::uint64_t>(origin + 1) << 44) | ++p.nextOp;
  Op op;
  op.target = target;
  // Same instant as the op's kPgasPut/Get/Atomic begin span (every caller
  // records it just before newOp), so the streaming request histogram and
  // the post-hoc causal chain measure the same interval.
  op.issuedAt = engine().now();
  p.ops.emplace(id, std::move(op));
  ++p.outstandingLocal;
  ++p.outstandingRemote[static_cast<std::size_t>(target)];
  return id;
}

void Pgas::maybeReap(PerPe& p, OpId id) {
  auto it = p.ops.find(id);
  if (it == p.ops.end()) return;
  const Op& op = it->second;
  if (op.localDone && op.remoteDone && !op.localWaiter && !op.remoteWaiter)
    p.ops.erase(it);
}

void Pgas::satisfyWatchers(PerPe& p, bool local, int target) {
  std::vector<Callback> fired;
  for (Watcher& w : p.watchers) {
    if (w.local != local || w.remaining == 0) continue;
    if (!w.local && w.target != -1 && w.target != target) continue;
    if (--w.remaining == 0) fired.push_back(std::move(w.cb));
  }
  if (fired.empty()) return;
  std::erase_if(p.watchers,
                [](const Watcher& w) { return w.remaining == 0; });
  for (Callback& cb : fired)
    if (cb) cb();
}

void Pgas::onLocalComplete(int origin, OpId id) {
  PerPe& p = pe(origin);
  auto it = p.ops.find(id);
  if (it == p.ops.end() || it->second.localDone) return;
  it->second.localDone = true;
  --p.outstandingLocal;
  Callback waiter = std::move(it->second.localWaiter);
  it->second.localWaiter = nullptr;
  satisfyWatchers(p, /*local=*/true, it->second.target);
  if (waiter) waiter();
  maybeReap(p, id);
}

void Pgas::onRemoteComplete(int origin, OpId id) {
  PerPe& p = pe(origin);
  auto it = p.ops.find(id);
  if (it == p.ops.end() || it->second.remoteDone) return;
  it->second.remoteDone = true;
  // Streaming request latency: issue -> remote completion. Failed ops never
  // remotely complete through here without a redrive, and the redrive keeps
  // issuedAt — one logical op, N attempts.
  if (!it->second.failed && it->second.issuedAt >= 0.0)
    engine().metrics().record(obs::Slo::kRequest,
                              engine().now() - it->second.issuedAt);
  const int target = it->second.target;
  --p.outstandingRemote[static_cast<std::size_t>(target)];
  Callback waiter = std::move(it->second.remoteWaiter);
  it->second.remoteWaiter = nullptr;
  satisfyWatchers(p, /*local=*/false, target);
  if (waiter) waiter();
  maybeReap(p, id);
}

void Pgas::failOp(int origin, OpId id) {
  PerPe& p = pe(origin);
  auto it = p.ops.find(id);
  if (it == p.ops.end()) return;
  failedOps_.fetch_add(1, std::memory_order_relaxed);
  it->second.failed = true;
  onLocalComplete(origin, id);
  onRemoteComplete(origin, id);
}

// --- registration cache -------------------------------------------------------

void Pgas::withRegion(int p, const void* ptr, std::size_t bytes,
                      std::function<void(ib::RegionId)> fn) {
  PerPe& s = pe(p);
  const auto* b = static_cast<const std::byte*>(ptr);
  // Inside the symmetric heap: covered by the segment registration.
  if (b >= s.segment.data() && b + bytes <= s.segment.data() + segmentBytes_) {
    fn(s.segRegion);
    return;
  }
  auto it = s.regCache.find(ptr);
  if (it != s.regCache.end()) {
    const RegEntry& e = it->second;
    if (verbs_.regionValid(e.id) && b >= e.base && b + bytes <= e.base + e.len) {
      fn(e.id);
      return;
    }
    s.regCache.erase(it);
  }
  // Miss: pin the buffer (charged once; later ops on the same buffer hit).
  regMisses_.fetch_add(1, std::memory_order_relaxed);
  const sim::Time cost =
      costs_.reg_miss_us +
      costs_.reg_miss_per_byte_us * static_cast<double>(bytes);
  softwareDelay(cost, [this, p, ptr, bytes, fn = std::move(fn)]() mutable {
    const ib::RegionId id =
        verbs_.registerMemory(p, const_cast<void*>(ptr), bytes);
    RegEntry e;
    e.id = id;
    e.base = static_cast<const std::byte*>(ptr);
    e.len = bytes;
    pe(p).regCache.emplace(ptr, e);
    fn(id);
  });
}

// --- put ----------------------------------------------------------------------

OpId Pgas::put(int origin, int target, Gptr dst, const void* src,
               std::size_t bytes) {
  CKD_REQUIRE(src != nullptr && bytes > 0, "bad put source");
  CKD_REQUIRE(dst.valid() && bytes <= dst.bytes &&
                  dst.offset + bytes <= segmentBytes_,
              "put writes past the target allocation");
  pe(target);  // range-check
  sim::Engine& eng = engine();
  const std::uint64_t traceId = eng.trace().mintIdFor(origin);
  eng.trace().recordSpan(eng.now(), origin, sim::TraceTag::kPgasPut,
                         sim::SpanPhase::kBegin, traceId,
                         eng.trace().context(),
                         static_cast<double>(bytes), target);
  putBytes_.fetch_add(bytes, std::memory_order_relaxed);
  const OpId id = newOp(origin, target);
  softwareDelay(costs_.put_origin_us,
                [this, origin, target, dst, src, bytes, id, traceId]() {
                  issuePut(origin, target, dst, src, bytes, id, traceId, {});
                });
  return id;
}

void Pgas::putBlocking(int origin, int target, Gptr dst, const void* src,
                       std::size_t bytes, Callback done) {
  const OpId id = put(origin, target, dst, src, bytes);
  waitRemote(id, std::move(done));
}

OpId Pgas::putSignal(int origin, int target, Gptr dst, const void* src,
                     std::size_t bytes, Callback onTargetNotify) {
  CKD_REQUIRE(onTargetNotify, "putSignal needs a target notification");
  CKD_REQUIRE(src != nullptr && bytes > 0, "bad put source");
  CKD_REQUIRE(dst.valid() && bytes <= dst.bytes &&
                  dst.offset + bytes <= segmentBytes_,
              "put writes past the target allocation");
  pe(target);
  sim::Engine& eng = engine();
  const std::uint64_t traceId = eng.trace().mintIdFor(origin);
  eng.trace().recordSpan(eng.now(), origin, sim::TraceTag::kPgasPut,
                         sim::SpanPhase::kBegin, traceId,
                         eng.trace().context(),
                         static_cast<double>(bytes), target);
  putBytes_.fetch_add(bytes, std::memory_order_relaxed);
  const OpId id = newOp(origin, target);
  softwareDelay(costs_.put_origin_us,
                [this, origin, target, dst, src, bytes, id, traceId,
                 notify = std::move(onTargetNotify)]() mutable {
                  issuePut(origin, target, dst, src, bytes, id, traceId,
                           std::move(notify));
                });
  return id;
}

void Pgas::issuePut(int origin, int target, Gptr dst, const void* src,
                    std::size_t bytes, OpId id, std::uint64_t traceId,
                    Callback onTargetNotify) {
  // A put is idempotent (re-landing the same bytes is harmless), so
  // reestablish() may re-issue it wholesale after a transient disruption.
  // The re-drive drops the signal callback, like the QP-error retry path.
  if (auto it = pe(origin).ops.find(id); it != pe(origin).ops.end())
    it->second.redrive = [this, origin, target, dst, src, bytes, id,
                          traceId]() {
      issuePut(origin, target, dst, src, bytes, id, traceId, {});
    };
  void* remoteAddr = addr(target, dst);
  if (target == origin) {
    // Self-put: a process-local copy through the fabric's self class. No
    // registration, no QP — like a real PGAS runtime short-circuiting to
    // memcpy.
    fabric_.submit(
        origin, origin, bytes, net::XferKind::kRdma,
        [this, origin, remoteAddr, src, bytes, id, traceId,
         notify = std::move(onTargetNotify)]() mutable {
          std::memcpy(remoteAddr, src, bytes);
          const bool signal = static_cast<bool>(notify);
          const sim::Time cost =
              signal ? costs_.signal_poll_us : costs_.completion_us;
          softwareDelay(cost, [this, origin, bytes, id, traceId,
                               notify = std::move(notify)]() {
            sim::Engine& eng = engine();
            eng.trace().recordSpan(eng.now(), origin,
                                   sim::TraceTag::kPgasComplete,
                                   sim::SpanPhase::kEnd, traceId, 0,
                                   static_cast<double>(bytes), origin);
            if (notify) notify();
            onLocalComplete(origin, id);
            onRemoteComplete(origin, id);
          });
        },
        traceId);
    return;
  }
  withRegion(origin, src, bytes,
             [this, origin, target, remoteAddr, src, bytes, id, traceId,
              notify = std::move(onTargetNotify)](ib::RegionId lr) mutable {
               postPutWrite(origin, target, remoteAddr, src, bytes, lr, id,
                            traceId, std::move(notify), costs_.retry_budget);
             });
}

void Pgas::postPutWrite(int origin, int target, void* remoteAddr,
                        const void* src, std::size_t bytes,
                        ib::RegionId localRegion, OpId id,
                        std::uint64_t traceId, Callback notify, int budget) {
  const ib::QpId qp = verbs_.connect(origin, target);
  PerPe& p = pe(origin);
  if (std::find(p.qps.begin(), p.qps.end(), qp) == p.qps.end())
    p.qps.push_back(qp);

  ib::IbVerbs::RdmaWrite w;
  w.qp = qp;
  w.local_addr = src;
  w.local_region = localRegion;
  w.remote_addr = remoteAddr;
  w.remote_region = pes_[static_cast<std::size_t>(target)].segRegion;
  w.bytes = bytes;
  w.trace_id = traceId;
  w.on_local_complete = [this, origin, id]() { onLocalComplete(origin, id); };
  const bool signal = static_cast<bool>(notify);
  w.on_remote_delivered = [this, origin, target, bytes, id, traceId, signal,
                           notify = std::move(notify)]() {
    // Target context: the payload is in the target's segment.
    if (signal) {
      softwareDelay(costs_.signal_poll_us,
                    [this, origin, target, bytes, traceId, notify]() {
                      sim::Engine& eng = engine();
                      eng.trace().recordSpan(eng.now(), target,
                                             sim::TraceTag::kPgasComplete,
                                             sim::SpanPhase::kEnd, traceId, 0,
                                             static_cast<double>(bytes),
                                             origin);
                      notify();
                    });
    }
    // Remote-completion ack back to the origin (DART's dart_flush level).
    // Untraced submit: the chain's wire segment stays the data flight.
    fabric_.submit(
        target, origin, costs_.control_bytes, net::XferKind::kControl,
        [this, origin, bytes, id, traceId, signal]() {
          softwareDelay(costs_.completion_us,
                        [this, origin, bytes, id, traceId, signal]() {
                          if (!signal) {
                            sim::Engine& eng = engine();
                            eng.trace().recordSpan(
                                eng.now(), origin,
                                sim::TraceTag::kPgasComplete,
                                sim::SpanPhase::kEnd, traceId, 0,
                                static_cast<double>(bytes), origin);
                          }
                          onRemoteComplete(origin, id);
                        });
        });
  };
  if (fabric_.faults() != nullptr) {
    w.on_error = [this, origin, target, remoteAddr, src, bytes, localRegion,
                  id, traceId, budget](fault::WcStatus) {
      // Sender (origin) context. Transparent re-post, like the CkDirect
      // manager; the retransmitted attempt keeps the chain id.
      if (budget > 0) {
        verbs_.resetQp(verbs_.connect(origin, target));
        postPutWrite(origin, target, remoteAddr, src, bytes, localRegion, id,
                     traceId, {}, budget - 1);
      } else {
        failOp(origin, id);
      }
    };
  }
  verbs_.postRdmaWrite(std::move(w));
}

// --- get ----------------------------------------------------------------------

OpId Pgas::get(int origin, int target, Gptr src, void* dst, std::size_t bytes,
               Callback done) {
  CKD_REQUIRE(dst != nullptr && bytes > 0, "bad get destination");
  CKD_REQUIRE(src.valid() && bytes <= src.bytes &&
                  src.offset + bytes <= segmentBytes_,
              "get reads past the target allocation");
  pe(target);
  sim::Engine& eng = engine();
  const std::uint64_t traceId = eng.trace().mintIdFor(origin);
  eng.trace().recordSpan(eng.now(), origin, sim::TraceTag::kPgasGet,
                         sim::SpanPhase::kBegin, traceId,
                         eng.trace().context(),
                         static_cast<double>(bytes), target);
  const OpId id = newOp(origin, target);
  if (done) pe(origin).ops[id].remoteWaiter = std::move(done);

  softwareDelay(costs_.get_origin_us,
                [this, origin, target, src, dst, bytes, id, traceId]() {
                  issueGet(origin, target, src, dst, bytes, id, traceId);
                });
  return id;
}

void Pgas::issueGet(int origin, int target, Gptr src, void* dst,
                    std::size_t bytes, OpId id, std::uint64_t traceId) {
  // Like a put, a get re-reads the same cell — idempotent, so re-drivable.
  if (auto it = pe(origin).ops.find(id); it != pe(origin).ops.end())
    it->second.redrive = [this, origin, target, src, dst, bytes, id,
                          traceId]() {
      issueGet(origin, target, src, dst, bytes, id, traceId);
    };
  const void* srcAddr = addr(target, src);
  if (target == origin) {
    fabric_.submit(
        origin, origin, bytes, net::XferKind::kRdma,
        [this, origin, srcAddr, dst, bytes, id, traceId]() {
          std::memcpy(dst, srcAddr, bytes);
          softwareDelay(costs_.completion_us,
                        [this, origin, bytes, id, traceId]() {
                          sim::Engine& eng = engine();
                          eng.trace().recordSpan(
                              eng.now(), origin,
                              sim::TraceTag::kPgasComplete,
                              sim::SpanPhase::kEnd, traceId, 0,
                              static_cast<double>(bytes), origin);
                          onLocalComplete(origin, id);
                          onRemoteComplete(origin, id);
                        });
        },
        traceId);
    return;
  }
  // Pin the landing buffer *before* the request leaves (the origin knows
  // its own buffer; the target must not block on the origin's pinning).
  withRegion(origin, dst, bytes, [this, origin, target, srcAddr, dst, bytes,
                                  id, traceId](ib::RegionId dr) {
    fabric_.submit(
        origin, target, costs_.control_bytes, net::XferKind::kControl,
        [this, origin, target, srcAddr, dst, bytes, id, traceId, dr]() {
          // Target context: service the request.
          softwareDelay(costs_.get_target_us,
                        [this, origin, target, srcAddr, dst, bytes, id,
                         traceId, dr]() {
                          postGetWrite(origin, target, srcAddr, dst, bytes,
                                       dr, id, traceId,
                                       costs_.retry_budget);
                        });
        },
        traceId);
  });
}

void Pgas::postGetWrite(int origin, int target, const void* srcAddr,
                        void* dst, std::size_t bytes, ib::RegionId dstRegion,
                        OpId id, std::uint64_t traceId, int budget) {
  // Target context: RDMA-write the data back into the origin's buffer.
  const ib::QpId qp = verbs_.connect(target, origin);
  PerPe& t = pe(target);
  if (std::find(t.qps.begin(), t.qps.end(), qp) == t.qps.end())
    t.qps.push_back(qp);

  ib::IbVerbs::RdmaWrite w;
  w.qp = qp;
  w.local_addr = srcAddr;
  w.local_region = t.segRegion;
  w.remote_addr = dst;
  w.remote_region = dstRegion;
  w.bytes = bytes;
  w.trace_id = traceId;
  w.on_remote_delivered = [this, origin, bytes, id, traceId]() {
    // Origin context: the data landed locally — both completion levels.
    softwareDelay(costs_.completion_us, [this, origin, bytes, id, traceId]() {
      sim::Engine& eng = engine();
      eng.trace().recordSpan(eng.now(), origin, sim::TraceTag::kPgasComplete,
                             sim::SpanPhase::kEnd, traceId, 0,
                             static_cast<double>(bytes), origin);
      onLocalComplete(origin, id);
      onRemoteComplete(origin, id);
    });
  };
  if (fabric_.faults() != nullptr) {
    w.on_error = [this, origin, target, srcAddr, dst, bytes, dstRegion, id,
                  traceId, budget](fault::WcStatus) {
      // Sender (target) context. Origin-side state must not be touched from
      // here; route the failure through a control message.
      if (budget > 0) {
        verbs_.resetQp(verbs_.connect(target, origin));
        postGetWrite(origin, target, srcAddr, dst, bytes, dstRegion, id,
                     traceId, budget - 1);
      } else {
        fabric_.submit(target, origin, costs_.control_bytes,
                       net::XferKind::kControl,
                       [this, origin, id]() { failOp(origin, id); });
      }
    };
  }
  verbs_.postRdmaWrite(std::move(w));
}

// --- remote atomics -----------------------------------------------------------

OpId Pgas::fetchAdd(int origin, int target, Gptr g, std::int64_t delta,
                    ValueCallback done) {
  return issueAtomic(origin, target, g, /*isCas=*/false, delta, 0,
                     std::move(done));
}

OpId Pgas::compareSwap(int origin, int target, Gptr g, std::int64_t expected,
                       std::int64_t desired, ValueCallback done) {
  return issueAtomic(origin, target, g, /*isCas=*/true, expected, desired,
                     std::move(done));
}

OpId Pgas::issueAtomic(int origin, int target, Gptr g, bool isCas,
                       std::int64_t a, std::int64_t b, ValueCallback done) {
  CKD_REQUIRE(g.valid() && g.bytes >= 8 && g.offset % 8 == 0 &&
                  g.offset + 8 <= segmentBytes_,
              "remote atomics operate on 8-aligned int64 cells");
  pe(target);
  sim::Engine& eng = engine();
  const std::uint64_t traceId = eng.trace().mintIdFor(origin);
  eng.trace().recordSpan(eng.now(), origin, sim::TraceTag::kPgasAtomic,
                         sim::SpanPhase::kBegin, traceId,
                         eng.trace().context(), 8.0, target);
  const OpId id = newOp(origin, target);

  softwareDelay(costs_.atomic_origin_us, [this, origin, target, g, isCas, a,
                                          b, id, traceId,
                                          done = std::move(done)]() mutable {
    // The request is a control message; the RMW executes at the target in
    // arrival order (the fabric's canonical delivery order), which is what
    // makes concurrent updaters deterministic across reruns and shards.
    fabric_.submit(
        origin, target, costs_.control_bytes, net::XferKind::kControl,
        [this, origin, target, g, isCas, a, b, id, traceId,
         done = std::move(done)]() mutable {
          softwareDelay(
              costs_.atomic_target_us,
              [this, origin, target, g, isCas, a, b, id, traceId,
               done = std::move(done)]() mutable {
                auto* cell = static_cast<std::int64_t*>(addr(target, g));
                const std::int64_t old = *cell;
                if (isCas) {
                  if (old == a) *cell = b;
                } else {
                  *cell += a;
                }
                // Reply with the pre-op value (untraced: the chain's wire
                // segment stays the request leg).
                fabric_.submit(
                    target, origin, costs_.control_bytes,
                    net::XferKind::kControl,
                    [this, origin, old, id, traceId,
                     done = std::move(done)]() mutable {
                      softwareDelay(
                          costs_.completion_us,
                          [this, origin, old, id, traceId,
                           done = std::move(done)]() {
                            sim::Engine& eng = engine();
                            eng.trace().recordSpan(
                                eng.now(), origin,
                                sim::TraceTag::kPgasComplete,
                                sim::SpanPhase::kEnd, traceId, 0, 8.0,
                                origin);
                            if (done) done(old);
                            onLocalComplete(origin, id);
                            onRemoteComplete(origin, id);
                          });
                    });
              });
        },
        traceId);
  });
  return id;
}

// --- completion ---------------------------------------------------------------

bool Pgas::testLocal(OpId id) const {
  CKD_REQUIRE(id != kNoOp, "invalid op id");
  const PerPe& p = pe(originOf(id));
  const auto it = p.ops.find(id);
  return it == p.ops.end() || it->second.localDone;
}

bool Pgas::testRemote(OpId id) const {
  CKD_REQUIRE(id != kNoOp, "invalid op id");
  const PerPe& p = pe(originOf(id));
  const auto it = p.ops.find(id);
  return it == p.ops.end() || it->second.remoteDone;
}

void Pgas::waitLocal(OpId id, Callback cb) {
  CKD_REQUIRE(id != kNoOp, "invalid op id");
  PerPe& p = pe(originOf(id));
  auto it = p.ops.find(id);
  if (it == p.ops.end() || it->second.localDone) {
    if (cb) engine().after(0.0, std::move(cb));
    return;
  }
  CKD_REQUIRE(!it->second.localWaiter, "waitLocal already pending on op");
  it->second.localWaiter = std::move(cb);
}

void Pgas::waitRemote(OpId id, Callback cb) {
  CKD_REQUIRE(id != kNoOp, "invalid op id");
  PerPe& p = pe(originOf(id));
  auto it = p.ops.find(id);
  if (it == p.ops.end() || it->second.remoteDone) {
    if (cb) engine().after(0.0, std::move(cb));
    return;
  }
  CKD_REQUIRE(!it->second.remoteWaiter, "waitRemote already pending on op");
  it->second.remoteWaiter = std::move(cb);
}

void Pgas::flushLocal(int origin, Callback cb) {
  PerPe& p = pe(origin);
  sim::Engine& eng = engine();
  eng.trace().record(eng.now(), origin, sim::TraceTag::kPgasFence,
                     static_cast<double>(p.outstandingLocal));
  if (p.outstandingLocal == 0) {
    if (cb) eng.after(0.0, std::move(cb));
    return;
  }
  Watcher w;
  w.local = true;
  w.remaining = p.outstandingLocal;
  w.cb = std::move(cb);
  p.watchers.push_back(std::move(w));
}

void Pgas::flush(int origin, int target, Callback cb) {
  PerPe& p = pe(origin);
  std::uint64_t pending = 0;
  if (target < 0) {
    for (const std::uint64_t c : p.outstandingRemote) pending += c;
  } else {
    pending = p.outstandingRemote[static_cast<std::size_t>(target)];
  }
  sim::Engine& eng = engine();
  eng.trace().record(eng.now(), origin, sim::TraceTag::kPgasFence,
                     static_cast<double>(pending));
  if (pending == 0) {
    if (cb) eng.after(0.0, std::move(cb));
    return;
  }
  Watcher w;
  w.target = target;
  w.remaining = pending;
  w.cb = std::move(cb);
  p.watchers.push_back(std::move(w));
}

void Pgas::fence(int origin, Callback cb) { flush(origin, -1, std::move(cb)); }

// --- barrier ------------------------------------------------------------------

void Pgas::barrier(int p, Callback done) {
  PerPe& s = pe(p);
  CKD_REQUIRE(!s.barrierCb, "barrier already pending on this PE");
  s.barrierCb = std::move(done);
  sim::Engine& eng = engine();
  eng.trace().record(eng.now(), p, sim::TraceTag::kPgasBarrier);
  softwareDelay(costs_.barrier_hop_us, [this, p]() {
    fabric_.submit(p, 0, costs_.control_bytes, net::XferKind::kControl,
                   [this]() { barrierArrive(); });
  });
}

void Pgas::barrierArrive() {
  // PE 0's context: the centralized rendezvous counter lives here.
  if (++barrierArrived_ < numPes()) return;
  barrierArrived_ = 0;
  ++barrierGen_;
  barriers_.fetch_add(1, std::memory_order_relaxed);
  for (int p = 0; p < numPes(); ++p) {
    fabric_.submit(0, p, costs_.control_bytes, net::XferKind::kControl,
                   [this, p]() {
                     softwareDelay(costs_.barrier_hop_us, [this, p]() {
                       Callback cb = std::move(pe(p).barrierCb);
                       pe(p).barrierCb = nullptr;
                       if (cb) cb();
                     });
                   });
  }
}

// --- fault tolerance ----------------------------------------------------------

void Pgas::reestablish() {
  // Serial phase: every shard is parked, so cross-PE state is touchable.
  for (int p = 0; p < numPes(); ++p) {
    PerPe& s = pes_[static_cast<std::size_t>(p)];
    if (!verbs_.regionValid(s.segRegion))
      s.segRegion = verbs_.registerMemory(p, s.segment.data(), segmentBytes_);
    std::erase_if(s.regCache, [this](const auto& kv) {
      return !verbs_.regionValid(kv.second.id);
    });
    for (const ib::QpId qp : s.qps)
      if (verbs_.qpInError(qp)) verbs_.resetQp(qp);
  }
  // Ops in flight at the disruption lost their wire traffic (the link
  // flushed them). Don't fail them outright: the repair above restored the
  // registrations and QPs, so an idempotent op can simply be re-issued.
  // Each gets a bounded number of re-drives with exponential backoff;
  // atomics (the RMW may have executed with only the reply lost) and ops
  // out of budget fail so waiters and fences still fire.
  for (int p = 0; p < numPes(); ++p) {
    PerPe& s = pes_[static_cast<std::size_t>(p)];
    std::vector<OpId> inflight;
    for (const auto& [id, op] : s.ops)
      if (!op.localDone || !op.remoteDone) inflight.push_back(id);
    std::sort(inflight.begin(), inflight.end());
    for (const OpId id : inflight) redriveOrFail(p, id);
  }
}

void Pgas::redriveOrFail(int origin, OpId id) {
  PerPe& p = pe(origin);
  auto it = p.ops.find(id);
  if (it == p.ops.end()) return;
  Op& op = it->second;
  if (!op.redrive || op.redrives >= costs_.reestablish_retries) {
    failOp(origin, id);
    return;
  }
  const sim::Time delay = costs_.reestablish_backoff_us *
                          static_cast<double>(1 << op.redrives);
  ++op.redrives;
  redriven_.fetch_add(1, std::memory_order_relaxed);
  Callback redrive = op.redrive;  // copy: the op may re-drive again later
  softwareDelay(delay, std::move(redrive));
}

}  // namespace ckd::pgas
