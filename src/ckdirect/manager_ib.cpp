#include "ckdirect/manager_ib.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/require.hpp"

namespace ckd::direct {

IbManager::IbManager(charm::Runtime& rts)
    : rts_(rts), verbs_(rts.ibVerbs()) {
  CKD_REQUIRE(rts.numPes() < (1 << (31 - kIdxBits)),
              "too many PEs for the CkDirect handle encoding");
  byPe_.resize(static_cast<std::size_t>(rts.numPes()));
  pollQueue_.resize(static_cast<std::size_t>(rts.numPes()));
  landed_.assign(static_cast<std::size_t>(rts.numPes()), 0);
  hookInstalled_.assign(static_cast<std::size_t>(rts.numPes()), 0);
  rts_.setReestablishHook([this]() { reestablish(); });
  rts_.setGrowHook([this]() { onPesGrown(); });
}

void IbManager::onPesGrown() {
  CKD_REQUIRE(rts_.numPes() < (1 << (31 - kIdxBits)),
              "too many PEs for the CkDirect handle encoding");
  byPe_.resize(static_cast<std::size_t>(rts_.numPes()));
  pollQueue_.resize(static_cast<std::size_t>(rts_.numPes()));
  landed_.resize(static_cast<std::size_t>(rts_.numPes()), 0);
  hookInstalled_.resize(static_cast<std::size_t>(rts_.numPes()), 0);
}

IbManager::Channel& IbManager::channel(std::int32_t id) {
  const std::int32_t pe = id >> kIdxBits;
  const std::int32_t idx = id & ((1 << kIdxBits) - 1);
  CKD_REQUIRE(id >= 0 && pe < static_cast<std::int32_t>(byPe_.size()) &&
                  byPe_[static_cast<std::size_t>(pe)] != nullptr,
              "unknown CkDirect handle");
  PeChannels& table = *byPe_[static_cast<std::size_t>(pe)];
  CKD_REQUIRE(idx < table.count.load(std::memory_order_acquire),
              "unknown CkDirect handle");
  return table.chunks[idx / PeChannels::kChunkSize].load(
      std::memory_order_acquire)[idx % PeChannels::kChunkSize];
}

const IbManager::Channel& IbManager::channel(std::int32_t id) const {
  return const_cast<IbManager*>(this)->channel(id);
}

namespace {
/// The sentinel lives in the last 8 bytes of the LAST block: RC in-order
/// delivery guarantees every earlier block has landed when it changes.
std::size_t sentinelOffset(std::size_t blockBytes, std::size_t strideBytes,
                           int blockCount) {
  return static_cast<std::size_t>(blockCount - 1) * strideBytes + blockBytes -
         sizeof(std::uint64_t);
}
}  // namespace

std::uint64_t IbManager::readSentinel(const Channel& ch) const {
  std::uint64_t value;
  std::memcpy(&value,
              ch.recvBuffer +
                  sentinelOffset(ch.blockBytes, ch.strideBytes, ch.blockCount),
              sizeof(value));
  return value;
}

void IbManager::writeSentinel(Channel& ch) {
  std::memcpy(ch.recvBuffer +
                  sentinelOffset(ch.blockBytes, ch.strideBytes, ch.blockCount),
              &ch.oob, sizeof(ch.oob));
}

std::int32_t IbManager::createHandle(int receiverPe, void* buffer,
                                     std::size_t bytes, std::uint64_t oob,
                                     Callback callback) {
  return createStridedHandle(receiverPe, buffer, bytes, bytes, 1, oob,
                             std::move(callback));
}

std::int32_t IbManager::createStridedHandle(int receiverPe, void* base,
                                            std::size_t blockBytes,
                                            std::size_t strideBytes,
                                            int blockCount, std::uint64_t oob,
                                            Callback callback) {
  CKD_REQUIRE(base != nullptr, "CkDirect receive buffer is null");
  CKD_REQUIRE(blockBytes >= sizeof(std::uint64_t),
              "CkDirect blocks must hold at least the 8-byte sentinel");
  CKD_REQUIRE(blockCount >= 1, "strided channel needs at least one block");
  CKD_REQUIRE(blockCount == 1 || strideBytes >= blockBytes,
              "blocks may not overlap");
  CKD_REQUIRE(callback != nullptr, "CkDirect requires an arrival callback");

  Channel ch;
  ch.recvPe = receiverPe;
  ch.recvBuffer = static_cast<std::byte*>(base);
  ch.blockBytes = blockBytes;
  ch.strideBytes = strideBytes;
  ch.blockCount = blockCount;
  ch.bytes = blockBytes * static_cast<std::size_t>(blockCount);
  ch.oob = oob;
  ch.callback = std::move(callback);
  // Registration with the verbs layer covers the whole strided span: the
  // HCA may now write anywhere inside it remotely.
  const std::size_t span =
      static_cast<std::size_t>(blockCount - 1) * strideBytes + blockBytes;
  ch.recvRegion = verbs_.registerMemory(receiverPe, base, span);
  ch.marked = true;
  writeSentinel(ch);

  // Runs in the receiver's context, so per-PE creation order — and with it
  // the minted handle id — does not depend on the shard partition.
  if (byPe_[static_cast<std::size_t>(receiverPe)] == nullptr)
    byPe_[static_cast<std::size_t>(receiverPe)] = std::make_unique<PeChannels>();
  PeChannels& table = *byPe_[static_cast<std::size_t>(receiverPe)];
  const std::int32_t idx = table.count.load(std::memory_order_relaxed);
  CKD_REQUIRE(idx < PeChannels::kChunkSize * PeChannels::kMaxChunks,
              "too many CkDirect channels on one PE");
  Channel* chunk =
      table.chunks[idx / PeChannels::kChunkSize].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Channel[PeChannels::kChunkSize];
    table.chunks[idx / PeChannels::kChunkSize].store(chunk,
                                                     std::memory_order_release);
  }
  chunk[idx % PeChannels::kChunkSize] = std::move(ch);
  table.count.store(idx + 1, std::memory_order_release);
  const std::int32_t id = makeId(receiverPe, idx);

  // Enter the polling queue immediately (CkDirect_createHandle semantics).
  chunk[idx % PeChannels::kChunkSize].inPollQueue = true;
  pollQueue_[static_cast<std::size_t>(receiverPe)].push_back(id);
  ensurePollHook(receiverPe);
  return id;
}

void IbManager::ensurePollHook(int pe) {
  if (hookInstalled_[static_cast<std::size_t>(pe)]) return;
  hookInstalled_[static_cast<std::size_t>(pe)] = 1;
  rts_.scheduler(pe).setPollHook([this, pe] { pollScan(pe); });
}

void IbManager::assocLocal(std::int32_t handle, int senderPe,
                           const void* sendBuffer) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(sendBuffer != nullptr, "CkDirect send buffer is null");
  CKD_REQUIRE(ch.sendPe < 0, "handle already associated with a sender");
  ch.sendPe = senderPe;
  ch.sendBuffer = static_cast<const std::byte*>(sendBuffer);
  ch.sendRegion = verbs_.registerMemory(
      senderPe, const_cast<std::byte*>(ch.sendBuffer), ch.bytes);
  ch.qp = verbs_.connect(senderPe, ch.recvPe);
}

bool IbManager::faultsArmed() const {
  return rts_.fabric().faults() != nullptr;
}

void IbManager::put(std::int32_t handle) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(ch.sendPe >= 0,
              "CkDirect_put before CkDirect_assocLocal on this handle");
  puts_.fetch_add(1, std::memory_order_relaxed);

  // Sender-side software cost: one RDMA descriptor per destination block,
  // no message allocation, no header (§3's explanation of the small-message
  // win).
  charm::Scheduler& sender = rts_.scheduler(ch.sendPe);
  sender.chargeAs(sim::Layer::kCkDirect,
                  rts_.costs().put_issue_us +
                      0.05 * (ch.blockCount - 1));  // extra descriptors
  const sim::Time issue = sender.currentTime();
  // One chain per logical put; transparent retries re-use it (N attempts,
  // one chain). The parent is whatever handler called CkDirect_put. The id
  // is minted against the sending PE so it is partition-independent under
  // --shards (mintIdFor falls back to the global stream otherwise).
  ch.activeTraceId = rts_.engine().trace().mintIdFor(ch.sendPe);
  ch.activeParentId = rts_.engine().trace().context();
  ch.activePutAt = -1.0;  // fresh logical put, fresh latency clock

  const std::uint32_t epoch = epoch_;
  rts_.schedAt(ch.sendPe, issue, [this, handle, epoch]() {
    if (epoch != epoch_) return;  // put was rolled back by a restore
    issueWrites(handle);
  });
}

void IbManager::issueWrites(std::int32_t handle) {
  Channel& ch = channel(handle);
  // Receiver (or sender) died mid-iteration: drop the put silently. The
  // rollback rewinds the sender past this point and re-drives it; posting
  // would abort on the invalidated remote region.
  if (!rts_.peAlive(ch.recvPe) || !rts_.peAlive(ch.sendPe)) return;
  rts_.engine().trace().recordSpan(
      rts_.engine().now(), ch.sendPe, sim::TraceTag::kDirectPut,
      sim::SpanPhase::kBegin, ch.activeTraceId, ch.activeParentId,
      static_cast<double>(ch.bytes), handle);
  // First issue of this logical put starts the streaming latency clock;
  // transparent retries re-enter here and must not restart it.
  if (ch.activePutAt < 0.0) ch.activePutAt = rts_.engine().now();
  // One RDMA write per destination block (a scatter put issues one
  // descriptor per contiguous run). RC in-order delivery means the last
  // block — which carries the sentinel — lands last, so detection still
  // implies the whole strided payload is in place.
  const bool armed = faultsArmed();
  for (int b = 0; b < ch.blockCount; ++b) {
    ib::IbVerbs::RdmaWrite write;
    write.qp = ch.qp;
    write.local_addr = ch.sendBuffer + static_cast<std::size_t>(b) * ch.blockBytes;
    write.local_region = ch.sendRegion;
    write.remote_addr =
        ch.recvBuffer + static_cast<std::size_t>(b) * ch.strideBytes;
    write.remote_region = ch.recvRegion;
    write.bytes = ch.blockBytes;
    // The sender may not touch its buffer until the receiver's callback
    // (no sender completion exists), so the write reads it at delivery.
    write.source_pinned = true;
    write.trace_id = ch.activeTraceId;
    if (b == ch.blockCount - 1)
      write.on_remote_delivered = [this, handle]() { onDelivered(handle); };
    if (armed)
      write.on_error = [this, handle](fault::WcStatus status) {
        onPutError(handle, status);
      };
    verbs_.postRdmaWrite(std::move(write));
  }
}

void IbManager::onPutError(std::int32_t handle, fault::WcStatus status) {
  Channel& ch = channel(handle);
  // A failed put flushes every block write on the QP with an error
  // completion; the first one schedules the recovery, the rest fold in.
  if (ch.errorPending) return;
  ch.errorPending = true;
  const fault::ReliabilityParams& rel = rts_.fabric().faults()->plan().rel;
  if (ch.putAttempts >= rel.app_retry_budget) {
    // Transparent recovery exhausted: surface the error completion to the
    // application on the sender PE (costed like an ordinary callback).
    CKD_REQUIRE(ch.onError != nullptr,
                "CkDirect put failed permanently with no error callback");
    verbs_.resetQp(ch.qp);
    rts_.scheduler(ch.sendPe).enqueueSystemWork(
        rts_.costs().callback_overhead_us,
        [this, handle, status]() {
          Channel& c = channel(handle);
          c.errorPending = false;
          c.putAttempts = 0;
          c.onError(status);
        },
        sim::Layer::kCkDirect);
    return;
  }
  ++ch.putAttempts;
  putRetries_.fetch_add(1, std::memory_order_relaxed);
  // Recover the QP (fresh PSN) and re-issue the whole put after the base
  // timeout. RDMA rewrites of the same bytes are idempotent, so blocks that
  // did land are simply written again.
  verbs_.resetQp(ch.qp);
  const std::uint32_t epoch = epoch_;
  rts_.engine().after(rel.timeout_us, [this, handle, epoch]() {
    if (epoch != epoch_) return;  // retry was rolled back by a restore
    Channel& c = channel(handle);
    c.errorPending = false;
    issueWrites(handle);
  });
}

void IbManager::onDelivered(std::int32_t id) {
  Channel& ch = channel(id);
  ch.putAttempts = 0;
  if (!ch.marked) {
    // With faults armed, a put recovered after "retry exceeded" can deliver
    // a second copy of data whose first copy actually landed (only the acks
    // were lost). The rewrite is byte-identical, so ignore the repeat.
    // Without faults a landing on an unmarked channel is an application
    // synchronization bug: the real system would have overwritten live data.
    CKD_REQUIRE(faultsArmed(),
                "CkDirect put landed before the receiver marked the channel "
                "ready — application synchronization bug");
    return;
  }
  ch.marked = false;
  if (ch.inPollQueue) {
    ++landed_[static_cast<std::size_t>(ch.recvPe)];
    // Model: an idle poll loop notices after poll_detect_latency; a busy PE
    // notices at its next pump anyway.
    const sim::Time detect = rts_.costs().poll_detect_latency_us;
    // When the receiver is idle, that detection gap is genuine CkDirect
    // time (the poll loop spinning); a busy PE overlaps it with other work.
    if (rts_.processor(ch.recvPe).freeAt() <= rts_.engine().now())
      rts_.engine().trace().addLayerTime(sim::Layer::kCkDirect, detect);
    rts_.scheduler(ch.recvPe).poke(detect);
  }
  // else: detection deferred until the receiver calls readyPollQ.
}

void IbManager::pollScan(int pe) {
  auto& queue = pollQueue_[static_cast<std::size_t>(pe)];
  if (queue.empty()) return;
  charm::Scheduler& sched = rts_.scheduler(pe);
  sim::TraceRecorder& trace = rts_.engine().trace();
  trace.recordLazy(rts_.engine().now(), pe, sim::TraceTag::kDirectPollScan,
                   [&queue] { return static_cast<double>(queue.size()); });
  trace.observePollQueue(queue.size());
  sched.charge(rts_.costs().poll_per_handle_us *
               static_cast<double>(queue.size()));
  // No queued channel's write has landed since the last full scan, so no
  // sentinel moved: the scan would keep the queue exactly as it is. Skip
  // the sentinel reads (each one a cold line at the tail of a large
  // buffer); the modeled cost above is charged all the same.
  std::uint32_t& landed = landed_[static_cast<std::size_t>(pe)];
  if (landed == 0) return;
  landed = 0;

  // Swap the queue out before scanning: callbacks may re-arm handles
  // (readyPollQ) and push onto the live queue.
  std::vector<std::int32_t> scan;
  scan.swap(queue);
  for (const std::int32_t id : scan) {
    Channel& ch = channel(id);
    if (readSentinel(ch) == ch.oob) {
      queue.push_back(id);  // still pending
      continue;
    }
    ch.inPollQueue = false;
    ch.detected = true;
    // Timestamps use the context clock (currentTime reflects the poll +
    // callback charges), so the detect -> callback gap is the modeled
    // handler overhead, not zero.
    trace.recordSpan(sched.currentTime(), pe, sim::TraceTag::kDirectSentinelHit,
                     sim::SpanPhase::kInstant, ch.activeTraceId, 0, 0.0, id);
    sched.charge(rts_.costs().callback_overhead_us);
    trace.recordSpan(sched.currentTime(), pe, sim::TraceTag::kDirectCallback,
                     sim::SpanPhase::kEnd, ch.activeTraceId, ch.activeParentId,
                     0.0, id);
    // Streaming put latency: first write issue -> callback completion,
    // matching the kDirectPut/kDirectCallback causal chain exactly.
    if (ch.activePutAt >= 0.0) {
      rts_.engine().metrics().record(obs::Slo::kPut,
                                     sched.currentTime() - ch.activePutAt);
      ch.activePutAt = -1.0;
    }
    // Puts issued by the callback are caused by this arrival: expose the
    // put's chain id as the ambient context for the callback body.
    const std::uint64_t prevCtx = trace.context();
    trace.setContext(ch.activeTraceId);
    ch.callback();
    trace.setContext(prevCtx);
  }
}

void IbManager::ready(std::int32_t handle) {
  readyMark(handle);
  readyPollQ(handle);
}

void IbManager::readyMark(std::int32_t handle) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(!ch.marked || readSentinel(ch) == ch.oob,
              "readyMark on a channel whose data has not been consumed");
  ch.marked = true;
  ch.detected = false;
  writeSentinel(ch);
  rts_.engine().trace().record(rts_.engine().now(), ch.recvPe,
                               sim::TraceTag::kDirectReady);
}

void IbManager::readyPollQ(std::int32_t handle) {
  Channel& ch = channel(handle);
  if (ch.inPollQueue) return;
  // "...if new data has not already been received for that handle" (§2.1):
  // a channel whose data was received but not yet consumed/re-marked must
  // not resume polling, or its stale payload would fire the callback again.
  if (ch.detected) return;
  ch.inPollQueue = true;
  pollQueue_[static_cast<std::size_t>(ch.recvPe)].push_back(handle);
  // If data already landed undetected, make sure a pump notices it promptly.
  if (readSentinel(ch) != ch.oob) {
    ++landed_[static_cast<std::size_t>(ch.recvPe)];
    rts_.scheduler(ch.recvPe).poke(rts_.costs().poll_detect_latency_us);
  }
}

void IbManager::setErrorCallback(std::int32_t handle,
                                 PutErrorCallback callback) {
  channel(handle).onError = std::move(callback);
}

void IbManager::rehome(std::int32_t handle, int newRecvPe) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(newRecvPe >= 0 && newRecvPe < rts_.numPes(),
              "rehome target PE out of range");
  if (ch.recvPe == newRecvPe) return;
  // Migrations happen at reduction cuts, where the iteration discipline
  // CkDirect requires guarantees the channel is idle: consumed, re-armed,
  // nothing on the wire. Moving a live channel would strand in-flight data.
  CKD_REQUIRE(ch.marked && !ch.detected,
              "rehome on a channel with unconsumed or in-flight data");
  const int oldPe = ch.recvPe;
  if (ch.inPollQueue) {
    auto& q = pollQueue_[static_cast<std::size_t>(oldPe)];
    q.erase(std::remove(q.begin(), q.end(), handle), q.end());
  }
  // Re-pin the receive span under the new PE's identity. The buffer
  // addresses are unchanged — the element object itself does not move in
  // memory, only its simulated home — so this is a pure re-registration.
  if (verbs_.regionValid(ch.recvRegion)) verbs_.deregisterMemory(ch.recvRegion);
  const std::size_t span =
      static_cast<std::size_t>(ch.blockCount - 1) * ch.strideBytes +
      ch.blockBytes;
  ch.recvPe = newRecvPe;
  ch.recvRegion = verbs_.registerMemory(newRecvPe, ch.recvBuffer, span);
  if (ch.sendPe >= 0) ch.qp = verbs_.connect(ch.sendPe, newRecvPe);
  writeSentinel(ch);
  if (ch.inPollQueue)
    pollQueue_[static_cast<std::size_t>(newRecvPe)].push_back(handle);
  ensurePollHook(newRecvPe);
  // The re-handshake (rkey exchange + QP transition) costs work at both
  // endpoints, like the original createHandle/assocLocal pair.
  rts_.scheduler(newRecvPe).enqueueSystemWork(
      rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
  if (ch.sendPe >= 0)
    rts_.scheduler(ch.sendPe).enqueueSystemWork(
        rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
}

std::size_t IbManager::pollQueueLength(int pe) const {
  CKD_REQUIRE(pe >= 0 && pe < rts_.numPes(), "PE out of range");
  return pollQueue_[static_cast<std::size_t>(pe)].size();
}

void IbManager::reestablish() {
  // Global rollback just restored every element to a reduction-cut state,
  // where (by the application iteration discipline CkDirect requires) every
  // channel is idle: data consumed, sentinel re-armed, polling. Re-run the
  // createHandle/assocLocal side effects under the new epoch.
  ++epoch_;
  for (auto& queue : pollQueue_) queue.clear();
  std::fill(landed_.begin(), landed_.end(), 0);
  // PE-major, ordinal-minor sweep: deterministic and partition-independent
  // (reestablish runs in a serial phase, so plain loads are fine).
  for (std::size_t pe = 0; pe < byPe_.size(); ++pe) {
    if (byPe_[pe] == nullptr) continue;
    const std::int32_t n = byPe_[pe]->count.load(std::memory_order_relaxed);
    for (std::int32_t idx = 0; idx < n; ++idx) {
      const std::int32_t id = makeId(static_cast<std::int32_t>(pe), idx);
      Channel& ch = channel(id);
      // Crash invalidated the victim's pinned regions; buffer addresses are
      // stable across the restore, so re-registration is a lookup-free redo
      // of the original handshake.
      if (!verbs_.regionValid(ch.recvRegion)) {
        const std::size_t span =
            static_cast<std::size_t>(ch.blockCount - 1) * ch.strideBytes +
            ch.blockBytes;
        ch.recvRegion = verbs_.registerMemory(ch.recvPe, ch.recvBuffer, span);
      }
      if (ch.sendPe >= 0 && !verbs_.regionValid(ch.sendRegion))
        ch.sendRegion = verbs_.registerMemory(
            ch.sendPe, const_cast<std::byte*>(ch.sendBuffer), ch.bytes);
      if (ch.qp != ib::kInvalidQp) verbs_.resetQp(ch.qp);
      ch.marked = true;
      ch.detected = false;
      ch.putAttempts = 0;
      ch.errorPending = false;
      writeSentinel(ch);
      ch.inPollQueue = true;
      pollQueue_[static_cast<std::size_t>(ch.recvPe)].push_back(id);
      // Rehomed channels may poll on a PE that never created one.
      ensurePollHook(ch.recvPe);
      // The re-handshake costs work on both endpoints, like the original
      // createHandle/assocLocal calls.
      rts_.scheduler(ch.recvPe).enqueueSystemWork(
          rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
      if (ch.sendPe >= 0)
        rts_.scheduler(ch.sendPe).enqueueSystemWork(
            rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
    }
  }
}

}  // namespace ckd::direct
