#include "ckdirect/manager_bgp.hpp"

#include <cstring>
#include <utility>

#include "util/require.hpp"

namespace ckd::direct {

BgpManager::BgpManager(charm::Runtime& rts) : rts_(rts), dcmf_(rts.dcmf()) {
  // One protocol serves every CkDirect channel: the Info header "reminds"
  // the receiver of all necessary context at each put (§2.2).
  protocol_ = dcmf_.registerProtocol(
      // Short path (< 224 B): the handler copies into the landing buffer.
      [this](int /*myRank*/, int /*srcRank*/, const dcmf::Info& info,
             const std::byte* data, std::size_t bytes) {
        const auto id =
            static_cast<std::int32_t>(info.quad(0)[1] & 0xffffffffu);
        Channel& ch = channel(id);
        CKD_REQUIRE(dcmf::Info::unpackPointer<std::byte>(info.quad(0)[0]) ==
                        ch.recvBuffer,
                    "Info header receive-buffer pointer is stale");
        std::memcpy(landingBuffer(ch), data, bytes);
        onArrived(id);
      },
      // Normal path: hand DCMF the landing buffer; completion = callback.
      [this](int /*myRank*/, int /*srcRank*/, const dcmf::Info& info,
             std::size_t bytes) {
        const auto id =
            static_cast<std::int32_t>(info.quad(0)[1] & 0xffffffffu);
        Channel& ch = channel(id);
        CKD_REQUIRE(bytes == ch.bytes,
                    "CkDirect put size differs from the channel size");
        CKD_REQUIRE(dcmf::Info::unpackPointer<std::byte>(info.quad(0)[0]) ==
                        ch.recvBuffer,
                    "Info header receive-buffer pointer is stale");
        dcmf::RecvSpec spec;
        spec.buffer = landingBuffer(ch);
        spec.capacity = ch.bytes;
        spec.request =
            dcmf::Info::unpackPointer<dcmf::Request>(info.quad(1)[0]);
        spec.on_complete = [this, id]() { onArrived(id); };
        return spec;
      });
  rts_.setReestablishHook([this]() { reestablish(); });
}

BgpManager::Channel& BgpManager::channel(std::int32_t id) {
  CKD_REQUIRE(id >= 0 && id < static_cast<std::int32_t>(channels_.size()),
              "unknown CkDirect handle");
  return *channels_[static_cast<std::size_t>(id)];
}

std::int32_t BgpManager::createHandle(int receiverPe, void* buffer,
                                      std::size_t bytes, std::uint64_t oob,
                                      Callback callback) {
  return createStridedHandle(receiverPe, buffer, bytes, bytes, 1, oob,
                             std::move(callback));
}

std::int32_t BgpManager::createStridedHandle(int receiverPe, void* base,
                                             std::size_t blockBytes,
                                             std::size_t strideBytes,
                                             int blockCount,
                                             std::uint64_t /*oob*/,
                                             Callback callback) {
  CKD_REQUIRE(base != nullptr, "CkDirect receive buffer is null");
  CKD_REQUIRE(blockBytes > 0, "CkDirect channel must carry data");
  CKD_REQUIRE(blockCount >= 1, "strided channel needs at least one block");
  CKD_REQUIRE(blockCount == 1 || strideBytes >= blockBytes,
              "blocks may not overlap");
  CKD_REQUIRE(callback != nullptr, "CkDirect requires an arrival callback");
  auto ch = std::make_unique<Channel>();
  ch->recvPe = receiverPe;
  ch->recvBuffer = static_cast<std::byte*>(base);
  ch->blockBytes = blockBytes;
  ch->strideBytes = strideBytes;
  ch->blockCount = blockCount;
  ch->bytes = blockBytes * static_cast<std::size_t>(blockCount);
  if (blockCount > 1) ch->staging.resize(ch->bytes);
  ch->callback = std::move(callback);
  // §2.2: the receive-side message transaction state buffer is allocated
  // here and reused for every subsequent put on this channel.
  ch->recvRequest = std::make_unique<dcmf::Request>();
  channels_.push_back(std::move(ch));
  return static_cast<std::int32_t>(channels_.size() - 1);
}

void BgpManager::assocLocal(std::int32_t handle, int senderPe,
                            const void* sendBuffer) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(sendBuffer != nullptr, "CkDirect send buffer is null");
  CKD_REQUIRE(ch.sendPe < 0, "handle already associated with a sender");
  ch.sendPe = senderPe;
  ch.sendBuffer = static_cast<const std::byte*>(sendBuffer);
  ch.sendRequest = std::make_unique<dcmf::Request>();
}

void BgpManager::put(std::int32_t handle) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(ch.sendPe >= 0,
              "CkDirect_put before CkDirect_assocLocal on this handle");
  ++puts_;

  charm::Scheduler& sender = rts_.scheduler(ch.sendPe);
  sender.chargeAs(sim::Layer::kCkDirect, rts_.costs().put_issue_us);
  const sim::Time issue = sender.currentTime();
  // One chain per logical put; transparent retries re-use it (N attempts,
  // one chain). The parent is whatever handler called CkDirect_put.
  ch.activeTraceId = rts_.engine().trace().mintId();
  ch.activeParentId = rts_.engine().trace().context();
  ch.activePutAt = -1.0;  // fresh logical put, fresh latency clock

  const std::uint32_t epoch = epoch_;
  rts_.engine().at(issue, [this, handle, epoch]() {
    if (epoch != epoch_) return;  // put was rolled back by a restore
    issueSend(handle);
  });
}

void BgpManager::issueSend(std::int32_t handle) {
  Channel& ch = channel(handle);
  // Receiver (or sender) died mid-iteration: drop the put silently — the
  // rollback rewinds the sender past this point and re-drives it.
  if (!rts_.peAlive(ch.recvPe) || !rts_.peAlive(ch.sendPe)) return;
  rts_.engine().trace().recordSpan(
      rts_.engine().now(), ch.sendPe, sim::TraceTag::kDirectPut,
      sim::SpanPhase::kBegin, ch.activeTraceId, ch.activeParentId,
      static_cast<double>(ch.bytes), handle);
  // First issue of this logical put starts the streaming latency clock;
  // the retry path re-enters here and must not restart it.
  if (ch.activePutAt < 0.0) ch.activePutAt = rts_.engine().now();
  // Two quad words of context ride with the payload (§2.2): the receive
  // buffer pointer + handle id, and the receive request pointer.
  dcmf::Info info;
  info.append({dcmf::Info::packPointer(ch.recvBuffer),
               static_cast<std::uint64_t>(handle)});
  info.append({dcmf::Info::packPointer(ch.recvRequest.get()), 0});
  dcmf_.send(protocol_, ch.sendPe, ch.recvPe, info, ch.sendBuffer, ch.bytes,
             ch.sendRequest.get(),
             [this, handle]() { channel(handle).putAttempts = 0; },
             /*modeled_wire_bytes=*/0,
             [this, handle](fault::WcStatus status) {
               onPutError(handle, status);
             },
             ch.activeTraceId);
}

void BgpManager::onPutError(std::int32_t handle, fault::WcStatus status) {
  Channel& ch = channel(handle);
  const fault::ReliabilityParams& rel = rts_.fabric().faults()->plan().rel;
  dcmf_.resetChannel(ch.sendPe, ch.recvPe);
  if (ch.putAttempts >= rel.app_retry_budget) {
    // Transparent recovery exhausted: surface the error completion to the
    // application on the sender PE (costed like an ordinary callback).
    CKD_REQUIRE(ch.onError != nullptr,
                "CkDirect put failed permanently with no error callback");
    rts_.scheduler(ch.sendPe).enqueueSystemWork(
        rts_.costs().callback_overhead_us,
        [this, handle, status]() {
          Channel& c = channel(handle);
          c.putAttempts = 0;
          c.onError(status);
        },
        sim::Layer::kCkDirect);
    return;
  }
  ++ch.putAttempts;
  ++putRetries_;
  const std::uint32_t epoch = epoch_;
  rts_.engine().after(rel.timeout_us, [this, handle, epoch]() {
    if (epoch != epoch_) return;  // retry was rolled back by a restore
    issueSend(handle);
  });
}

void BgpManager::setErrorCallback(std::int32_t handle,
                                  PutErrorCallback callback) {
  channel(handle).onError = std::move(callback);
}

void BgpManager::rehome(std::int32_t handle, int newRecvPe) {
  Channel& ch = channel(handle);
  CKD_REQUIRE(newRecvPe >= 0 && newRecvPe < rts_.numPes(),
              "rehome target PE out of range");
  if (ch.recvPe == newRecvPe) return;
  CKD_REQUIRE(!ch.recvRequest || !ch.recvRequest->inFlight,
              "rehome on a channel with a DCMF receive in flight");
  ch.recvPe = newRecvPe;
  // The senders learn the new rank via a modeled control exchange, charged
  // at both ends like the original createHandle/assocLocal pair.
  rts_.scheduler(newRecvPe).enqueueSystemWork(
      rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
  if (ch.sendPe >= 0)
    rts_.scheduler(ch.sendPe).enqueueSystemWork(
        rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
}

void BgpManager::reestablish() {
  // Global rollback just restored every element to a reduction-cut state,
  // where every channel is idle. In-flight DCMF messages died with the link
  // flush, so the per-channel request buffers are reusable again; retry
  // state restarts clean under the new epoch.
  ++epoch_;
  for (const std::unique_ptr<Channel>& ch : channels_) {
    if (ch->recvRequest) ch->recvRequest->inFlight = false;
    if (ch->sendRequest) ch->sendRequest->inFlight = false;
    ch->putAttempts = 0;
    // Re-running the handshake costs work on both endpoints.
    rts_.scheduler(ch->recvPe).enqueueSystemWork(
        rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
    if (ch->sendPe >= 0)
      rts_.scheduler(ch->sendPe).enqueueSystemWork(
          rts_.costs().callback_overhead_us, []() {}, sim::Layer::kCkDirect);
  }
}

std::byte* BgpManager::landingBuffer(Channel& ch) {
  return ch.blockCount == 1 ? ch.recvBuffer : ch.staging.data();
}

void BgpManager::onArrived(std::int32_t id) {
  Channel& ch = channel(id);
  // The callback runs as machine-level work on the receiving PE: it waits
  // for the processor but never for the message queue. Strided channels
  // first scatter the staged payload into place — one more copy, charged
  // at the node's memcpy rate.
  rts_.engine().trace().recordSpan(
      rts_.engine().now(), ch.recvPe, sim::TraceTag::kDirectCallback,
      sim::SpanPhase::kEnd, ch.activeTraceId, ch.activeParentId, 0.0, id);
  // Streaming put latency: first send issue -> arrival callback, matching
  // the kDirectPut/kDirectCallback causal chain exactly.
  if (ch.activePutAt >= 0.0) {
    rts_.engine().metrics().record(obs::Slo::kPut,
                                   rts_.engine().now() - ch.activePutAt);
    ch.activePutAt = -1.0;
  }
  sim::Time cost = rts_.costs().callback_overhead_us;
  if (ch.blockCount > 1)
    cost += rts_.fabric().params().self_per_byte_us *
            static_cast<double>(ch.bytes);
  rts_.scheduler(ch.recvPe).enqueueSystemWork(
      cost,
      [this, id]() {
        Channel& c = channel(id);
        if (c.blockCount > 1) {
          for (int b = 0; b < c.blockCount; ++b)
            std::memcpy(
                c.recvBuffer + static_cast<std::size_t>(b) * c.strideBytes,
                c.staging.data() + static_cast<std::size_t>(b) * c.blockBytes,
                c.blockBytes);
        }
        // Puts issued by the callback are caused by this arrival.
        sim::TraceRecorder& trace = rts_.engine().trace();
        const std::uint64_t prevCtx = trace.context();
        trace.setContext(c.activeTraceId);
        c.callback();
        trace.setContext(prevCtx);
      },
      sim::Layer::kCkDirect);
}

}  // namespace ckd::direct
