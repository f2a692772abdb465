#include "charm/transport.hpp"

#include <utility>

#include "charm/runtime.hpp"
#include "util/require.hpp"

namespace ckd::charm {

// ---------------------------------------------------------------------------
// InfiniBand
// ---------------------------------------------------------------------------

IbTransport::IbTransport(Runtime& runtime, ib::IbVerbs& verbs)
    : runtime_(runtime), verbs_(verbs) {
  // Materialize the reliable link up front when faults are armed: under
  // --shards the first eager sends may race from several shard threads, and
  // construction is the one link operation its own lock cannot cover.
  if (reliableActive()) link();
}

bool IbTransport::reliableActive() {
  return runtime_.fabric().faults() != nullptr;
}

fault::ReliableLink& IbTransport::link() {
  if (!link_)
    link_ = std::make_unique<fault::ReliableLink>(
        runtime_.fabric(), runtime_.fabric().faults()->plan().rel);
  return *link_;
}

int IbTransport::pairChannel(int src, int dst) const {
  // Size-independent keying: an elastic scale-out grows numPes mid-run, and
  // a multiplicative key minted before the growth would collide with keys
  // minted after it. 20 bits of dst is far beyond any simulated machine.
  return (src << 20) + dst;
}

void IbTransport::send(MessagePtr msg) {
  if (modeledWireBytes(*msg) < runtime_.costs().rdma_threshold_bytes) {
    sendEager(std::move(msg));
  } else {
    sendRendezvous(std::move(msg));
  }
}

std::size_t IbTransport::modeledWireBytes(const Message& msg) const {
  // The envelope's wire charge follows the configured header size (the
  // paper's ~80 bytes by default; ablations can zero it).
  return msg.payloadBytes() + runtime_.costs().header_bytes;
}

void IbTransport::sendEager(MessagePtr msg) {
  const int src = msg->env().srcPe;
  const int dst = msg->env().dstPe;
  const std::uint64_t traceId = msg->env().traceId;
  // Stamp before sealHeader so the wire image carries the send instant and
  // the delivery side can feed the streaming msg-RTT histogram. Retransmits
  // rebuild from this image, so the stamp survives them unchanged.
  if (msg->env().sentAt < 0.0) msg->env().sentAt = runtime_.engine().now();
  runtime_.engine().trace().recordSpan(
      runtime_.engine().now(), src, sim::TraceTag::kXportEager,
      sim::SpanPhase::kBegin, traceId, msg->env().parentTraceId,
      static_cast<double>(msg->payloadBytes()));
  if (reliableActive()) {
    // Under faults the eager path ships the real wire image through the
    // reliable link: a corrupted copy fails the link CRC and is
    // retransmitted, and the message is rebuilt from the image the
    // in-sequence arrival delivers.
    msg->sealHeader();
    const std::span<const std::byte> wire = msg->wire();
    fault::ReliableLink::Send send;
    send.src = src;
    send.dst = dst;
    send.wireBytes = modeledWireBytes(*msg);
    send.cls = fault::MsgClass::kPacket;
    send.payload.assign(wire.begin(), wire.end());
    send.on_deliver = [this, dst](std::vector<std::byte>&& image) {
      MessagePtr rebuilt = Message::fromWire({image.data(), image.size()});
      runtime_.scheduler(dst).enqueue(std::move(rebuilt));
    };
    send.traceId = traceId;
    link().post(pairChannel(src, dst), std::move(send));
    return;
  }
  const std::size_t wireBytes = modeledWireBytes(*msg);
  runtime_.fabric().submit(
      src, dst, wireBytes, net::XferKind::kPacket,
      [this, dst, msg = std::move(msg)]() mutable {
        runtime_.scheduler(dst).enqueue(std::move(msg));
      },
      traceId);
}

void IbTransport::sendRendezvous(MessagePtr msg) {
  CKD_REQUIRE(!runtime_.windowed(),
              "rendezvous transport is not supported under --shards: its "
              "pending-send/recv maps and run-time memory registration are "
              "cross-shard state (keep messages below the RDMA threshold, or "
              "use CkDirect for bulk transfers)");
  if (msg->env().sentAt < 0.0) msg->env().sentAt = runtime_.engine().now();
  const Envelope env = msg->env();
  const std::uint64_t seq = env.seq;
  CKD_REQUIRE(pendingSends_.count(seq) == 0, "duplicate rendezvous sequence");
  const sim::Time now = runtime_.engine().now();
  runtime_.engine().trace().recordSpan(
      now, env.srcPe, sim::TraceTag::kXportRtsSend, sim::SpanPhase::kBegin,
      env.traceId, env.parentTraceId, static_cast<double>(env.payloadBytes));
  PendingSend pending;
  pending.msg = std::move(msg);
  pending.rtsAt = now;
  pendingSends_.emplace(seq, std::move(pending));

  // Request-to-send: a small control message carrying the envelope so the
  // receiver can allocate and register a landing buffer of the right size.
  // Under faults it rides the reliable link (a lost RTS would otherwise
  // stall the rendezvous forever).
  if (reliableActive()) {
    fault::ReliableLink::Send ctrl;
    ctrl.src = env.srcPe;
    ctrl.dst = env.dstPe;
    ctrl.wireBytes = kControlBytes;
    ctrl.cls = fault::MsgClass::kControl;
    ctrl.on_deliver = [this, seq, env](std::vector<std::byte>&&) {
      onRendezvousRequest(seq, env);
    };
    ctrl.traceId = env.traceId;
    link().post(pairChannel(env.srcPe, env.dstPe), std::move(ctrl));
    return;
  }
  runtime_.fabric().submit(
      env.srcPe, env.dstPe, kControlBytes, net::XferKind::kControl,
      [this, seq, env]() { onRendezvousRequest(seq, env); }, env.traceId);
}

void IbTransport::onRendezvousRequest(std::uint64_t seq, Envelope env) {
  // Runs at the receiver when the request arrives. Buffer allocation and
  // memory registration are machine-level work on the receiving PE; the
  // cost grows slowly with the message size (paper §3, rendezvous analysis).
  const RuntimeCosts& costs = runtime_.costs();
  runtime_.engine().trace().recordSpan(
      runtime_.engine().now(), env.dstPe, sim::TraceTag::kXportRtsRecv,
      sim::SpanPhase::kInstant, env.traceId, 0,
      static_cast<double>(env.payloadBytes));
  const sim::Time regCost =
      costs.rendezvous_reg_base_us +
      costs.rendezvous_reg_per_byte_us * static_cast<double>(env.payloadBytes);
  runtime_.scheduler(env.dstPe).enqueueSystemWork(regCost, [this, seq, env]() {
    MessagePtr landing = Message::makeUninit(env, env.payloadBytes);
    const std::span<std::byte> wire = landing->wireMutable();
    const ib::RegionId region =
        verbs_.registerMemory(env.dstPe, wire.data(), wire.size());
    void* remoteAddr = wire.data();
    pendingRecvs_.emplace(seq, PendingRecv{std::move(landing), region});
    // The ack leaves once the registration work is done (currentTime()
    // reflects the cost charged to this system-work context).
    const sim::Time ready = runtime_.scheduler(env.dstPe).currentTime();
    runtime_.engine().at(ready, [this, seq, env, remoteAddr, region]() {
      if (reliableActive()) {
        fault::ReliableLink::Send ctrl;
        ctrl.src = env.dstPe;
        ctrl.dst = env.srcPe;
        ctrl.wireBytes = kControlBytes;
        ctrl.cls = fault::MsgClass::kControl;
        ctrl.on_deliver = [this, seq, remoteAddr,
                           region](std::vector<std::byte>&&) {
          onRendezvousAck(seq, remoteAddr, region);
        };
        ctrl.traceId = env.traceId;
        link().post(pairChannel(env.dstPe, env.srcPe), std::move(ctrl));
        return;
      }
      runtime_.fabric().submit(
          env.dstPe, env.srcPe, kControlBytes, net::XferKind::kControl,
          [this, seq, remoteAddr, region]() {
            onRendezvousAck(seq, remoteAddr, region);
          },
          env.traceId);
    });
  });
}

void IbTransport::reset() {
  // Restart protocol: every rendezvous in flight at the crash is abandoned —
  // the rollback re-sends the messages that mattered (with fresh sequence
  // numbers; nextSeq_ is never rolled back, so no collisions). Landing
  // buffers and pinned send images are released; regions owned by the dead
  // PE were already invalidated wholesale, hence the validity guard.
  for (auto& [seq, recv] : pendingRecvs_)
    if (verbs_.regionValid(recv.region)) verbs_.deregisterMemory(recv.region);
  pendingRecvs_.clear();
  for (auto& [seq, send] : pendingSends_)
    if (verbs_.regionValid(send.localRegion))
      verbs_.deregisterMemory(send.localRegion);
  pendingSends_.clear();
}

void IbTransport::onRendezvousAck(std::uint64_t seq, void* remoteAddr,
                                  ib::RegionId remoteRegion) {
  const auto it = pendingSends_.find(seq);
  if (it == pendingSends_.end() && runtime_.checkpoints() != nullptr)
    return;  // send was flushed by a fail-stop recovery
  CKD_REQUIRE(it != pendingSends_.end(), "rendezvous ack for unknown send");
  MessagePtr msg = it->second.msg;  // keep alive until the RDMA completes
  const int src = msg->env().srcPe;
  sim::TraceRecorder& trace = runtime_.engine().trace();
  trace.recordSpan(runtime_.engine().now(), src, sim::TraceTag::kXportAck,
                   sim::SpanPhase::kInstant, msg->env().traceId);
  trace.observeRendezvousRtt(runtime_.engine().now() - it->second.rtsAt);
  runtime_.scheduler(src).enqueueSystemWork(
      kAckProcessUs, [this, seq, msg, remoteAddr, remoteRegion]() {
        const int src = msg->env().srcPe;
        const sim::Time ready = runtime_.scheduler(src).currentTime();
        runtime_.engine().at(
            ready, [this, seq, src, remoteAddr, remoteRegion]() {
              const auto pit = pendingSends_.find(seq);
              if (pit == pendingSends_.end() &&
                  runtime_.checkpoints() != nullptr)
                return;  // send was flushed by a fail-stop recovery
              CKD_REQUIRE(pit != pendingSends_.end(),
                          "rendezvous ack for a completed send");
              PendingSend& pending = pit->second;
              const std::span<std::byte> wire = pending.msg->wireMutable();
              pending.remoteAddr = remoteAddr;
              pending.remoteRegion = remoteRegion;
              pending.localRegion =
                  verbs_.registerMemory(src, wire.data(), wire.size());
              postPayloadWrite(seq);
            });
      });
}

void IbTransport::postPayloadWrite(std::uint64_t seq) {
  const auto it = pendingSends_.find(seq);
  CKD_REQUIRE(it != pendingSends_.end(), "payload write for unknown send");
  PendingSend& pending = it->second;
  const int src = pending.msg->env().srcPe;
  const int dst = pending.msg->env().dstPe;
  if (!runtime_.peAlive(dst)) {
    // The receiver died after granting its landing buffer: its regions are
    // invalid, so posting would fail the rkey check. Leave the send pending;
    // the restart protocol clears it and the rollback re-sends the message.
    return;
  }
  const std::span<std::byte> wire = pending.msg->wireMutable();
  ib::IbVerbs::RdmaWrite write;
  write.qp = verbs_.connect(src, dst);
  write.local_addr = wire.data();
  write.local_region = pending.localRegion;
  write.remote_addr = pending.remoteAddr;
  write.remote_region = pending.remoteRegion;
  write.bytes = wire.size();
  // The message image stays registered and unchanged until maybeRetireSend,
  // which waits for the delivery too: the write may read it in place.
  write.source_pinned = true;
  write.on_local_complete = [this, seq]() {
    const auto pit = pendingSends_.find(seq);
    CKD_REQUIRE(pit != pendingSends_.end(), "completion for unknown send");
    pit->second.localDone = true;
    maybeRetireSend(seq);
  };
  write.on_remote_delivered = [this, seq]() { onRdmaDelivered(seq); };
  write.trace_id = pending.msg->env().traceId;
  if (reliableActive())
    write.on_error = [this, seq](fault::WcStatus status) {
      onRdmaError(seq, status);
    };
  verbs_.postRdmaWrite(std::move(write));
}

void IbTransport::onRdmaError(std::uint64_t seq, fault::WcStatus /*status*/) {
  const auto it = pendingSends_.find(seq);
  if (it == pendingSends_.end()) return;  // flushed duplicate of a done send
  PendingSend& pending = it->second;
  if (pendingRecvs_.count(seq) == 0) {
    // The payload actually landed and the receiver consumed it; only the
    // acks were lost before the retry budget ran out. A real runtime learns
    // this from the receiver during connection re-establishment. Complete
    // the send locally instead of re-writing into a recycled buffer.
    verbs_.deregisterMemory(pending.localRegion);
    pendingSends_.erase(it);
    return;
  }
  const fault::ReliabilityParams& rel =
      runtime_.fabric().faults()->plan().rel;
  CKD_REQUIRE(pending.attempts < rel.app_retry_budget,
              "rendezvous RDMA write kept failing past the app retry budget");
  ++pending.attempts;
  // Re-establish the QP (fresh PSN) and re-issue the write after the base
  // timeout — modeled on the machine layer reacting to an async QP event.
  verbs_.resetQp(verbs_.connect(pending.msg->env().srcPe,
                                pending.msg->env().dstPe));
  runtime_.engine().after(rel.timeout_us, [this, seq]() {
    if (pendingSends_.count(seq) != 0) postPayloadWrite(seq);
  });
}

void IbTransport::maybeRetireSend(std::uint64_t seq) {
  const auto it = pendingSends_.find(seq);
  if (it == pendingSends_.end()) return;
  if (!it->second.localDone || !it->second.delivered) return;
  verbs_.deregisterMemory(it->second.localRegion);
  pendingSends_.erase(it);
}

void IbTransport::onRdmaDelivered(std::uint64_t seq) {
  const auto it = pendingRecvs_.find(seq);
  CKD_REQUIRE(it != pendingRecvs_.end(), "RDMA delivery for unknown recv");
  PendingRecv recv = std::move(it->second);
  pendingRecvs_.erase(it);
  // The sender side learns nothing from a plain RDMA write landing; this is
  // the simulator's own bookkeeping of when the pinned image was last read.
  const auto sit = pendingSends_.find(seq);
  if (sit != pendingSends_.end()) {
    sit->second.delivered = true;
    maybeRetireSend(seq);
  }
  runtime_.engine().trace().recordSpan(
      runtime_.engine().now(), recv.landing->env().dstPe,
      sim::TraceTag::kXportRdmaDelivered, sim::SpanPhase::kInstant,
      recv.landing->env().traceId, 0,
      static_cast<double>(recv.landing->payloadBytes()));
  verbs_.deregisterMemory(recv.region);
  runtime_.scheduler(recv.landing->env().dstPe).enqueue(std::move(recv.landing));
}

// ---------------------------------------------------------------------------
// Blue Gene/P
// ---------------------------------------------------------------------------

BgpTransport::BgpTransport(Runtime& runtime, dcmf::DcmfContext& dcmf)
    : runtime_(runtime), dcmf_(dcmf) {
  protocol_ = dcmf_.registerProtocol(
      // Short messages (< 224 B): the handler copies the data out itself.
      [this](int myRank, int /*srcRank*/, const dcmf::Info& /*info*/,
             const std::byte* data, std::size_t bytes) {
        MessagePtr msg = Message::fromWire({data, bytes});
        runtime_.scheduler(myRank).enqueue(std::move(msg));
      },
      // Normal messages: land the wire image directly in the message's own
      // buffer (no staging vector, no fromWire copy of bytes we already
      // own); parse the header in place once the payload has landed.
      [this](int myRank, int /*srcRank*/, const dcmf::Info& /*info*/,
             std::size_t bytes) {
        MessagePtr landing = Message::makeLanding(bytes);
        dcmf::RecvSpec spec;
        spec.buffer = landing->wireMutable().data();
        spec.capacity = bytes;
        spec.on_complete = [this, myRank, landing = std::move(landing)]() {
          landing->adoptHeader();
          runtime_.scheduler(myRank).enqueue(landing);
        };
        return spec;
      });
}

dcmf::Request* BgpTransport::acquireRequest() {
  if (!freeRequests_.empty()) {
    dcmf::Request* request = freeRequests_.back();
    freeRequests_.pop_back();
    return request;
  }
  requestPool_.push_back(std::make_unique<dcmf::Request>());
  return requestPool_.back().get();
}

void BgpTransport::releaseRequest(dcmf::Request* request) {
  freeRequests_.push_back(request);
}

void BgpTransport::reset() {
  // Sends flushed by a fail-stop recovery never fire their completions, so
  // their requests would leak from the pool. Reconcile: everything in flight
  // at the crash is dead, so the whole pool is free again.
  freeRequests_.clear();
  for (const std::unique_ptr<dcmf::Request>& request : requestPool_) {
    request->inFlight = false;
    freeRequests_.push_back(request.get());
  }
}

void BgpTransport::send(MessagePtr msg) {
  if (msg->env().sentAt < 0.0) msg->env().sentAt = runtime_.engine().now();
  msg->sealHeader();
  runtime_.engine().trace().recordSpan(
      runtime_.engine().now(), msg->env().srcPe, sim::TraceTag::kXportBgpSend,
      sim::SpanPhase::kBegin, msg->env().traceId, msg->env().parentTraceId,
      static_cast<double>(msg->payloadBytes()));
  post(std::move(msg), 0);
}

void BgpTransport::post(MessagePtr msg, int attempts) {
  dcmf::Request* request = acquireRequest();
  const std::span<const std::byte> wire = msg->wire();
  const int src = msg->env().srcPe;
  const int dst = msg->env().dstPe;
  // `msg` is captured by the completion so the wire bytes outlive the send.
  // The modeled wire size follows the configured envelope size.
  dcmf_.send(protocol_, src, dst, dcmf::Info{}, wire.data(), wire.size(),
             request, [this, request, msg]() { releaseRequest(request); },
             msg->payloadBytes() + runtime_.costs().header_bytes,
             [this, request, msg, attempts, src,
              dst](fault::WcStatus /*status*/) mutable {
               releaseRequest(request);
               const fault::ReliabilityParams& rel =
                   dcmf_.fabric().faults()->plan().rel;
               CKD_REQUIRE(attempts < rel.app_retry_budget,
                           "BGP send kept failing past the app retry budget");
               dcmf_.resetChannel(src, dst);
               runtime_.engine().after(
                   rel.timeout_us, [this, msg, attempts]() mutable {
                     post(std::move(msg), attempts + 1);
                   });
             },
             msg->env().traceId);
}

}  // namespace ckd::charm
