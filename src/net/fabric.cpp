#include "net/fabric.hpp"

#include <algorithm>
#include <utility>

#include "sim/parallel.hpp"
#include "util/require.hpp"

namespace ckd::net {

namespace {
/// Round-robin service granularity of the injection port. One MTU where the
/// class defines packets; a 2 KB descriptor slice otherwise (RDMA engines).
std::size_t chunkBytesFor(const XferClass& cls) {
  return std::max<std::size_t>(cls.mtu_bytes ? cls.mtu_bytes : 0, 2048);
}
}  // namespace

Fabric::Fabric(sim::Engine& engine, topo::TopologyPtr topology,
               CostParams params)
    : engine_(engine), topology_(std::move(topology)), params_(std::move(params)) {
  CKD_REQUIRE(topology_ != nullptr, "Fabric requires a topology");
  inject_.resize(static_cast<std::size_t>(topology_->numNodes()));
  ejectFree_.assign(static_cast<std::size_t>(topology_->numNodes()), 0.0);
}

sim::Engine& Fabric::engine() {
  return parallel_ != nullptr ? parallel_->current() : engine_;
}

void Fabric::growTopology() {
  const auto nodes = static_cast<std::size_t>(topology_->numNodes());
  CKD_REQUIRE(nodes >= inject_.size(), "topology shrank under the fabric");
  inject_.resize(nodes);
  ejectFree_.resize(nodes, 0.0);
}

void Fabric::scheduleArrival(int dstPe, int srcPe, sim::Time when,
                             sim::Engine::Action action) {
  if (parallel_ != nullptr) {
    parallel_->atRemote(dstPe, srcPe, when, std::move(action));
    return;
  }
  engine_.at(when, std::move(action));
}

void Fabric::installFaults(const fault::FaultPlan& plan, std::uint64_t seed) {
  CKD_REQUIRE(injector_ == nullptr, "fault plan already installed");
  if (!plan.armed()) return;  // unarmed plan: keep the null-injector fast path
  injector_ =
      std::make_unique<fault::FaultInjector>(plan, seed, engine_.trace());
}

sim::Time Fabric::submit(int srcPe, int dstPe, std::size_t bytes,
                         XferKind kind, DeliverFn onDeliver,
                         std::uint64_t traceId) {
  const fault::MsgClass msgClass =
      kind == XferKind::kControl ? fault::MsgClass::kControl
      : kind == XferKind::kRdma  ? fault::MsgClass::kBulk
                                 : fault::MsgClass::kPacket;
  return submitEx(srcPe, dstPe, bytes, params_.classFor(kind),
                  /*occupiesPorts=*/kind != XferKind::kControl, msgClass,
                  [onDeliver = std::move(onDeliver)](
                      const fault::WireSender::Delivery&) { onDeliver(); },
                  traceId);
}

sim::Time Fabric::submitCustom(int srcPe, int dstPe, std::size_t bytes,
                               const XferClass& cls, bool occupiesPorts,
                               DeliverFn onDeliver, std::uint64_t traceId) {
  // Infer the fault-matching class from how the message uses the ports.
  const fault::MsgClass msgClass =
      !occupiesPorts               ? fault::MsgClass::kControl
      : bytes <= chunkBytesFor(cls) ? fault::MsgClass::kPacket
                                    : fault::MsgClass::kBulk;
  return submitEx(srcPe, dstPe, bytes, cls, occupiesPorts, msgClass,
                  [onDeliver = std::move(onDeliver)](
                      const fault::WireSender::Delivery&) { onDeliver(); },
                  traceId);
}

sim::Time Fabric::sendWire(int srcPe, int dstPe, std::size_t wireBytes,
                           fault::MsgClass cls,
                           fault::WireSender::DeliverFn onDeliver,
                           std::uint64_t traceId) {
  switch (cls) {
    case fault::MsgClass::kBulk:
      return submitEx(srcPe, dstPe, wireBytes, params_.classFor(XferKind::kRdma),
                      /*occupiesPorts=*/true, cls, std::move(onDeliver),
                      traceId);
    case fault::MsgClass::kControl:
      return submitEx(srcPe, dstPe, wireBytes,
                      params_.classFor(XferKind::kControl),
                      /*occupiesPorts=*/false, cls, std::move(onDeliver),
                      traceId);
    default:
      return submitEx(srcPe, dstPe, wireBytes,
                      params_.classFor(XferKind::kPacket),
                      /*occupiesPorts=*/true, fault::MsgClass::kPacket,
                      std::move(onDeliver), traceId);
  }
}

sim::Time Fabric::submitEx(int srcPe, int dstPe, std::size_t bytes,
                           const XferClass& cls, bool occupiesPorts,
                           fault::MsgClass msgClass,
                           fault::WireSender::DeliverFn onDeliver,
                           std::uint64_t traceId) {
  CKD_REQUIRE(srcPe >= 0 && srcPe < numPes(), "source PE out of range");
  CKD_REQUIRE(dstPe >= 0 && dstPe < numPes(), "destination PE out of range");
  CKD_REQUIRE(onDeliver != nullptr, "transfer needs a delivery callback");

  bytes_.fetch_add(bytes, std::memory_order_relaxed);

  // The calling execution context: the submitting PE's shard engine in
  // parallel mode, the single engine otherwise. Source-side events (port
  // chunks, self/intra-node deliveries — shard-local by the node-aligned
  // partition) schedule here; cross-node arrivals go via scheduleArrival.
  sim::Engine& eng = engine();
  const sim::Time now = eng.now();
  const int srcNode = topology_->nodeOf(srcPe);
  const int dstNode = topology_->nodeOf(dstPe);

  // Faults model the wire: self-sends and intra-node memcpys never traverse
  // it and are exempt. The decision draws from the injector RNG in rule
  // order, so the schedule is a pure function of (seed, plan, event order).
  fault::WireFault wf;
  if (injector_ != nullptr && injector_->armed() && srcNode != dstNode)
    wf = injector_->decideWire(now, srcPe, dstPe, bytes, msgClass);

  sim::TraceRecorder& trace = eng.trace();
  trace.recordSpan(now, srcPe, sim::TraceTag::kFabricSubmit,
                   sim::SpanPhase::kInstant, traceId, 0,
                   static_cast<double>(bytes));
  // Stamp the delivery side too, so trace dumps show both ends of a wire.
  // Kept as a raw lambda so the engine constructs the composite — user
  // closure + reliability wrap + this stamp — directly in its event slot.
  // engine() inside resolves to the destination context at delivery time.
  // Capture order packs dstPe and corrupted into one word ahead of the
  // 16-byte-aligned onDeliver, so the closure fits sim::InplaceAction.
  auto deliver = [this, bytes, traceId, dstPe, corrupted = wf.corrupt,
                  onDeliver = std::move(onDeliver)]() mutable {
    sim::Engine& dstEng = engine();
    dstEng.trace().recordSpan(dstEng.now(), dstPe,
                              sim::TraceTag::kFabricDeliver,
                              sim::SpanPhase::kInstant, traceId, 0,
                              static_cast<double>(bytes));
    onDeliver(fault::WireSender::Delivery{corrupted});
  };
  static_assert(sim::InplaceAction::fitsInline<decltype(deliver)>(),
                "the fabric delivery closure must not spill to the heap");

  if (srcPe == dstPe) {
    // Self-send: the machine layer short-circuits into a memcpy.
    const sim::Time when = now + params_.self_alpha_us +
                           params_.self_per_byte_us * static_cast<double>(bytes);
    trace.addLayerTime(sim::Layer::kFabric, when - now);
    eng.at(when, std::move(deliver));
    return when;
  }

  if (srcNode == dstNode) {
    const sim::Time when = now + params_.intra_alpha_us +
                           params_.intra_per_byte_us * static_cast<double>(bytes);
    trace.addLayerTime(sim::Layer::kFabric, when - now);
    eng.at(when, std::move(deliver));
    return when;
  }

  const sim::Time wireLatency = cls.alpha_us +
                                params_.per_hop_us * topology_->hops(srcPe, dstPe) +
                                wf.extra_delay_us;
  const sim::Time ser = cls.serialization(bytes);

  // Messages that fit in one wire packet interleave into the injection
  // FIFO's packet stream without meaningfully occupying it (real NIC/torus
  // DMA engines round-robin packets across pending descriptors). They pay
  // their serialization as latency only. Without this, a 100-byte barrier
  // token submitted one microsecond after a 64 KB halo face would stall for
  // the whole face.
  const std::size_t chunkBytes = chunkBytesFor(cls);
  if (!occupiesPorts || bytes <= chunkBytes) {
    const sim::Time when = now + wireLatency + ser;
    if (wf.drop) return when;  // lost on the wire: nothing ever arrives
    trace.addLayerTime(sim::Layer::kFabric, when - now);
    if (wf.duplicate) {
      // Ghost copy arrives a beat later (the action copy clones the closure,
      // including any captured payload image).
      auto ghost = deliver;
      scheduleArrival(dstPe, srcPe, when + std::max<sim::Time>(0.1, cls.alpha_us),
                      std::move(ghost));
    }
    scheduleArrival(dstPe, srcPe, when, std::move(deliver));
    return when;
  }

  if (wf.drop) return now + ser + wireLatency;

  if (wf.duplicate) {
    // The ghost copy of a bulk message skips the injection port (the
    // duplication happens inside the network, past the NIC) and lands a
    // beat after the contention-free arrival estimate.
    auto ghost = deliver;
    scheduleArrival(
        dstPe, srcPe,
        now + ser + wireLatency + std::max<sim::Time>(0.1, cls.alpha_us),
        std::move(ghost));
  }

  // Bulk path: round-robin chunks through the source node's injection
  // port; once fully serialized, cut-through arrival contends for the
  // destination node's ejection bandwidth. The ejection accounting is
  // destination-node state, so it runs in a destination-side event at the
  // cut-through arrival instant — never from the sender's context.
  const int chunks =
      static_cast<int>((bytes + chunkBytes - 1) / chunkBytes);
  Flow flow;
  flow.chunk_ser = ser / chunks;
  flow.chunks_left = chunks;
  const sim::Time flowStart = now;
  // Contention-free wire time is known now; the extra queueing delay is
  // attributed when the ejection event resolves the true delivery time.
  trace.addLayerTime(sim::Layer::kFabric, ser + wireLatency);
  flow.on_serialized = [this, srcPe, dstPe, dstNode, wireLatency, ser,
                        flowStart, onDeliver = std::move(deliver)]() mutable {
    const sim::Time arrival = engine().now() + wireLatency;
    auto eject = [this, dstNode, wireLatency, ser, flowStart,
                  onDeliver = std::move(onDeliver)]() mutable {
      // Egress capacity as a virtual-time accumulator: the drain window of a
      // cut-through flow begins when the flow started arriving (its
      // injection start), not when its tail lands. Balanced traffic (every
      // node both sending and receiving at link rate) therefore pays no
      // ejection penalty, while genuine incast — many sources converging on
      // one node, as in the OpenAtom PairCalculator gather — serializes at
      // the destination's aggregate link rate.
      sim::Engine& dstEng = engine();
      auto& free = ejectFree_[static_cast<std::size_t>(dstNode)];
      const sim::Time drain = ser / params_.eject_links;
      free = std::max(free, flowStart) + drain;
      const sim::Time delivery = std::max(dstEng.now(), free);
      // Queueing beyond the contention-free bound charged at submit time.
      dstEng.trace().addLayerTime(sim::Layer::kFabric,
                                  delivery - (flowStart + ser + wireLatency));
      dstEng.at(delivery, std::move(onDeliver));
    };
    scheduleArrival(dstPe, srcPe, arrival, std::move(eject));
  };
  inject_[static_cast<std::size_t>(srcNode)].queue.push_back(std::move(flow));
  pumpInject(static_cast<std::size_t>(srcNode));

  // The exact delivery instant is only known once the port drains; report
  // the contention-free lower bound.
  return now + ser + wireLatency;
}

void Fabric::pumpInject(std::size_t node) {
  Port& port = inject_[node];
  while (port.busyServers < params_.inject_links && !port.queue.empty()) {
    ++port.busyServers;
    Flow flow = std::move(port.queue.front());
    port.queue.pop_front();
    const sim::Time chunk = flow.chunk_ser;
    // Chunk completions stay on the submitting context's engine: a node's
    // port state is only ever touched from its own shard (node-aligned
    // partition) or from the serial phase.
    engine().after(chunk, [this, node, flow = std::move(flow)]() mutable {
      Port& p = inject_[node];
      --p.busyServers;
      if (--flow.chunks_left == 0) {
        flow.on_serialized();
      } else {
        p.queue.push_back(std::move(flow));  // round-robin re-queue
      }
      pumpInject(node);
    });
  }
}

std::size_t Fabric::injectQueueLength(int node) const {
  CKD_REQUIRE(node >= 0 && node < topology_->numNodes(), "node out of range");
  const Port& port = inject_[static_cast<std::size_t>(node)];
  return port.queue.size() + static_cast<std::size_t>(port.busyServers);
}

sim::Time Fabric::ejectFreeAt(int node) const {
  CKD_REQUIRE(node >= 0 && node < topology_->numNodes(), "node out of range");
  return ejectFree_[static_cast<std::size_t>(node)];
}

}  // namespace ckd::net
