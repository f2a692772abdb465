#pragma once
// Fabric: the timing model that turns "PE s sends B bytes to PE d" into a
// delivery event on the simulation engine.
//
// Resource model:
//  * Each *node* has one injection port and one ejection port (the NIC /
//    torus router FIFO). Messages from co-located PEs serialize through the
//    shared injection port — this reproduces the paper's observation that
//    8-way multicore nodes with a single InfiniBand HCA become
//    bandwidth-limited.
//  * The injection port is a round-robin packet server: concurrent bulk
//    messages interleave at chunk granularity, like a DMA engine
//    round-robining across pending descriptors. A solo message still
//    serializes in exactly serialization(bytes), so single-stream
//    calibration is unaffected, but completion order under contention is
//    fair instead of whole-message FIFO.
//  * Messages that fit in one wire packet, and control-class messages
//    (rendezvous handshakes, PSCW tokens), pay serialization as latency but
//    skip port occupancy entirely.
//  * Intra-node messages cost a memcpy (intra alpha + per-byte); same-PE
//    messages a cheaper in-process memcpy. Neither touches the ports.
//
// The fabric moves no bytes itself; the layers above (src/ib, src/dcmf)
// perform the actual memory writes when the delivery callback fires.
//
// Fault injection: installFaults() arms a fault::FaultInjector, after which
// every inter-node submit consults it and may be dropped, delayed,
// duplicated, or delivered corrupted. The fabric implements
// fault::WireSender, so fault::ReliableLink (the go-back-N layer the verbs /
// DCMF stacks use to survive the injector) transmits through the same ports
// as everything else. With no plan installed the injector pointer stays
// null and every path below is taken verbatim.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "fault/reliable.hpp"
#include "net/cost_params.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "topo/topology.hpp"
#include "util/inplace_fn.hpp"

namespace ckd::net {

class Fabric : public fault::WireSender {
 public:
  /// Delivery closure. Inline capacity covers the layers' usual captures
  /// (`this` + a MessagePtr or a few scalars); larger ones heap-allocate.
  using DeliverFn = util::InplaceFunction<void(), 64>;

  Fabric(sim::Engine& engine, topo::TopologyPtr topology, CostParams params);

  /// Route all scheduling through a sharded engine: source-side events land
  /// on the calling context's shard, cross-node deliveries ride the
  /// destination shard's ring (canonically ordered — see parallel.hpp).
  /// The shard partition must be node-aligned so that injection-port state,
  /// intra-node transfers, and self-sends stay shard-local.
  void attachParallel(sim::ParallelEngine* parallel) { parallel_ = parallel; }

  /// Engine of the calling execution context (the attached shard engine in
  /// parallel mode, the constructor engine otherwise). Timing reads and
  /// source-side scheduling go through this.
  sim::Engine& engine();
  const topo::Topology& topology() const { return *topology_; }
  const CostParams& params() const { return params_; }
  int numPes() const { return topology_->numPes(); }

  /// Submit a transfer. `onDeliver` runs at the (returned) delivery time.
  /// Returns the modeled delivery time. `traceId` (when nonzero) stamps the
  /// fabric.submit / fabric.deliver trace points with the transfer's causal
  /// chain id.
  sim::Time submit(int srcPe, int dstPe, std::size_t bytes, XferKind kind,
                   DeliverFn onDeliver, std::uint64_t traceId = 0);

  /// Same, with a caller-provided serialization class (protocol stacks such
  /// as the mini-MPI flavors bring their own per-byte/per-packet costs).
  /// `occupiesPorts` == false gives control-message semantics.
  sim::Time submitCustom(int srcPe, int dstPe, std::size_t bytes,
                         const XferClass& cls, bool occupiesPorts,
                         DeliverFn onDeliver, std::uint64_t traceId = 0);

  /// Arm fault injection for this fabric. Call at most once, before traffic
  /// flows; a plan that is not armed() installs nothing (zero overhead).
  void installFaults(const fault::FaultPlan& plan, std::uint64_t seed);

  /// Pick up a topology that grew (elastic scale-out): extend the per-node
  /// injection/ejection port state for the new nodes. Serial-phase only —
  /// no transfer may be in flight to/from a node that does not yet have
  /// port state.
  void growTopology();

  // fault::WireSender: the transmit surface fault::ReliableLink runs over.
  sim::Time sendWire(int srcPe, int dstPe, std::size_t wireBytes,
                     fault::MsgClass cls,
                     fault::WireSender::DeliverFn onDeliver,
                     std::uint64_t traceId = 0) override;
  sim::Engine& wireEngine() override { return engine(); }
  fault::FaultInjector* faults() override { return injector_.get(); }

  /// Bulk messages currently queued or in service at a node's injection
  /// port (for tests/benches).
  std::size_t injectQueueLength(int node) const;
  sim::Time ejectFreeAt(int node) const;

  /// Visit every engine of the machine: the construction engine, then —
  /// when attached to a sharded engine, whose serial engine it is — each
  /// shard's engine in shard order.
  template <class F>
  void forEachEngine(F&& fn) const {
    fn(engine_);
    if (parallel_ == nullptr) return;
    for (int s = 0; s < parallel_->shards(); ++s) fn(parallel_->shardEngine(s));
  }

  /// Always-on trace-tag count summed over every engine. This is the one
  /// count of a tagged event: the subsystems' event counters read it.
  std::uint64_t tagCount(sim::TraceTag tag) const {
    std::uint64_t n = 0;
    forEachEngine(
        [&n, tag](const sim::Engine& eng) { n += eng.trace().count(tag); });
    return n;
  }

  std::uint64_t messagesSubmitted() const {
    return tagCount(sim::TraceTag::kFabricSubmit);
  }
  std::uint64_t bytesSubmitted() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Flow {
    sim::Time chunk_ser = 0.0;
    int chunks_left = 0;
    std::function<void()> on_serialized;
  };
  struct Port {
    std::deque<Flow> queue;
    int busyServers = 0;
  };

  /// Common submit path; all public entry points funnel through here so the
  /// fault hooks see every wire message.
  sim::Time submitEx(int srcPe, int dstPe, std::size_t bytes,
                     const XferClass& cls, bool occupiesPorts,
                     fault::MsgClass msgClass,
                     fault::WireSender::DeliverFn onDeliver,
                     std::uint64_t traceId);
  void pumpInject(std::size_t node);
  /// Schedule a cross-node arrival on the destination PE's engine: directly
  /// in single-engine mode, through the destination shard's ring in parallel
  /// mode (srcPe is the canonical ordering key).
  void scheduleArrival(int dstPe, int srcPe, sim::Time when,
                       sim::Engine::Action action);

  sim::Engine& engine_;
  sim::ParallelEngine* parallel_ = nullptr;
  topo::TopologyPtr topology_;
  CostParams params_;
  std::vector<Port> inject_;
  std::vector<sim::Time> ejectFree_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace ckd::net
