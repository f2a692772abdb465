#pragma once
// A verbs-like InfiniBand layer over the simulated fabric.
//
// Modeled subset (what Charm++'s IB machine layer and CkDirect need):
//  * memory registration — RDMA operations validate that both the local and
//    remote ranges fall inside registered regions, like a real HCA checking
//    lkey/rkey; deregistered slots are recycled with a bumped generation so
//    stale region ids can never alias a later registration;
//  * Reliable Connection queue pairs — per-QP in-order, exactly-once
//    delivery ("if the last byte has been received ... the rest of the
//    message has also been received", §2.1);
//  * RDMA WRITE — one-sided; the payload is *really* copied into the target
//    buffer at the modeled delivery time (straight from the source buffer
//    when the caller pins it, see RdmaWrite::source_pinned; from a staging
//    image taken at post time otherwise), and no receive-side completion is
//    generated (matching hardware: the receiver must discover the data by
//    inspecting memory — which is exactly CkDirect's sentinel poll). The
//    simulator-only `on_remote_delivered` hook exists so the runtime can
//    model "the poll loop would notice shortly after this instant".
//  * SEND/RECV — two-sided with posted receive buffers (used by the default
//    Charm++ transport's eager path).
//
// When the fabric has a fault injector installed, the RC guarantee is no
// longer free: every RDMA write and send is carried by a
// fault::ReliableLink (sequence numbers, a modeled link CRC, ack/retransmit
// with exponential backoff, IB-style retry budget), local completions fire at
// ack time, and a permanently failed QP surfaces WC_RETRY_EXC-style error
// completions through RdmaWrite::on_error. resetQp() re-establishes a
// failed connection (fresh PSN) so the layers above can retry.
//
// For the ordering ablation (DESIGN.md §5.4) the layer can be switched into
// an intentionally unfaithful mode that splits RDMA writes into chunks
// delivered tail-first, demonstrating why the sentinel technique requires
// RC in-order semantics.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/reliable.hpp"
#include "net/fabric.hpp"

namespace ckd::ib {

/// Identifies a registered memory region (pe + key, like an rkey). The key
/// encodes a slot index and a reuse generation; a stale id (deregistered,
/// slot since recycled) never validates.
struct RegionId {
  int pe = -1;
  std::uint32_t key = 0;

  bool valid() const { return pe >= 0 && key != 0; }
  friend bool operator==(const RegionId&, const RegionId&) = default;
};

using QpId = int;
constexpr QpId kInvalidQp = -1;

class IbVerbs {
 public:
  explicit IbVerbs(net::Fabric& fabric);

  net::Fabric& fabric() { return fabric_; }
  sim::Engine& engine() { return fabric_.engine(); }

  // --- memory registration -------------------------------------------------

  /// Pin [addr, addr+length) for PE `pe`. Returns the region id the remote
  /// side must present for RDMA access.
  RegionId registerMemory(int pe, void* addr, std::size_t length);
  /// Release a region. The slot becomes reusable by a later registerMemory;
  /// the released id (and any stale copy of it) stops validating. Aborts on
  /// double-free or an unknown id.
  void deregisterMemory(RegionId id);
  bool regionValid(RegionId id) const;
  /// True when [addr, addr+length) lies wholly inside the region.
  bool regionCovers(RegionId id, const void* addr, std::size_t length) const;
  std::size_t regionCount(int pe) const;

  // --- queue pairs ----------------------------------------------------------

  /// Create (or fetch the cached) RC queue pair from `localPe` to
  /// `remotePe`. Connections are directional in this model; a pingpong
  /// needs one QP each way.
  QpId connect(int localPe, int remotePe);
  int qpSource(QpId qp) const;
  int qpDestination(QpId qp) const;

  /// True while the QP sits in the error state (retry budget exhausted,
  /// injected QP failure, or remote-access NAK). Only possible with faults.
  bool qpInError(QpId qp) const;
  /// Tear down and re-establish a failed QP with a fresh PSN. No-op on a
  /// healthy QP. Work posted while in error completes with WcStatus::kQpError.
  void resetQp(QpId qp);

  // --- fail-stop support ----------------------------------------------------

  /// Forcibly flush every reliable flow touching `pe` (the PE died). Pending
  /// work is dropped silently — the restart protocol re-drives it — and
  /// pre-crash copies still on the wire are NAKed as stale on arrival.
  void flushPe(int pe) {
    if (link_) link_->flushPe(pe);
  }
  /// Flush every flow (global rollback to the last checkpoint).
  void flushAll() {
    if (link_) link_->flushAll();
  }
  /// Deregister every region owned by `pe`: a crashed node's pinned pages
  /// are gone, so every outstanding rkey for them must stop validating.
  /// Restored elements re-register through the layers above.
  void invalidatePe(int pe);
  std::uint64_t staleNaks() const { return link_ ? link_->staleNaks() : 0; }

  // --- one-sided ------------------------------------------------------------

  struct RdmaWrite {
    QpId qp = kInvalidQp;
    const void* local_addr = nullptr;
    RegionId local_region;
    void* remote_addr = nullptr;
    RegionId remote_region;
    std::size_t bytes = 0;
    /// The caller keeps [local_addr, local_addr + bytes) valid and unchanged
    /// until on_remote_delivered fires, not merely until on_local_complete.
    /// The fault-free path then reads the source at delivery, like an HCA
    /// DMA-reading a registered buffer, instead of staging a copy at post
    /// time. CkDirect puts pin by the API contract (the sender reuses its
    /// buffer only after the receiver's callback); the rendezvous transport
    /// pins by retiring its send at the later of local completion and
    /// delivery. Writes that reuse the source at local completion (PGAS)
    /// must leave this false. The reliable link and the unordered-chunk
    /// ablation always stage, whatever the flag.
    bool source_pinned = false;
    /// Send-side completion (local buffer reusable unless pinned). Fault-free
    /// it fires at the contention-free delivery bound, which under injection
    /// port contention can come *before* the delivery; under fault injection
    /// it is the ack-confirmed completion, like a real RC send CQE.
    std::function<void()> on_local_complete;
    /// SIMULATOR-ONLY: fires when the payload lands in remote memory. Real
    /// hardware gives no such signal for a plain RDMA WRITE; the runtime
    /// uses it solely to schedule its next poll-scan event.
    std::function<void()> on_remote_delivered;
    /// Error completion (WC_RETRY_EXC / remote-access / QP flush). Only
    /// fires when the fabric has faults armed; a write without a handler
    /// aborts the simulation on permanent failure.
    std::function<void(fault::WcStatus)> on_error;
    /// Causal chain id carried in the work request (a POD, like an IB wr_id)
    /// so the fabric stamps the wire trace points with it; 0 = untraced.
    std::uint64_t trace_id = 0;
  };
  void postRdmaWrite(RdmaWrite write);

  // --- two-sided ------------------------------------------------------------

  void postSend(QpId qp, const void* data, std::size_t bytes,
                std::function<void()> on_local_complete = {},
                std::uint64_t trace_id = 0);
  /// Post a receive buffer; `on_receive(bytes)` fires once a matching send
  /// lands. Receives on a QP are consumed in post order.
  void postRecv(QpId qp, void* buffer, std::size_t capacity,
                std::function<void(std::size_t)> on_receive);

  std::size_t postedRecvCount(QpId qp) const;

  // --- test hooks -----------------------------------------------------------

  /// >1 splits each RDMA write into `chunks` pieces injected tail-first,
  /// breaking the in-order guarantee on purpose (ablation §5.4).
  void setUnorderedChunksForTest(int chunks) { unorderedChunks_ = chunks; }

  std::uint64_t rdmaWritesPosted() const {
    return rdmaWrites_.load(std::memory_order_relaxed);
  }
  std::uint64_t sendsPosted() const {
    return sends_.load(std::memory_order_relaxed);
  }

 private:
  struct Region {
    int pe;
    std::byte* base;
    std::size_t length;
    bool valid;
    std::uint32_t generation;  ///< bumped on deregister; encoded in the key
  };
  struct PostedRecv {
    std::byte* buffer;
    std::size_t capacity;
    std::function<void(std::size_t)> on_receive;
  };
  struct PendingArrival {
    std::vector<std::byte> data;
  };
  struct Qp {
    int src;
    int dst;
    std::deque<PostedRecv> recvQueue;
    std::deque<PendingArrival> unexpected;
  };

  const Region* findRegion(RegionId id) const;
  /// Body of findRegion for callers already holding mu_.
  const Region* findRegionLocked(RegionId id) const;
  /// Bounds-checked element lookup under mu_. The returned reference stays
  /// valid after the lock drops: the tables are deques, which never move
  /// elements on append.
  Qp& qpAt(QpId id);
  const Qp& qpAt(QpId id) const;
  void deliverSend(Qp& qp, std::vector<std::byte> data);
  /// Faults armed on the fabric: RC semantics must be earned by the link.
  bool reliableActive() { return fabric_.faults() != nullptr; }
  fault::ReliableLink& link();

  net::Fabric& fabric_;
  /// Guards the table *structure* below (region slots, QP directory, the
  /// connect cache): under --shards, registerMemory/connect run on the
  /// issuing PE's shard thread, concurrently with lookups from other
  /// shards. Element state (a QP's receive queues, a valid region's
  /// base/length) is still single-owner: only the receiver context touches
  /// it, and cross-shard handoff of an id crosses a window barrier.
  mutable std::mutex mu_;
  std::deque<Region> regions_;
  std::vector<std::size_t> freeSlots_;  ///< recycled region slots
  std::deque<Qp> qps_;
  std::map<std::pair<int, int>, QpId> qpCache_;
  std::unique_ptr<fault::ReliableLink> link_;  ///< lazy; only with faults
  int unorderedChunks_ = 1;
  /// Posts run on the issuing PE's shard thread; host-stat counters are the
  /// only state they share across shards.
  std::atomic<std::uint64_t> rdmaWrites_{0};
  std::atomic<std::uint64_t> sends_{0};
};

}  // namespace ckd::ib
