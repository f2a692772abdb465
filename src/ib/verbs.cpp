#include "ib/verbs.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/pool.hpp"
#include "util/require.hpp"

namespace ckd::ib {

namespace {
/// Region keys pack (generation, slot): the low kSlotBits hold the 1-based
/// slot index, the bits above hold the reuse generation. Generation 0 keys
/// are numerically identical to a never-recycling scheme, so fault-free
/// runs see the exact same ids as before slots became reusable.
constexpr std::uint32_t kSlotBits = 20;
constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
constexpr std::uint32_t kGenMask = (~0u) >> kSlotBits;

std::uint32_t packKey(std::size_t slot, std::uint32_t generation) {
  return static_cast<std::uint32_t>((generation & kGenMask) << kSlotBits) |
         (static_cast<std::uint32_t>(slot) + 1);
}
}  // namespace

IbVerbs::IbVerbs(net::Fabric& fabric) : fabric_(fabric) {
  // With faults armed, build the reliable link now: lazy construction from
  // a first post could race across shard threads, and the link's own lock
  // cannot guard its own birth.
  if (reliableActive()) link();
}

fault::ReliableLink& IbVerbs::link() {
  if (!link_)
    link_ = std::make_unique<fault::ReliableLink>(
        fabric_, fabric_.faults()->plan().rel);
  return *link_;
}

RegionId IbVerbs::registerMemory(int pe, void* addr, std::size_t length) {
  CKD_REQUIRE(pe >= 0 && pe < fabric_.numPes(), "PE out of range");
  CKD_REQUIRE(addr != nullptr, "cannot register a null buffer");
  CKD_REQUIRE(length > 0, "cannot register an empty region");
  const std::lock_guard<std::mutex> lock(mu_);
  if (!freeSlots_.empty()) {
    const std::size_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    Region& region = regions_[slot];
    region.pe = pe;
    region.base = static_cast<std::byte*>(addr);
    region.length = length;
    region.valid = true;
    return RegionId{pe, packKey(slot, region.generation)};
  }
  const std::size_t slot = regions_.size();
  CKD_REQUIRE(slot < kSlotMask, "region table full");
  regions_.push_back(Region{pe, static_cast<std::byte*>(addr), length,
                            /*valid=*/true, /*generation=*/0});
  return RegionId{pe, packKey(slot, 0)};
}

const IbVerbs::Region* IbVerbs::findRegion(RegionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return findRegionLocked(id);
}

const IbVerbs::Region* IbVerbs::findRegionLocked(RegionId id) const {
  if (!id.valid()) return nullptr;
  const std::size_t slot = (id.key & kSlotMask) - 1;
  if (slot >= regions_.size()) return nullptr;
  const Region& region = regions_[slot];
  if (!region.valid || region.pe != id.pe) return nullptr;
  if ((region.generation & kGenMask) != (id.key >> kSlotBits)) return nullptr;
  return &region;
}

void IbVerbs::deregisterMemory(RegionId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  CKD_REQUIRE(findRegionLocked(id) != nullptr,
              "deregistering an unknown, stale, or already-freed region");
  const std::size_t slot = (id.key & kSlotMask) - 1;
  Region& region = regions_[slot];
  region.valid = false;
  // Bump the generation so every outstanding copy of this id goes stale,
  // then make the slot reusable.
  ++region.generation;
  freeSlots_.push_back(slot);
}

bool IbVerbs::regionValid(RegionId id) const { return findRegion(id) != nullptr; }

bool IbVerbs::regionCovers(RegionId id, const void* addr,
                           std::size_t length) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Region* region = findRegionLocked(id);
  if (region == nullptr) return false;
  const auto* begin = static_cast<const std::byte*>(addr);
  return begin >= region->base &&
         begin + length <= region->base + region->length;
}

std::size_t IbVerbs::regionCount(int pe) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Region& region : regions_)
    if (region.valid && region.pe == pe) ++n;
  return n;
}

QpId IbVerbs::connect(int localPe, int remotePe) {
  CKD_REQUIRE(localPe >= 0 && localPe < fabric_.numPes(), "PE out of range");
  CKD_REQUIRE(remotePe >= 0 && remotePe < fabric_.numPes(), "PE out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(localPe, remotePe);
  const auto it = qpCache_.find(key);
  if (it != qpCache_.end()) return it->second;
  const QpId id = static_cast<QpId>(qps_.size());
  qps_.push_back(Qp{localPe, remotePe, {}, {}});
  qpCache_.emplace(key, id);
  return id;
}

IbVerbs::Qp& IbVerbs::qpAt(QpId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  CKD_REQUIRE(id >= 0 && id < static_cast<QpId>(qps_.size()), "bad QP");
  return qps_[static_cast<std::size_t>(id)];
}

const IbVerbs::Qp& IbVerbs::qpAt(QpId id) const {
  return const_cast<IbVerbs*>(this)->qpAt(id);
}

int IbVerbs::qpSource(QpId qp) const { return qpAt(qp).src; }

int IbVerbs::qpDestination(QpId qp) const { return qpAt(qp).dst; }

bool IbVerbs::qpInError(QpId qp) const {
  qpAt(qp);  // bounds check
  return link_ != nullptr && link_->channelInError(qp);
}

void IbVerbs::resetQp(QpId qp) {
  qpAt(qp);  // bounds check
  if (link_) link_->resetChannel(qp);
}

void IbVerbs::invalidatePe(int pe) {
  CKD_REQUIRE(pe >= 0 && pe < fabric_.numPes(), "PE out of range");
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t slot = 0; slot < regions_.size(); ++slot) {
    Region& region = regions_[slot];
    if (!region.valid || region.pe != pe) continue;
    region.valid = false;
    ++region.generation;
    freeSlots_.push_back(slot);
  }
}

void IbVerbs::postRdmaWrite(RdmaWrite write) {
  const Qp& qp = qpAt(write.qp);
  CKD_REQUIRE(write.bytes > 0, "zero-length RDMA write");
  CKD_REQUIRE(regionCovers(write.local_region, write.local_addr, write.bytes),
              "local range not covered by the registered region (bad lkey)");
  CKD_REQUIRE(write.remote_region.pe == qp.dst,
              "remote region does not belong to the QP's destination PE");
  CKD_REQUIRE(
      regionCovers(write.remote_region, write.remote_addr, write.bytes),
      "remote range not covered by the registered region (bad rkey)");
  rdmaWrites_.fetch_add(1, std::memory_order_relaxed);

  const auto* src = static_cast<const std::byte*>(write.local_addr);
  auto* dst = static_cast<std::byte*>(write.remote_addr);

  const int chunks = std::max(1, unorderedChunks_);
  if (chunks == 1 && reliableActive()) {
    // Faults armed: the wire may drop/corrupt/duplicate, so RC placement
    // guarantees are carried by the go-back-N link. The payload image rides
    // each transmission; the local completion fires at ack time, like a
    // real RC send CQE. Permanent failure surfaces through on_error.
    fault::ReliableLink::Send send;
    send.src = qp.src;
    send.dst = qp.dst;
    send.wireBytes = write.bytes;
    send.cls = fault::MsgClass::kBulk;
    send.payload.assign(src, src + write.bytes);
    send.on_deliver = [dst, onRemote = std::move(write.on_remote_delivered)](
                          std::vector<std::byte>&& image) mutable {
      std::memcpy(dst, image.data(), image.size());
      if (onRemote) onRemote();
    };
    send.on_acked = std::move(write.on_local_complete);
    send.on_error = std::move(write.on_error);
    send.traceId = write.trace_id;
    link().post(write.qp, std::move(send));
    return;
  }
  if (chunks == 1) {
    // Faithful RC path: all-or-nothing placement at the delivery instant.
    // The local completion fires at the contention-free bound submit()
    // returns; under injection-port contention the delivery comes later. A
    // pinned source stays valid and unchanged until delivery, so the
    // delivery reads it directly: one copy, source to destination. Any
    // other source may be reused from the local completion on, so its bytes
    // are staged in a pooled block now and copied out at delivery.
    net::Fabric::DeliverFn deliver;
    if (write.source_pinned) {
      auto readAtDelivery = [src, dst, bytes = write.bytes,
                             onRemote = std::move(write.on_remote_delivered)]() {
        std::memcpy(dst, src, bytes);
        if (onRemote) onRemote();
      };
      static_assert(
          net::Fabric::DeliverFn::fitsInline<decltype(readAtDelivery)>(),
          "the pinned RDMA delivery closure must not spill to the heap");
      deliver = std::move(readAtDelivery);
    } else {
      util::PooledBuffer payload(write.bytes);
      std::memcpy(payload.data(), src, write.bytes);
      deliver = [dst, payload = std::move(payload),
                 onRemote = std::move(write.on_remote_delivered)]() {
        std::memcpy(dst, payload.data(), payload.size());
        if (onRemote) onRemote();
      };
    }
    const sim::Time bound =
        fabric_.submit(qp.src, qp.dst, write.bytes, net::XferKind::kRdma,
                       std::move(deliver), write.trace_id);
    if (write.on_local_complete)
      fabric_.engine().at(bound, std::move(write.on_local_complete));
    return;
  }

  // Ablation mode: deliberately violate in-order delivery by injecting the
  // *tail* chunk first. The sentinel (last 8 bytes) then lands before the
  // head of the message — exactly the failure RC ordering prevents. (This
  // mode stays on the raw fabric even with faults armed; it exists to model
  // an unreliable transport in the first place.)
  const std::size_t chunkSize =
      (write.bytes + static_cast<std::size_t>(chunks) - 1) /
      static_cast<std::size_t>(chunks);
  sim::Time lastDelivery = 0.0;
  for (int c = chunks - 1; c >= 0; --c) {
    const std::size_t offset = static_cast<std::size_t>(c) * chunkSize;
    if (offset >= write.bytes) continue;
    const std::size_t len = std::min(chunkSize, write.bytes - offset);
    std::vector<std::byte> payload(src + offset, src + offset + len);
    const bool isTail = (offset + len == write.bytes);
    auto onRemote = isTail ? write.on_remote_delivered : std::function<void()>{};
    lastDelivery = fabric_.submit(
        qp.src, qp.dst, len, net::XferKind::kRdma,
        [out = dst + offset, payload = std::move(payload),
         onRemote = std::move(onRemote)]() mutable {
          std::memcpy(out, payload.data(), payload.size());
          if (onRemote) onRemote();
        },
        write.trace_id);
  }
  if (write.on_local_complete)
    fabric_.engine().at(lastDelivery, std::move(write.on_local_complete));
}

void IbVerbs::postSend(QpId qpId, const void* data, std::size_t bytes,
                       std::function<void()> on_local_complete,
                       std::uint64_t trace_id) {
  CKD_REQUIRE(data != nullptr || bytes == 0, "null send payload");
  sends_.fetch_add(1, std::memory_order_relaxed);
  Qp& qp = qpAt(qpId);
  const auto* src = static_cast<const std::byte*>(data);
  std::vector<std::byte> payload(src, src + bytes);
  if (reliableActive()) {
    fault::ReliableLink::Send send;
    send.src = qp.src;
    send.dst = qp.dst;
    send.wireBytes = bytes;
    send.cls = fault::MsgClass::kPacket;
    send.payload = std::move(payload);
    send.on_deliver = [this, qpId](std::vector<std::byte>&& image) {
      deliverSend(qpAt(qpId), std::move(image));
    };
    send.on_acked = std::move(on_local_complete);
    send.traceId = trace_id;
    link().post(qpId, std::move(send));
    return;
  }
  const sim::Time delivered = fabric_.submit(
      qp.src, qp.dst, bytes, net::XferKind::kPacket,
      [this, qpId, payload = std::move(payload)]() mutable {
        deliverSend(qpAt(qpId), std::move(payload));
      },
      trace_id);
  if (on_local_complete)
    fabric_.engine().at(delivered, std::move(on_local_complete));
}

void IbVerbs::deliverSend(Qp& qp, std::vector<std::byte> data) {
  if (qp.recvQueue.empty()) {
    // No receive posted: a real RC QP would RNR-NAK and retry; the model
    // parks the payload until the next postRecv.
    qp.unexpected.push_back(PendingArrival{std::move(data)});
    return;
  }
  PostedRecv recv = std::move(qp.recvQueue.front());
  qp.recvQueue.pop_front();
  CKD_REQUIRE(data.size() <= recv.capacity,
              "arrived message larger than the posted receive buffer");
  std::memcpy(recv.buffer, data.data(), data.size());
  if (recv.on_receive) recv.on_receive(data.size());
}

void IbVerbs::postRecv(QpId qpId, void* buffer, std::size_t capacity,
                       std::function<void(std::size_t)> on_receive) {
  CKD_REQUIRE(buffer != nullptr, "null receive buffer");
  Qp& qp = qpAt(qpId);
  if (!qp.unexpected.empty()) {
    PendingArrival arrival = std::move(qp.unexpected.front());
    qp.unexpected.pop_front();
    CKD_REQUIRE(arrival.data.size() <= capacity,
                "arrived message larger than the posted receive buffer");
    std::memcpy(buffer, arrival.data.data(), arrival.data.size());
    if (on_receive) on_receive(arrival.data.size());
    return;
  }
  qp.recvQueue.push_back(
      PostedRecv{static_cast<std::byte*>(buffer), capacity, std::move(on_receive)});
}

std::size_t IbVerbs::postedRecvCount(QpId qpId) const {
  return qpAt(qpId).recvQueue.size();
}

}  // namespace ckd::ib
