#include "mpi/mini_mpi.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/trace.hpp"
#include "util/require.hpp"

namespace ckd::mpi {

namespace {
constexpr std::size_t kControlBytes = 16;
}

MiniMpi::MiniMpi(net::Fabric& fabric, MpiCosts costs)
    : fabric_(fabric), costs_(std::move(costs)) {
  ranks_.resize(static_cast<std::size_t>(fabric_.numPes()));
}

MiniMpi::RankState& MiniMpi::rank(int r) {
  CKD_REQUIRE(r >= 0 && r < numRanks(), "rank out of range");
  return ranks_[static_cast<std::size_t>(r)];
}

MiniMpi::Window& MiniMpi::window(WinId win) {
  CKD_REQUIRE(win >= 0 && win < static_cast<WinId>(windows_.size()),
              "unknown window");
  return windows_[static_cast<std::size_t>(win)];
}

void MiniMpi::armReliability(const fault::ReliabilityParams& rel) {
  CKD_REQUIRE(link_ == nullptr, "MiniMpi reliability armed twice");
  link_ = std::make_unique<fault::ReliableLink>(fabric_, rel);
}

void MiniMpi::shipData(int src, int dst, const net::XferClass& cls,
                       bool occupiesPorts, fault::MsgClass mcls,
                       std::vector<std::byte> payload,
                       std::function<void(std::vector<std::byte>&&)> onDeliver,
                       std::uint64_t traceId) {
  if (link_ != nullptr) {
    fault::ReliableLink::Send send;
    send.src = src;
    send.dst = dst;
    send.wireBytes = payload.size();
    send.cls = mcls;
    send.payload = std::move(payload);
    send.on_deliver = std::move(onDeliver);
    send.traceId = traceId;
    link_->post(pairChannel(src, dst), std::move(send));
    return;
  }
  const std::size_t n = payload.size();
  fabric_.submitCustom(src, dst, n, cls, occupiesPorts,
                       [payload = std::move(payload),
                        onDeliver = std::move(onDeliver)]() mutable {
                         onDeliver(std::move(payload));
                       },
                       traceId);
}

void MiniMpi::sendControl(int src, int dst, std::function<void()> onArrive) {
  if (link_ != nullptr) {
    fault::ReliableLink::Send send;
    send.src = src;
    send.dst = dst;
    send.wireBytes = kControlBytes;
    send.cls = fault::MsgClass::kControl;
    send.on_deliver = [fn = std::move(onArrive)](std::vector<std::byte>&&) {
      if (fn) fn();
    };
    link_->post(pairChannel(src, dst), std::move(send));
    return;
  }
  fabric_.submitCustom(src, dst, kControlBytes, costs_.rdma,
                       /*occupiesPorts=*/false, std::move(onArrive));
}

void MiniMpi::softwareDelay(sim::Time cost, std::function<void()> fn) {
  engine().trace().addLayerTime(sim::Layer::kTransport, cost);
  engine().after(cost, std::move(fn));
}

// --- two-sided ----------------------------------------------------------------

void MiniMpi::isend(int srcRank, int dstRank, int tag, const void* data,
                    std::size_t bytes, std::function<void()> onSent) {
  CKD_REQUIRE(data != nullptr || bytes == 0, "null send payload");
  ++sends_;
  const auto* src = static_cast<const std::byte*>(data);
  std::vector<std::byte> payload(src, src + bytes);

  if (rdmaChannel_) {
    auto& trace = engine().trace();
    const std::uint64_t traceId = trace.mintIdFor(srcRank);
    if (costs_.rdmaEagerFor(bytes)) {
      trace.recordSpan(engine().now(), srcRank, sim::TraceTag::kMpiRdmaEager,
                       sim::SpanPhase::kBegin, traceId, trace.context(),
                       static_cast<double>(bytes), dstRank);
      ConnSend& conn = connSendState(srcRank, dstRank);
      if (conn.credits == 0) {
        trace.recordSpan(engine().now(), srcRank, sim::TraceTag::kMpiRdmaStall,
                         sim::SpanPhase::kInstant, traceId, 0,
                         static_cast<double>(bytes), dstRank);
        conn.stalled.push_back(StalledSend{tag, std::move(payload),
                                           std::move(onSent), traceId});
        return;
      }
      --conn.credits;
      rdmaEagerSendNow(srcRank, dstRank, tag, std::move(payload),
                       std::move(onSent), traceId);
      return;
    }
    // RDMA rendezvous: RTS, CTS with a cached registration, then a write
    // straight into the user buffer.
    trace.recordSpan(engine().now(), srcRank, sim::TraceTag::kMpiRdmaRndv,
                     sim::SpanPhase::kBegin, traceId, trace.context(),
                     static_cast<double>(bytes), dstRank);
    const std::uint64_t id = nextRndvId_++;
    rndvSends_.emplace(id, RndvSend{srcRank, dstRank, std::move(payload),
                                    std::move(onSent), traceId});
    softwareDelay(costs_.sw_send_us,
                  [this, srcRank, dstRank, tag, bytes, id, traceId]() {
                    sendControl(srcRank, dstRank,
                                [this, dstRank, srcRank, tag, bytes, id,
                                 traceId]() {
                                  rtsArrive(dstRank,
                                            PendingRts{srcRank, tag, bytes, id,
                                                       /*rdma=*/true, traceId});
                                });
                  });
    return;
  }

  if (costs_.eagerFor(bytes)) {
    softwareDelay(
        costs_.sw_send_us,
        [this, srcRank, dstRank, tag, payload = std::move(payload),
         onSent = std::move(onSent)]() mutable {
          shipData(srcRank, dstRank, costs_.eager, /*occupiesPorts=*/true,
                   fault::MsgClass::kPacket, std::move(payload),
                   [this, srcRank, dstRank, tag](std::vector<std::byte>&& data) {
                     eagerArrive(dstRank, srcRank, tag, std::move(data));
                   },
                   /*traceId=*/0);
          if (onSent) onSent();
        });
    return;
  }

  // Rendezvous: request-to-send, match at the target, grant, RDMA the data.
  const std::uint64_t id = nextRndvId_++;
  rndvSends_.emplace(id, RndvSend{srcRank, dstRank, std::move(payload),
                                  std::move(onSent)});
  softwareDelay(costs_.sw_send_us, [this, srcRank, dstRank, tag, bytes, id]() {
    sendControl(srcRank, dstRank, [this, dstRank, srcRank, tag, bytes, id]() {
      rtsArrive(dstRank, PendingRts{srcRank, tag, bytes, id});
    });
  });
}

void MiniMpi::eagerArrive(int dst, int src, int tag,
                          std::vector<std::byte> data) {
  RankState& state = rank(dst);
  for (auto it = state.recvs.begin(); it != state.recvs.end(); ++it) {
    if (!matches(it->source, it->tag, src, tag)) continue;
    PostedRecv recv = std::move(*it);
    state.recvs.erase(it);
    CKD_REQUIRE(data.size() <= recv.capacity,
                "eager message larger than the posted receive buffer");
    std::memcpy(recv.buffer, data.data(), data.size());
    const sim::Time extra = costs_.tag_match_us + costs_.sw_recv_us +
                            (costs_.inBump(data.size()) ? costs_.bump_us : 0.0);
    const RecvResult result{src, tag, data.size()};
    softwareDelay(extra, [cb = std::move(recv.callback), result]() {
      if (cb) cb(result);
    });
    return;
  }
  state.unexpected.push_back(UnexpectedMsg{src, tag, std::move(data)});
}

// --- RDMA channel --------------------------------------------------------------

MiniMpi::ConnSend& MiniMpi::connSendState(int src, int dst) {
  auto [it, inserted] = connSend_.try_emplace({src, dst});
  if (inserted) it->second.credits = costs_.rdma_credits;
  return it->second;
}

int MiniMpi::sendCredits(int src, int dst) const {
  auto it = connSend_.find({src, dst});
  return it == connSend_.end() ? costs_.rdma_credits : it->second.credits;
}

int MiniMpi::owedCredits(int src, int dst) const {
  auto it = connOwed_.find({src, dst});
  return it == connOwed_.end() ? 0 : it->second;
}

int MiniMpi::takePiggyback(int src, int dst) {
  auto it = connOwed_.find({dst, src});
  if (it == connOwed_.end() || it->second == 0) return 0;
  const int n = it->second;
  it->second = 0;
  piggybacked_ += static_cast<std::uint64_t>(n);
  return n;
}

void MiniMpi::rdmaEagerSendNow(int src, int dst, int tag,
                               std::vector<std::byte> payload,
                               std::function<void()> onSent,
                               std::uint64_t traceId) {
  const int piggy = takePiggyback(src, dst);
  softwareDelay(
      costs_.sw_send_us,
      [this, src, dst, tag, piggy, traceId, payload = std::move(payload),
       onSent = std::move(onSent)]() mutable {
        shipData(src, dst, costs_.rdma, /*occupiesPorts=*/true,
                 fault::MsgClass::kBulk, std::move(payload),
                 [this, src, dst, tag, piggy,
                  traceId](std::vector<std::byte>&& data) {
                   rdmaEagerArrive(dst, src, tag, std::move(data), piggy,
                                   traceId);
                 },
                 traceId);
        if (onSent) onSent();
      });
}

void MiniMpi::rdmaEagerArrive(int dst, int src, int tag,
                              std::vector<std::byte> data, int piggy,
                              std::uint64_t traceId) {
  if (piggy > 0) creditArrive(dst, src, piggy);
  softwareDelay(
      costs_.rdma_poll_us,
      [this, dst, src, tag, traceId, data = std::move(data)]() mutable {
        RankState& state = rank(dst);
        for (auto it = state.recvs.begin(); it != state.recvs.end(); ++it) {
          if (!matches(it->source, it->tag, src, tag)) continue;
          PostedRecv recv = std::move(*it);
          state.recvs.erase(it);
          CKD_REQUIRE(data.size() <= recv.capacity,
                      "eager message larger than the posted receive buffer");
          std::memcpy(recv.buffer, data.data(), data.size());
          const sim::Time extra =
              costs_.tag_match_us + costs_.sw_recv_us +
              costs_.rdma_copy_per_byte_us * static_cast<double>(data.size());
          const RecvResult result{src, tag, data.size()};
          softwareDelay(extra, [this, dst, traceId,
                                cb = std::move(recv.callback), result]() {
            engine().trace().recordSpan(
                engine().now(), dst, sim::TraceTag::kMpiRdmaRecv,
                sim::SpanPhase::kEnd, traceId, 0,
                static_cast<double>(result.bytes), result.source);
            if (cb) cb(result);
          });
          slotFreed(src, dst);
          return;
        }
        // No posted receive: the payload keeps its persistent slot until a
        // matching irecv copies it out — genuine sender backpressure.
        state.unexpected.push_back(
            UnexpectedMsg{src, tag, std::move(data), /*rdmaSlot=*/true,
                          traceId});
      });
}

void MiniMpi::slotFreed(int src, int dst) {
  int& owed = connOwed_[{src, dst}];
  ++owed;
  // Piggybacking covers the common case; once half the ring is owed and no
  // reverse traffic has reclaimed it, pay for an explicit credit message.
  if (owed * 2 < costs_.rdma_credits) return;
  const int n = owed;
  owed = 0;
  engine().trace().record(engine().now(), dst, sim::TraceTag::kMpiRdmaCredit,
                          static_cast<double>(n));
  sendControl(dst, src, [this, src, dst, n]() { creditArrive(src, dst, n); });
}

void MiniMpi::creditArrive(int sender, int receiver, int n) {
  ConnSend& conn = connSendState(sender, receiver);
  conn.credits += n;
  CKD_REQUIRE(conn.credits <= costs_.rdma_credits,
              "credit return overflows the slot ring");
  drainStalled(sender, receiver);
}

void MiniMpi::drainStalled(int sender, int receiver) {
  ConnSend& conn = connSendState(sender, receiver);
  while (conn.credits > 0 && !conn.stalled.empty()) {
    StalledSend s = std::move(conn.stalled.front());
    conn.stalled.pop_front();
    --conn.credits;
    rdmaEagerSendNow(sender, receiver, s.tag, std::move(s.payload),
                     std::move(s.onSent), s.traceId);
  }
}

void MiniMpi::rtsArrive(int dst, PendingRts rts) {
  RankState& state = rank(dst);
  for (auto it = state.recvs.begin(); it != state.recvs.end(); ++it) {
    if (!matches(it->source, it->tag, rts.source, rts.tag)) continue;
    PostedRecv recv = std::move(*it);
    state.recvs.erase(it);
    grantRndv(dst, rts, std::move(recv));
    return;
  }
  state.rts.push_back(std::move(rts));
}

void MiniMpi::grantRndv(int dst, const PendingRts& rts, PostedRecv recv) {
  CKD_REQUIRE(rts.bytes <= recv.capacity,
              "rendezvous message larger than the posted receive buffer");
  // Registration / buffer preparation at the target, then grant the sender.
  // The RDMA channel's persistent association makes the handshake a
  // registration-cache hit instead of a per-message pin.
  const sim::Time regCost =
      rts.rdma ? costs_.rdma_rndv_base_us
               : costs_.rndv_base_us +
                     costs_.rndv_per_byte_us * static_cast<double>(rts.bytes);
  const std::uint64_t id = rts.id;
  rndvRecvs_.emplace(id, std::move(recv));
  const int source = rts.source;
  const int tag = rts.tag;
  const std::uint64_t traceId = rts.traceId;
  softwareDelay(regCost, [this, dst, source, tag, id, traceId]() {
    sendControl(dst, source, [this, dst, source, tag, id, traceId]() {
      // Grant arrived at the origin: stream the payload on the RDMA class.
      auto sendIt = rndvSends_.find(id);
      CKD_REQUIRE(sendIt != rndvSends_.end(), "grant for unknown send");
      RndvSend send = std::move(sendIt->second);
      rndvSends_.erase(sendIt);
      if (send.onSent) send.onSent();
      shipData(
          source, dst, costs_.rdma, /*occupiesPorts=*/true,
          fault::MsgClass::kBulk, std::move(send.data),
          [this, dst, source, tag, id, traceId](std::vector<std::byte>&& data) {
            auto recvIt = rndvRecvs_.find(id);
            CKD_REQUIRE(recvIt != rndvRecvs_.end(), "data for unknown recv");
            PostedRecv recv = std::move(recvIt->second);
            rndvRecvs_.erase(recvIt);
            std::memcpy(recv.buffer, data.data(), data.size());
            const RecvResult result{source, tag, data.size()};
            softwareDelay(costs_.sw_recv_us,
                           [this, dst, traceId, cb = std::move(recv.callback),
                            result]() {
                             if (traceId != 0) {
                               engine().trace().recordSpan(
                                   engine().now(), dst,
                                   sim::TraceTag::kMpiRdmaRecv,
                                   sim::SpanPhase::kEnd, traceId, 0,
                                   static_cast<double>(result.bytes),
                                   result.source);
                             }
                             if (cb) cb(result);
                           });
          },
          traceId);
    });
  });
}

void MiniMpi::irecv(int rankId, int source, int tag, void* buffer,
                    std::size_t capacity, RecvCallback onComplete) {
  CKD_REQUIRE(buffer != nullptr, "null receive buffer");
  RankState& state = rank(rankId);

  // Unexpected eager messages first (FIFO matching order).
  for (auto it = state.unexpected.begin(); it != state.unexpected.end(); ++it) {
    if (!matches(source, tag, it->source, it->tag)) continue;
    UnexpectedMsg msg = std::move(*it);
    state.unexpected.erase(it);
    CKD_REQUIRE(msg.data.size() <= capacity,
                "unexpected message larger than the receive buffer");
    std::memcpy(buffer, msg.data.data(), msg.data.size());
    const RecvResult result{msg.source, msg.tag, msg.data.size()};
    // An RDMA-channel message still occupies its persistent slot; copying it
    // out pays the per-byte cost and frees the slot (returning a credit).
    const sim::Time extra =
        costs_.tag_match_us +
        (msg.rdmaSlot ? costs_.rdma_copy_per_byte_us *
                            static_cast<double>(msg.data.size())
                      : 0.0);
    const bool fromSlot = msg.rdmaSlot;
    const std::uint64_t traceId = msg.traceId;
    softwareDelay(extra, [this, rankId, fromSlot, traceId,
                          cb = std::move(onComplete), result]() {
      if (fromSlot && traceId != 0) {
        engine().trace().recordSpan(engine().now(), rankId,
                                    sim::TraceTag::kMpiRdmaRecv,
                                    sim::SpanPhase::kEnd, traceId, 0,
                                    static_cast<double>(result.bytes),
                                    result.source);
      }
      if (cb) cb(result);
    });
    if (msg.rdmaSlot) slotFreed(msg.source, rankId);
    return;
  }

  // Parked rendezvous requests next.
  for (auto it = state.rts.begin(); it != state.rts.end(); ++it) {
    if (!matches(source, tag, it->source, it->tag)) continue;
    PendingRts rts = *it;
    state.rts.erase(it);
    grantRndv(rankId, rts,
              PostedRecv{source, tag, static_cast<std::byte*>(buffer),
                         capacity, std::move(onComplete)});
    return;
  }

  state.recvs.push_back(PostedRecv{source, tag, static_cast<std::byte*>(buffer),
                                   capacity, std::move(onComplete)});
}

std::size_t MiniMpi::postedRecvCount(int rankId) const {
  return ranks_[static_cast<std::size_t>(rankId)].recvs.size();
}

std::size_t MiniMpi::unexpectedCount(int rankId) const {
  return ranks_[static_cast<std::size_t>(rankId)].unexpected.size();
}

// --- one-sided -----------------------------------------------------------------

MiniMpi::WinId MiniMpi::createWindow(int rankId, void* base,
                                     std::size_t bytes) {
  CKD_REQUIRE(rankId >= 0 && rankId < numRanks(), "rank out of range");
  CKD_REQUIRE(base != nullptr && bytes > 0, "bad window memory");
  Window win;
  win.rank = rankId;
  win.base = static_cast<std::byte*>(base);
  win.bytes = bytes;
  windows_.push_back(std::move(win));
  return static_cast<WinId>(windows_.size() - 1);
}

void MiniMpi::winPost(WinId winId, const std::vector<int>& origins) {
  Window& win = window(winId);
  CKD_REQUIRE(!origins.empty(), "MPI_Win_post with an empty origin group");
  for (const int origin : origins) {
    CKD_REQUIRE(win.postedOrigins.count(origin) == 0,
                "origin already in an exposure epoch on this window");
    win.postedOrigins.insert(origin);
    win.announced.erase(origin);
    win.arrived[origin] = 0;
    const int target = win.rank;
    sendControl(target, origin, [this, winId, origin]() {
      OriginEpoch& epoch = origins_[{winId, origin}];
      epoch.tokenArrived = true;
      if (epoch.startCallback) {
        epoch.started = true;
        auto cb = std::move(epoch.startCallback);
        epoch.startCallback = nullptr;
        cb();
      }
    });
  }
}

void MiniMpi::winStart(WinId winId, int originRank,
                       std::function<void()> onStarted) {
  OriginEpoch& epoch = origins_[{winId, originRank}];
  CKD_REQUIRE(!epoch.started, "access epoch already started");
  epoch.putsIssued = 0;
  if (epoch.tokenArrived) {
    epoch.started = true;
    if (onStarted) engine().after(0.0, std::move(onStarted));
    return;
  }
  epoch.startCallback = std::move(onStarted);
}

void MiniMpi::put(WinId winId, int originRank, std::size_t targetOffset,
                  const void* data, std::size_t bytes) {
  Window& win = window(winId);
  OriginEpoch& epoch = origins_[{winId, originRank}];
  CKD_REQUIRE(epoch.started,
              "MPI_Put outside a started access epoch (PSCW violation)");
  CKD_REQUIRE(targetOffset + bytes <= win.bytes,
              "MPI_Put writes past the end of the window");
  ++epoch.putsIssued;

  const auto* src = static_cast<const std::byte*>(data);
  std::vector<std::byte> payload(src, src + bytes);
  std::byte* dst = win.base + targetOffset;
  const int target = win.rank;

  auto& trace = engine().trace();
  const std::uint64_t traceId = trace.mintIdFor(originRank);
  trace.recordSpan(engine().now(), originRank, sim::TraceTag::kMpiPut,
                   sim::SpanPhase::kBegin, traceId, trace.context(),
                   static_cast<double>(bytes), target);

  // Half the PSCW software overhead on the origin, half on the target.
  const sim::Time originSw = costs_.sw_send_us + costs_.pscw_overhead_us / 2;

  if (costs_.putEagerFor(bytes)) {
    const sim::Time targetExtra =
        costs_.sw_recv_us + costs_.pscw_overhead_us / 2 +
        (costs_.inBump(bytes) ? costs_.bump_us : 0.0) +
        (costs_.inPutBump(bytes) ? costs_.put_bump_us : 0.0);
    softwareDelay(originSw, [this, originRank, target, dst, winId, traceId,
                             payload = std::move(payload), targetExtra]() mutable {
      const std::size_t n = payload.size();
      fabric_.submitCustom(
          originRank, target, n, costs_.eager, /*occupiesPorts=*/true,
          [this, winId, originRank, target, dst, traceId,
           payload = std::move(payload), targetExtra]() mutable {
            std::memcpy(dst, payload.data(), payload.size());
            const std::size_t n = payload.size();
            softwareDelay(targetExtra, [this, winId, originRank, target,
                                        traceId, n]() {
              engine().trace().recordSpan(
                  engine().now(), target, sim::TraceTag::kMpiPutComplete,
                  sim::SpanPhase::kEnd, traceId, 0, static_cast<double>(n),
                  originRank);
              putArrived(winId, originRank);
            });
          },
          traceId);
    });
    return;
  }

  // Large put: protocol mirrors the two-sided rendezvous (handshake +
  // registration at the target, then the RDMA-class transfer) — Table 1
  // shows MVAPICH-Put tracking two-sided closely in the 30-70 KB range —
  // but the one-sided path saves a receive-side copy, which is what lets
  // put win beyond ~70 KB.
  const double savings =
      costs_.put_large_savings_per_byte_us * static_cast<double>(bytes);
  const sim::Time regCost = std::max(
      0.0, costs_.rndv_base_us +
               costs_.rndv_per_byte_us * static_cast<double>(bytes) - savings);
  const sim::Time targetExtra =
      costs_.sw_recv_us + costs_.pscw_overhead_us / 2;
  auto shared = std::make_shared<std::vector<std::byte>>(std::move(payload));
  softwareDelay(originSw, [this, originRank, target, dst, winId, shared,
                           regCost, targetExtra, traceId]() {
    sendControl(originRank, target, [this, originRank, target, dst, winId,
                                     shared, regCost, targetExtra, traceId]() {
      softwareDelay(regCost, [this, originRank, target, dst, winId, shared,
                                targetExtra, traceId]() {
        sendControl(target, originRank, [this, originRank, target, dst, winId,
                                         shared, targetExtra, traceId]() {
          fabric_.submitCustom(
              originRank, target, shared->size(), costs_.rdma,
              /*occupiesPorts=*/true,
              [this, winId, originRank, target, dst, shared, targetExtra,
               traceId]() {
                std::memcpy(dst, shared->data(), shared->size());
                const std::size_t n = shared->size();
                softwareDelay(targetExtra, [this, winId, originRank, target,
                                            traceId, n]() {
                  engine().trace().recordSpan(
                      engine().now(), target, sim::TraceTag::kMpiPutComplete,
                      sim::SpanPhase::kEnd, traceId, 0, static_cast<double>(n),
                      originRank);
                  putArrived(winId, originRank);
                });
              },
              traceId);
        });
      });
    });
  });
}

void MiniMpi::putArrived(WinId winId, int origin) {
  Window& win = window(winId);
  ++win.arrived[origin];
  checkWaitDone(winId);
}

void MiniMpi::winComplete(WinId winId, int originRank) {
  Window& win = window(winId);
  OriginEpoch& epoch = origins_[{winId, originRank}];
  CKD_REQUIRE(epoch.started, "MPI_Win_complete without a started epoch");
  epoch.started = false;
  epoch.tokenArrived = false;
  const std::uint64_t issued = epoch.putsIssued;
  const int target = win.rank;
  sendControl(originRank, target, [this, winId, originRank, issued]() {
    Window& w = window(winId);
    w.announced[originRank] = issued;
    w.completed.insert(originRank);
    checkWaitDone(winId);
  });
}

void MiniMpi::winWait(WinId winId, std::function<void()> onDone) {
  Window& win = window(winId);
  CKD_REQUIRE(!win.waitCallback, "MPI_Win_wait already pending");
  CKD_REQUIRE(!win.postedOrigins.empty(),
              "MPI_Win_wait without an exposure epoch");
  win.waitCallback = std::move(onDone);
  checkWaitDone(winId);
}

void MiniMpi::checkWaitDone(WinId winId) {
  Window& win = window(winId);
  if (!win.waitCallback) return;
  for (const int origin : win.postedOrigins) {
    if (win.completed.count(origin) == 0) return;
    if (win.arrived[origin] < win.announced[origin]) return;
  }
  auto cb = std::move(win.waitCallback);
  win.waitCallback = nullptr;
  win.postedOrigins.clear();
  win.completed.clear();
  win.announced.clear();
  win.arrived.clear();
  cb();
}

}  // namespace ckd::mpi
