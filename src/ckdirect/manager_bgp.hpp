#pragma once
// CkDirect over Blue Gene/P DCMF (§2.2). Not zero-copy (the DCMF two-sided
// path is used), but it still avoids Charm++'s message wrapping and
// scheduling overhead:
//
//  * put sends the payload via DCMF_Send with a 2-quad-word Info header
//    carrying the entire receive-side context (receive buffer pointer,
//    handle id, request pointer) — no lookup tables at the receiver;
//  * the DCMF receive-completion callback invokes the user callback
//    directly (as machine-level work on the receiving PE, bypassing the
//    message queue);
//  * the Ready calls are no-ops, exactly as in the paper;
//  * per-channel send/receive request buffers are allocated once at
//    createHandle/assocLocal and reused, which is legal because a channel
//    has at most one message in flight (the DCMF layer enforces it).

#include <cstdint>
#include <memory>
#include <vector>

#include "ckdirect/ckdirect.hpp"
#include "dcmf/dcmf.hpp"

namespace ckd::direct {

class BgpManager final : public Manager {
 public:
  explicit BgpManager(charm::Runtime& rts);

  std::int32_t createHandle(int receiverPe, void* buffer, std::size_t bytes,
                            std::uint64_t oob, Callback callback) override;
  std::int32_t createStridedHandle(int receiverPe, void* base,
                                   std::size_t blockBytes,
                                   std::size_t strideBytes, int blockCount,
                                   std::uint64_t oob,
                                   Callback callback) override;
  void assocLocal(std::int32_t handle, int senderPe,
                  const void* sendBuffer) override;
  void put(std::int32_t handle) override;
  void ready(std::int32_t /*handle*/) override {}      // no-op on BG/P
  void readyMark(std::int32_t /*handle*/) override {}  // no-op on BG/P
  void readyPollQ(std::int32_t /*handle*/) override {} // no-op on BG/P
  void setErrorCallback(std::int32_t handle, PutErrorCallback callback) override;
  /// Elastic migration: the DCMF path carries the full receive context in
  /// each message's Info header, so nothing is registered anywhere — only
  /// the destination rank changes (plus a modeled handshake at both ends).
  void rehome(std::int32_t handle, int newRecvPe) override;

  std::size_t pollQueueLength(int /*pe*/) const override { return 0; }
  std::uint64_t putsIssued() const override { return puts_; }
  std::uint64_t callbacksInvoked() const override {
    return rts_.fabric().tagCount(sim::TraceTag::kDirectCallback);
  }
  std::uint64_t putRetries() const override { return putRetries_; }

  /// Restart protocol (runs as the runtime's reestablish hook): reset every
  /// channel's DCMF request/retry state to the consistent-cut idle state and
  /// bump the channel epoch so deferred pre-crash put/retry closures die.
  void reestablish();
  std::uint32_t channelEpoch() const { return epoch_; }

 private:
  struct Channel {
    int recvPe = -1;
    std::byte* recvBuffer = nullptr;  // base of the (possibly strided) area
    std::size_t bytes = 0;            // total payload bytes
    std::size_t blockBytes = 0;
    std::size_t strideBytes = 0;
    int blockCount = 1;
    /// Strided channels land in this staging buffer and are scattered at
    /// completion (the BG/P path is not zero-copy anyway, §2.2).
    std::vector<std::byte> staging;
    Callback callback;
    std::unique_ptr<dcmf::Request> recvRequest;

    int sendPe = -1;
    const std::byte* sendBuffer = nullptr;
    std::unique_ptr<dcmf::Request> sendRequest;

    // Fault recovery (active only when the fabric has faults armed).
    int putAttempts = 0;
    PutErrorCallback onError;

    /// Causal chain id of the in-flight put (minted per CkDirect_put; all
    /// retries of one put share it) and the chain that issued it.
    std::uint64_t activeTraceId = 0;
    std::uint64_t activeParentId = 0;
    /// First-issue instant of the in-flight put (-1 idle); retries keep it
    /// so the streaming put histogram sees issue -> arrival per logical put.
    sim::Time activePutAt = -1.0;
  };

  Channel& channel(std::int32_t id);
  std::byte* landingBuffer(Channel& ch);
  /// Hand the put's payload to DCMF (also the re-issue path on retry).
  void issueSend(std::int32_t id);
  void onPutError(std::int32_t id, fault::WcStatus status);
  void onArrived(std::int32_t id);

  charm::Runtime& rts_;
  dcmf::DcmfContext& dcmf_;
  dcmf::ProtocolId protocol_ = -1;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::uint64_t puts_ = 0;
  std::uint64_t putRetries_ = 0;
  /// Bumped by reestablish(); deferred closures from an older epoch no-op.
  std::uint32_t epoch_ = 0;
};

}  // namespace ckd::direct
