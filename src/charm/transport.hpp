#pragma once
// Machine layers: how the runtime moves a Message between PEs.
//
//  * IbTransport (InfiniBand, §2.1 environment): eager packetized path below
//    the RDMA threshold; above it a rendezvous — a control round trip that
//    registers a landing buffer at the receiver, followed by a real RDMA
//    write through the verbs layer. This reproduces the Table 1 protocol
//    crossovers (packet vs. RDMA at 20–30 KB).
//  * BgpTransport (Blue Gene/P, §2.2 environment): every message flows
//    through the DCMF two-sided active-message send; no RDMA cut-over
//    existed on Surveyor.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "charm/message.hpp"
#include "dcmf/dcmf.hpp"
#include "fault/reliable.hpp"
#include "ib/verbs.hpp"
#include "sim/time.hpp"

namespace ckd::charm {

class Runtime;

class Transport {
 public:
  virtual ~Transport() = default;
  /// Called at the message's issue time on the simulation engine. Sender
  /// software costs (pack/send overhead) are charged by Runtime before this.
  virtual void send(MessagePtr msg) = 0;

  /// Fail-stop: `pe` just died. Flush transport-level reliable flows that
  /// touch it (pending entries drop silently; rollback re-drives them).
  virtual void onPeCrash(int pe) { (void)pe; }
  /// Restart protocol: discard every in-flight transport transaction
  /// (rendezvous state, request pools) before state is rolled back.
  virtual void reset() {}
};

class IbTransport final : public Transport {
 public:
  IbTransport(Runtime& runtime, ib::IbVerbs& verbs);
  void send(MessagePtr msg) override;

  void onPeCrash(int pe) override {
    if (link_) link_->flushPe(pe);
  }
  void reset() override;

 private:
  std::size_t modeledWireBytes(const Message& msg) const;
  void sendEager(MessagePtr msg);
  void sendRendezvous(MessagePtr msg);
  void onRendezvousRequest(std::uint64_t seq, Envelope env);
  void onRendezvousAck(std::uint64_t seq, void* remoteAddr,
                       ib::RegionId remoteRegion);
  /// Issue (or, after an error completion, re-issue) the payload RDMA write
  /// for a pending rendezvous send.
  void postPayloadWrite(std::uint64_t seq);
  void onRdmaError(std::uint64_t seq, fault::WcStatus status);
  void onRdmaDelivered(std::uint64_t seq);
  /// Release a pending send once its write is both locally complete and
  /// delivered: the payload write reads the pinned message image at
  /// delivery, which can come after the local completion.
  void maybeRetireSend(std::uint64_t seq);

  /// Faults armed on the fabric: eager/control traffic rides a reliable link.
  bool reliableActive();
  fault::ReliableLink& link();
  /// Directional per-PE-pair reliability channel for transport messages.
  int pairChannel(int src, int dst) const;

  Runtime& runtime_;
  ib::IbVerbs& verbs_;
  struct PendingSend {
    MessagePtr msg;
    sim::Time rtsAt;  // when the request-to-send left, for RTT stats
    // Write context, kept so an error completion can re-issue the write.
    void* remoteAddr = nullptr;
    ib::RegionId remoteRegion;
    ib::RegionId localRegion;
    int attempts = 0;
    bool localDone = false;  ///< the payload write's local completion fired
    bool delivered = false;  ///< the payload landed at the receiver
  };
  std::map<std::uint64_t, PendingSend> pendingSends_;
  struct PendingRecv {
    MessagePtr landing;
    ib::RegionId region;
  };
  std::map<std::uint64_t, PendingRecv> pendingRecvs_;
  std::unique_ptr<fault::ReliableLink> link_;  ///< lazy; only with faults

  /// Modeled size of a rendezvous control message (request-to-send / ack).
  static constexpr std::size_t kControlBytes = 32;
  /// Receiver-side cost of processing a rendezvous ack on the sender.
  static constexpr sim::Time kAckProcessUs = 0.2;
};

class BgpTransport final : public Transport {
 public:
  BgpTransport(Runtime& runtime, dcmf::DcmfContext& dcmf);
  void send(MessagePtr msg) override;

  void reset() override;

 private:
  dcmf::Request* acquireRequest();
  void releaseRequest(dcmf::Request* request);
  /// Hand the sealed message to DCMF; with faults armed, a permanent send
  /// failure resets the channel and re-posts (up to the app retry budget).
  void post(MessagePtr msg, int attempts);

  Runtime& runtime_;
  dcmf::DcmfContext& dcmf_;
  dcmf::ProtocolId protocol_ = -1;
  std::vector<std::unique_ptr<dcmf::Request>> requestPool_;
  std::vector<dcmf::Request*> freeRequests_;
};

}  // namespace ckd::charm
