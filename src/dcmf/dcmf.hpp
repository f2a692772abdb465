#pragma once
// A Deep Computing Messaging Framework (DCMF)-like active-message layer,
// modeling the Blue Gene/P messaging substrate the paper's BG/P CkDirect
// implementation is built on (§2.2):
//
//  * two-sided Send with registered receipt handlers, split at 224 bytes:
//    - short messages: the handler itself copies the data out;
//    - normal messages: the handler returns a destination buffer plus a
//      completion callback; the payload lands in that buffer and the
//      callback fires after delivery;
//  * an Info header of up to 7 quad words (16 B each) that travels with the
//    message — CkDirect/BG-P ships the whole receive-side context in it;
//  * explicit per-message request/state buffers on both sides; a request
//    may not be reused while its message is in flight (the model enforces
//    this, which is how CkDirect's one-message-in-flight constraint is
//    checked on BG/P);
//  * a local send-completion callback.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/reliable.hpp"
#include "net/fabric.hpp"

namespace ckd::dcmf {

/// One 16-byte quad word of Info header.
using Quad = std::array<std::uint64_t, 2>;

/// Messages strictly shorter than this take the short-handler path.
constexpr std::size_t kShortLimit = 224;

/// Up to 7 quad words of out-of-band metadata, delivered with the payload.
class Info {
 public:
  static constexpr std::size_t kMaxQuads = 7;

  Info() = default;
  void append(Quad quad);
  std::size_t quadCount() const { return count_; }
  const Quad& quad(std::size_t i) const;
  /// Bytes this header adds to the wire (16 per quad).
  std::size_t wireBytes() const { return count_ * sizeof(Quad); }

  /// Convenience: pack/unpack a pointer into half a quad word.
  static std::uint64_t packPointer(const void* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  }
  template <typename T>
  static T* unpackPointer(std::uint64_t bits) {
    return reinterpret_cast<T*>(static_cast<std::uintptr_t>(bits));
  }

 private:
  std::array<Quad, kMaxQuads> quads_{};
  std::size_t count_ = 0;
};

/// User-allocated message transaction state (DCMF_Request_t). The model
/// tracks the in-flight flag to enforce the no-reuse-while-in-flight rule.
struct Request {
  bool inFlight = false;
};

/// What a normal-message receipt handler must provide (§2.2): where to put
/// the payload, and what to call once it has landed.
struct RecvSpec {
  std::byte* buffer = nullptr;
  std::size_t capacity = 0;
  std::function<void()> on_complete;
  Request* request = nullptr;
};

using ProtocolId = int;

class DcmfContext {
 public:
  /// `srcRank`, `myRank` let one handler serve every simulated rank.
  using ShortHandler = std::function<void(int myRank, int srcRank,
                                          const Info& info,
                                          const std::byte* data,
                                          std::size_t bytes)>;
  using NormalHandler = std::function<RecvSpec(int myRank, int srcRank,
                                               const Info& info,
                                               std::size_t bytes)>;

  explicit DcmfContext(net::Fabric& fabric);

  net::Fabric& fabric() { return fabric_; }
  int numRanks() const { return fabric_.numPes(); }

  /// Register a protocol on every rank (collective in real DCMF; the model
  /// registers once and dispatches by destination rank).
  ProtocolId registerProtocol(ShortHandler shortHandler,
                              NormalHandler normalHandler);

  /// DCMF_Send. The Info header rides along with the payload (its quad
  /// words count toward wire bytes). `request` must not already be in
  /// flight; it is released when `on_local_complete` fires.
  /// `modeled_wire_bytes` overrides the charged wire size (0 = actual
  /// payload + Info); the runtime uses it to model envelope-size ablations
  /// without changing the real buffer contents.
  ///
  /// With faults armed on the fabric the send rides a fault::ReliableLink
  /// (seq/link CRC/ack/retransmit); `on_local_complete` then fires at ack
  /// time, and a permanent failure releases the request and reports through
  /// `on_error` (aborting if no handler was given).
  void send(ProtocolId protocol, int srcRank, int dstRank, Info info,
            const void* payload, std::size_t bytes, Request* request,
            std::function<void()> on_local_complete = {},
            std::size_t modeled_wire_bytes = 0,
            std::function<void(fault::WcStatus)> on_error = {},
            std::uint64_t trace_id = 0);

  /// Recover the (src, dst) reliability channel after a permanent failure
  /// (models re-establishing the torus connection). No-op when healthy.
  void resetChannel(int srcRank, int dstRank);

  /// Fail-stop support: flush every reliable flow touching `rank` / every
  /// flow. Pending sends are dropped silently (the restart protocol
  /// re-drives them); pre-crash copies on the wire are NAKed as stale.
  void flushPe(int rank) {
    if (link_) link_->flushPe(rank);
  }
  void flushAll() {
    if (link_) link_->flushAll();
  }
  std::uint64_t staleNaks() const { return link_ ? link_->staleNaks() : 0; }

  std::uint64_t sendsPosted() const { return sends_; }
  std::uint64_t shortDeliveries() const { return shortDeliveries_; }
  std::uint64_t normalDeliveries() const { return normalDeliveries_; }

 private:
  struct Protocol {
    ShortHandler shortHandler;
    NormalHandler normalHandler;
  };

  void deliver(ProtocolId protocol, int srcRank, int dstRank, const Info& info,
               std::vector<std::byte> payload);
  fault::ReliableLink& link();

  net::Fabric& fabric_;
  std::unique_ptr<fault::ReliableLink> link_;  ///< lazy; only with faults
  std::vector<Protocol> protocols_;
  std::uint64_t sends_ = 0;
  std::uint64_t shortDeliveries_ = 0;
  std::uint64_t normalDeliveries_ = 0;
};

}  // namespace ckd::dcmf
