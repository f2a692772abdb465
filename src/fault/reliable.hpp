#pragma once
// Go-back-N reliability over an unreliable simulated wire.
//
// When the fault injector is armed, the wire may drop, delay, duplicate, or
// corrupt messages — so exactly-once in-order delivery (the RC guarantee
// CkDirect's sentinel protocol leans on, §2.1) has to be EARNED. ReliableLink
// models the RC protocol machinery that earns it:
//
//  * every transmission carries a sequence number in its simulated wire
//    header and is covered by a modeled link CRC: a copy the injector
//    corrupted fails it and is silently discarded. The receiver enforces
//    strict sequencing (duplicates and gap arrivals are discarded, go-back-N
//    style);
//  * a message holds exactly one payload image, the one posted: the
//    transmissions carry none, and the one in-sequence arrival moves it out
//    of the sender's entry into on_deliver;
//  * in-sequence arrivals are delivered exactly once, then cumulatively
//    acked with a small control message (itself subject to wire faults);
//  * the sender keeps unacked entries in a per-channel retransmission queue
//    guarded by a timeout with exponential backoff; after
//    ReliabilityParams::retry_budget consecutive timeouts (IB retry_cnt)
//    every pending entry completes with WcStatus::kRetryExceeded and the
//    channel enters an error state (a real QP moving to ERROR and flushing
//    its WQEs);
//  * resetChannel() models tearing the connection down and re-establishing
//    it with a fresh PSN — the recovery hook the layers above (transport
//    RDMA retry, CkDirect re-put) use before re-posting.
//
// A "channel" is whatever the caller keys flows by (a QP id, a PE pair);
// entries on one channel share one sequence space, like WQEs on one RC QP.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/inplace_fn.hpp"

namespace ckd::fault {

/// Work-completion status, modeled on ibv_wc_status.
enum class WcStatus : std::uint8_t {
  kSuccess = 0,
  kRetryExceeded,  ///< IBV_WC_RETRY_EXC_ERR: retry budget exhausted
  kQpError,        ///< posted to (or flushed from) a QP in the error state
  kRemoteAccess,   ///< IBV_WC_REM_ACCESS_ERR: remote region invalid
};

std::string_view wcStatusName(WcStatus status);

/// What the fabric implements so the reliability layer can transmit without
/// this module depending on net::Fabric (which depends on this module).
class WireSender {
 public:
  struct Delivery {
    bool corrupted = false;  ///< injector flipped a bit in this copy
  };
  /// Sized to hold inline the fabric's 80-byte wrap of a net::Fabric
  /// DeliverFn (the per-message path the pools keep allocation-free); the
  /// link's own transmission closures are far smaller. Bigger captures fall
  /// back to the heap transparently.
  using DeliverFn = util::InplaceFunction<void(const Delivery&), 88>;

  virtual ~WireSender() = default;
  /// Submit `wireBytes` of modeled traffic; `onDeliver` runs at delivery
  /// (possibly never, on a drop; possibly twice, on a duplicate). Returns
  /// the contention-free delivery estimate. `traceId` stamps the wire-level
  /// trace points with the logical message's causal chain id — retransmitted
  /// copies pass the same id.
  virtual sim::Time sendWire(int srcPe, int dstPe, std::size_t wireBytes,
                             MsgClass cls, DeliverFn onDeliver,
                             std::uint64_t traceId = 0) = 0;
  virtual sim::Engine& wireEngine() = 0;
  /// Installed injector, or nullptr when faults are off.
  virtual FaultInjector* faults() = 0;
};

class ReliableLink {
 public:
  using ChannelId = int;

  struct Send {
    int src = -1;
    int dst = -1;
    std::size_t wireBytes = 0;  ///< modeled wire size (headers included)
    MsgClass cls = MsgClass::kPacket;
    /// Real payload image; may be empty for closure-only messages (control
    /// handshakes) whose effect is entirely in on_deliver. It is the only
    /// copy: on_deliver receives this very buffer, moved.
    std::vector<std::byte> payload;
    /// Runs at the receiver, exactly once, in post order per channel.
    std::function<void(std::vector<std::byte>&&)> on_deliver;
    /// Runs at the sender once the cumulative ack covers this entry.
    std::function<void()> on_acked;
    /// Terminal failure (retry budget, QP error, remote access). Entries
    /// without a handler abort the simulation on failure.
    std::function<void(WcStatus)> on_error;
    /// Causal chain id of the logical message (0 = untraced). Every
    /// transmission attempt — first copy and retransmits alike — carries it.
    std::uint64_t traceId = 0;
  };

  ReliableLink(WireSender& wire, ReliabilityParams params);

  void post(ChannelId channel, Send send);

  /// Recover a channel from the error state (models destroying the QP and
  /// reconnecting with a fresh PSN). No-op on a healthy channel, so layered
  /// recovery paths sharing one QP may all call it.
  void resetChannel(ChannelId channel);
  bool channelInError(ChannelId channel) const;

  /// Fail-stop flush: forcibly tear down every flow touching `pe`. In-flight
  /// entries are dropped SILENTLY — no error completions fire, because the
  /// checkpoint rollback re-drives those sends from restored state — the
  /// sequence spaces resynchronize, and any copy of a pre-flush transmission
  /// still on the wire is NAKed as stale on arrival instead of delivered
  /// into since-re-registered memory. Idempotent: flushing an already-clean
  /// flow (crash racing a QP-error recovery that already reset it) is a
  /// strict no-op — nothing is double-released and the generation is stable.
  void flushPe(int pe);
  /// Flush every flow (global rollback to the last checkpoint).
  void flushAll();

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t errors() const { return errors_; }
  /// Pre-flush-epoch arrivals NAKed instead of delivered.
  std::uint64_t staleNaks() const { return staleNaks_; }

 private:
  struct Entry {
    std::uint64_t seq = 0;
    Send send;
    bool regionInvalid = false;  ///< injected: receiver will NAK this entry
    int attempts = 0;            ///< transmissions so far
  };
  struct Flow {
    int src = -1;
    int dst = -1;
    std::uint64_t nextSeq = 0;   // sender side
    std::uint64_t expected = 0;  // receiver side
    std::deque<Entry> unacked;
    bool error = false;
    int timeoutsInARow = 0;
    std::uint64_t timerEpoch = 0;  // stale-timer guard (engine has no cancel)
    bool timerArmed = false;
    std::uint64_t generation = 0;  // bumped per reset; kills stale NAKs
    /// Sequences below this were flushed by a fail-stop teardown; copies
    /// still on the wire are NAKed as stale when they arrive.
    std::uint64_t flushBarrier = 0;
    /// Contention-free delivery estimate of the latest transmission, as an
    /// absolute engine time. The retransmission timer must not fire before
    /// the outstanding copy could possibly have been delivered and acked —
    /// a real QP sizes its local ACK timeout from the path round trip, so
    /// a multi-megabyte write is not declared lost on a packet-scale timer.
    sim::Time lastEta = 0;
  };

  Flow& flow(ChannelId channel) { return flows_[channel]; }
  void flushFlow(Flow& f);
  void transmit(ChannelId channel, Entry& entry);
  void onWireArrival(ChannelId channel, std::uint64_t seq, bool regionInvalid,
                     bool corrupted);
  void sendAck(ChannelId channel);
  void onAck(ChannelId channel, std::uint64_t through);
  void armTimer(ChannelId channel);
  void onTimeout(ChannelId channel, std::uint64_t epoch);
  void failFlow(ChannelId channel, WcStatus status);

  sim::TraceRecorder& trace() { return wire_.wireEngine().trace(); }

  WireSender& wire_;
  ReliabilityParams params_;
  /// A flow spans two PEs, so under the sharded engine its sender side
  /// (post, ack, timeout) and receiver side (wire arrival, ack send) run on
  /// different threads — at distinct virtual instants, but physically
  /// concurrent within one window. One lock serializes all flow/counter
  /// mutation; recursive because failure handlers re-enter (on_error ->
  /// resetChannel -> post). The operations commute across flows and look up
  /// entries by sequence number, so lock-acquisition order cannot change any
  /// simulation-visible result.
  mutable std::recursive_mutex mu_;
  std::map<ChannelId, Flow> flows_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t staleNaks_ = 0;
};

}  // namespace ckd::fault
