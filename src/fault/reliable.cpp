#include "fault/reliable.hpp"

#include <cmath>
#include <utility>

#include "util/require.hpp"

namespace ckd::fault {

namespace {
/// Modeled wire size of a cumulative ack / NAK control message.
constexpr std::size_t kAckBytes = 16;
}  // namespace

std::string_view wcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess: return "success";
    case WcStatus::kRetryExceeded: return "retry_exceeded";
    case WcStatus::kQpError: return "qp_error";
    case WcStatus::kRemoteAccess: return "remote_access";
  }
  return "?";
}

ReliableLink::ReliableLink(WireSender& wire, ReliabilityParams params)
    : wire_(wire), params_(params) {}

void ReliableLink::post(ChannelId channel, Send send) {
  CKD_REQUIRE(send.src >= 0 && send.dst >= 0, "reliable send needs src/dst");
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Flow& f = flow(channel);
  if (f.src < 0) {
    f.src = send.src;
    f.dst = send.dst;
  }
  CKD_REQUIRE(f.src == send.src && f.dst == send.dst,
              "a reliable channel is a point-to-point flow");
  if (f.error) {
    // A post to a QP in the error state completes immediately with a flush
    // error; the caller must resetChannel() first.
    ++errors_;
    trace().record(wire_.wireEngine().now(), send.src,
                   sim::TraceTag::kRelError);
    CKD_REQUIRE(send.on_error != nullptr,
                "post on an errored channel with no error handler");
    send.on_error(WcStatus::kQpError);
    return;
  }

  Entry entry;
  entry.send = std::move(send);

  FaultInjector* injector = wire_.faults();
  if (injector != nullptr && injector->armed()) {
    const LinkFault lf =
        injector->decideLink(wire_.wireEngine().now(), entry.send.src,
                             entry.send.dst, entry.send.cls);
    if (lf.qp_error) {
      // The QP fails at post time: this entry and everything already pending
      // flush with an error completion.
      f.unacked.push_back(std::move(entry));
      f.unacked.back().seq = f.nextSeq++;
      failFlow(channel, WcStatus::kQpError);
      return;
    }
    entry.regionInvalid = lf.region_invalidate;
  }

  entry.seq = f.nextSeq++;
  f.unacked.push_back(std::move(entry));
  transmit(channel, f.unacked.back());
  if (!f.timerArmed) armTimer(channel);
}

void ReliableLink::transmit(ChannelId channel, Entry& entry) {
  ++entry.attempts;
  Flow& f = flow(channel);
  // A transmission carries no payload image: only the in-sequence arrival
  // reads the bytes, and it takes them from the sender's entry. Every
  // attempt — first copy and retransmits alike — carries the logical
  // message's chain id: one chain, N wire submissions.
  const sim::Time eta = wire_.sendWire(
      f.src, f.dst, entry.send.wireBytes, entry.send.cls,
      [this, channel, seq = entry.seq, regionInvalid = entry.regionInvalid](
          const WireSender::Delivery& d) {
        onWireArrival(channel, seq, regionInvalid, d.corrupted);
      },
      entry.send.traceId);
  if (eta > f.lastEta) f.lastEta = eta;
}

void ReliableLink::onWireArrival(ChannelId channel, std::uint64_t seq,
                                 bool regionInvalid, bool corrupted) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Flow& f = flow(channel);
  const sim::Time now = wire_.wireEngine().now();
  if (seq < f.flushBarrier) {
    // A copy transmitted before a fail-stop flush finally arrives. Its entry
    // (and delivery closure, which targets since-re-registered memory) is
    // gone; NAK-and-drop it like a stale-PSN packet hitting a fresh QP. No
    // re-ack either — the new sequence space must not be polluted by ghosts.
    ++staleNaks_;
    trace().record(now, f.dst, sim::TraceTag::kRelStaleNak,
                   static_cast<double>(seq));
    return;
  }
  if (corrupted) {
    // The injector flipped a bit in this copy, so it fails the link CRC and
    // is silently discarded; the retransmission timeout recovers.
    return;
  }
  if (regionInvalid) {
    // The remote region was yanked before this write landed: the responder
    // NAKs and the requester QP moves to error (IBV_WC_REM_ACCESS_ERR). The
    // generation check discards NAKs from a connection that has since been
    // torn down and re-established (stale-PSN packets on a real fabric).
    wire_.sendWire(f.dst, f.src, kAckBytes, MsgClass::kControl,
                   [this, channel,
                    gen = f.generation](const WireSender::Delivery& d) {
                     if (d.corrupted) return;
                     std::lock_guard<std::recursive_mutex> lock(mu_);
                     Flow& sender = flow(channel);
                     if (sender.generation == gen && !sender.error)
                       failFlow(channel, WcStatus::kRemoteAccess);
                   });
    return;
  }
  if (seq < f.expected) {
    // Duplicate (wire duplicate, or a retransmission of something already
    // delivered because the ack was lost). Discard, but re-ack so the
    // sender can make progress.
    trace().record(now, f.dst, sim::TraceTag::kRelDupDrop);
    sendAck(channel);
    return;
  }
  if (seq > f.expected) {
    // Gap: an earlier message was dropped. Go-back-N receivers accept only
    // the next expected sequence; the sender's timeout retransmits the
    // window in order.
    trace().record(now, f.dst, sim::TraceTag::kRelOooDrop);
    return;
  }
  ++f.expected;
  // Deliver through the sender-side entry (same address space): it holds
  // the delivery closure and the one payload image. The entry is guaranteed
  // live until the ack we are about to send arrives back — unless the flow
  // failed underneath a copy still in flight, in which case the arrival is
  // from a dead connection. Both move into locals first, so a re-entrant
  // post() from the handler cannot alias them.
  for (Entry& e : f.unacked) {
    if (e.seq != seq) continue;
    auto deliver = std::move(e.send.on_deliver);
    std::vector<std::byte> image = std::move(e.send.payload);
    if (deliver) deliver(std::move(image));
    break;
  }
  sendAck(channel);
}

void ReliableLink::sendAck(ChannelId channel) {
  Flow& f = flow(channel);
  const std::uint64_t through = f.expected - 1;
  wire_.sendWire(f.dst, f.src, kAckBytes, MsgClass::kControl,
                 [this, channel, through](const WireSender::Delivery& d) {
                   if (d.corrupted) return;  // bad CRC on the ack: discard
                   onAck(channel, through);
                 });
}

void ReliableLink::onAck(ChannelId channel, std::uint64_t through) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Flow& f = flow(channel);
  if (f.error) return;
  bool progressed = false;
  while (!f.unacked.empty() && f.unacked.front().seq <= through) {
    Entry entry = std::move(f.unacked.front());
    f.unacked.pop_front();
    progressed = true;
    trace().record(wire_.wireEngine().now(), f.src, sim::TraceTag::kRelAck,
                   static_cast<double>(entry.attempts));
    trace().observeDeliveryAttempts(static_cast<double>(entry.attempts));
    if (entry.send.on_acked) entry.send.on_acked();
  }
  if (!progressed) return;
  f.timeoutsInARow = 0;
  ++f.timerEpoch;  // invalidate the running timer
  if (f.unacked.empty())
    f.timerArmed = false;
  else
    armTimer(channel);
}

void ReliableLink::armTimer(ChannelId channel) {
  Flow& f = flow(channel);
  f.timerArmed = true;
  const std::uint64_t epoch = ++f.timerEpoch;
  // The base timeout covers the ack round trip for packet-scale messages;
  // for larger writes the timer additionally waits out the contention-free
  // delivery estimate of the newest outstanding copy, so a long transfer
  // is never declared lost while its bytes are still legitimately on the
  // wire (IB local ACK timeout >= path round trip).
  const sim::Time now = wire_.wireEngine().now();
  const sim::Time outstanding = f.lastEta > now ? f.lastEta - now : 0;
  const sim::Time delay = (params_.timeout_us + outstanding) *
                          std::pow(params_.backoff, f.timeoutsInARow);
  wire_.wireEngine().after(
      delay, [this, channel, epoch]() { onTimeout(channel, epoch); });
}

void ReliableLink::onTimeout(ChannelId channel, std::uint64_t epoch) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Flow& f = flow(channel);
  if (epoch != f.timerEpoch || f.error) return;  // stale timer
  if (f.unacked.empty()) {
    f.timerArmed = false;
    return;
  }
  if (++f.timeoutsInARow > params_.retry_budget) {
    failFlow(channel, WcStatus::kRetryExceeded);
    return;
  }
  // Go-back-N: retransmit the whole unacked window in order.
  const sim::Time now = wire_.wireEngine().now();
  for (Entry& entry : f.unacked) {
    ++retransmits_;
    trace().recordSpan(now, f.src, sim::TraceTag::kRelRetransmit,
                       sim::SpanPhase::kInstant, entry.send.traceId, 0,
                       static_cast<double>(entry.send.wireBytes));
    transmit(channel, entry);
  }
  armTimer(channel);
}

void ReliableLink::failFlow(ChannelId channel, WcStatus status) {
  Flow& f = flow(channel);
  f.error = true;
  ++f.timerEpoch;  // kill any running timer
  f.timerArmed = false;
  // Move the window out before invoking completions: error handlers may
  // resetChannel() and re-post immediately.
  std::deque<Entry> dead;
  dead.swap(f.unacked);
  const sim::Time now = wire_.wireEngine().now();
  for (Entry& entry : dead) {
    ++errors_;
    trace().record(now, f.src, sim::TraceTag::kRelError,
                   static_cast<double>(entry.send.wireBytes));
    CKD_REQUIRE(entry.send.on_error != nullptr,
                "reliable send failed permanently with no error handler");
    entry.send.on_error(status);
  }
}

void ReliableLink::resetChannel(ChannelId channel) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Flow& f = flow(channel);
  if (!f.error) return;  // already reset by a sibling recovery path
  f.error = false;
  f.timeoutsInARow = 0;
  // Fresh connection, fresh PSN: the receiver resynchronizes its expected
  // sequence to the sender's next (failed entries consumed sequence numbers
  // the receiver never saw).
  f.expected = f.nextSeq;
  ++f.timerEpoch;
  f.timerArmed = false;
  ++f.generation;
  // The old sequence space's delivery estimate dies with the connection: the
  // first post-reset timer must be sized from the new traffic, not from a
  // stale multi-megabyte ETA that would inflate its timeout.
  f.lastEta = 0;
}

void ReliableLink::flushFlow(Flow& f) {
  // Idempotency guard: a second flush of an already-flushed flow (a crash
  // racing a QP-error recovery, or restore's flushAll after a per-PE flush)
  // must be a strict no-op — nothing re-released, generation untouched.
  if (f.unacked.empty() && !f.error && f.flushBarrier == f.nextSeq) return;
  // Silent drop: no error completions. The checkpoint rollback re-drives
  // every send that mattered; firing on_error here would double-count
  // failures (and abort on entries posted without a handler).
  f.unacked.clear();
  f.error = false;
  f.timeoutsInARow = 0;
  f.expected = f.nextSeq;
  f.flushBarrier = f.nextSeq;
  ++f.timerEpoch;  // kill any running timer
  f.timerArmed = false;
  ++f.generation;  // kill stale NAK closures
  f.lastEta = 0;
}

void ReliableLink::flushPe(int pe) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (auto& [id, f] : flows_)
    if (f.src == pe || f.dst == pe) flushFlow(f);
}

void ReliableLink::flushAll() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (auto& [id, f] : flows_) flushFlow(f);
}

bool ReliableLink::channelInError(ChannelId channel) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const auto it = flows_.find(channel);
  return it != flows_.end() && it->second.error;
}

}  // namespace ckd::fault
