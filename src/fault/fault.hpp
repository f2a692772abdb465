#pragma once
// Deterministic fault injection for the simulated wire.
//
// A FaultPlan is a list of seeded, matchable rules: each rule names a fault
// kind (drop, delay jitter, duplicate, bit corruption, QP error, remote
// region invalidation), a firing condition (a probability, or every nth
// matching message), and optional src/dst/message-class filters. The plan is
// interpreted by a FaultInjector, which owns one util::Rng seeded from the
// plan seed — the whole fault schedule is therefore a pure function of
// (seed, plan, event order), and the simulation replays bit-identically.
//
// Layering: this module sits BELOW net::Fabric (it knows nothing about
// XferKind or topologies). The fabric translates its transfer classes into
// MsgClass and consults decideWire() at every inter-node submit; the verbs /
// DCMF layers consult decideLink() at post time for the link-level faults
// (QP error, region invalidation) that never touch the wire.
//
// When no plan is installed (or the plan is unarmed) none of this code runs:
// the fabric keeps a null injector pointer and takes its legacy paths
// verbatim, so a fault-free build costs nothing and stays bit-identical.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace ckd::fault {

/// Coarse message classes a rule can filter on. The fabric maps its
/// XferKind / occupiesPorts notions onto these.
enum class MsgClass : std::uint8_t {
  kBulk = 0,  ///< port-occupying bulk transfer (RDMA payload)
  kPacket,    ///< two-sided packetized message (eager, DCMF send)
  kControl,   ///< tiny control message (handshakes, acks)
  kAny,       ///< rule filter wildcard
};

std::string_view msgClassName(MsgClass cls);

enum class FaultKind : std::uint8_t {
  kDrop = 0,          ///< wire message silently lost
  kDelay,             ///< extra latency added to the delivery
  kDuplicate,         ///< a ghost copy of the delivery arrives late
  kCorrupt,           ///< bit flipped in flight (fails the link CRC; dropped)
  kQpError,           ///< queue pair fails at post time (flushes the flow)
  kRegionInvalidate,  ///< remote region yanked; receiver NAKs remote-access
  kPeCrash,           ///< fail-stop: a PE dies at a chosen virtual time
  kCount,
};

constexpr std::size_t kFaultKindCount = static_cast<std::size_t>(FaultKind::kCount);

std::string_view faultKindName(FaultKind kind);

struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  /// Chance in [0,1] that the rule fires on a matching message.
  double probability = 0.0;
  /// If > 0, fire deterministically on every nth matching message (1-based)
  /// instead of drawing from the RNG.
  std::uint64_t nth = 0;
  /// Filters; -1 matches any PE.
  int src = -1;
  int dst = -1;
  MsgClass cls = MsgClass::kAny;
  /// Extra latency injected by kDelay rules.
  sim::Time delay_us = 5.0;
  /// kPeCrash only: virtual time the victim PE dies. `src` names the victim
  /// (-1 = runtime picks one from the fault seed). Crash rules are scheduled
  /// up front by the checkpoint manager, never drawn per message.
  sim::Time crash_at_us = -1.0;
};

/// Knobs for the go-back-N reliability layer that absorbs the faults
/// (modeled on IB RC timeouts: local_ack_timeout, retry_cnt).
struct ReliabilityParams {
  sim::Time timeout_us = 40.0;  ///< base retransmission timeout
  double backoff = 2.0;         ///< exponential backoff per consecutive timeout
  int retry_budget = 7;         ///< timeouts before WC_RETRY_EXC (IB retry_cnt)
  int app_retry_budget = 3;     ///< re-issues above the link (CkDirect re-put)
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  ReliabilityParams rel;

  /// True when any rule can ever fire. Unarmed plans install nothing.
  bool armed() const;
  /// True when the plan contains at least one kPeCrash rule (fail-stop
  /// tolerance machinery — checkpointing, heartbeats — is only spun up then).
  bool hasCrashes() const;
  /// One-line human-readable description (bench banners).
  std::string summary() const;
};

/// Parse a fault spec string. Grammar (comma-separated rules):
///
///   spec   := rule ("," rule)*
///   rule   := name ":" rate (";" opt)*
///           | "pe_crash@" time_us (";" opt)*   (fail-stop at a virtual time)
///   name   := drop | delay | duplicate | corrupt | qp_error | region_invalid
///             | rel            (pseudo-rule: sets ReliabilityParams)
///   rate   := probability in [0,1]
///   opt    := src=<pe> | dst=<pe> | class=bulk|packet|control
///             | nth=<n> | jitter=<us> | pe=<n>  (pe: crash victim)
///   rel opts := timeout=<us> | backoff=<x> | budget=<n> | appbudget=<n>
///
/// A crash rule with no pe= option leaves the victim to the runtime, which
/// picks one deterministically from the fault seed.
///
/// Example: "drop:0.01,corrupt:0.005;class=bulk,delay:0.02;jitter=8".
/// Empty string -> unarmed plan. Aborts (CKD_REQUIRE) on malformed specs.
FaultPlan parseFaultSpec(const std::string& spec);

/// Wire-level fault decision for one submit.
struct WireFault {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  sim::Time extra_delay_us = 0.0;
};

/// Link-level fault decision for one posted work request.
struct LinkFault {
  bool qp_error = false;
  bool region_invalidate = false;
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed, sim::TraceRecorder& trace);

  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

  /// Consulted by the fabric for every inter-node submit. Draws from the
  /// injector RNG in rule order (deterministic given event order), records
  /// fault trace tags, and bumps the per-kind counters.
  WireFault decideWire(sim::Time now, int src, int dst, std::size_t bytes,
                       MsgClass cls);

  /// Consulted by the verbs/DCMF layers when a work request is posted.
  LinkFault decideLink(sim::Time now, int src, int dst, MsgClass cls);

  std::uint64_t count(FaultKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

 private:
  bool fires(FaultRule& rule, std::uint64_t& matched, int src, int dst,
             MsgClass cls);

  FaultPlan plan_;
  std::vector<std::uint64_t> matched_;  // per-rule nth counters
  util::Rng rng_;
  sim::TraceRecorder& trace_;
  bool armed_ = false;
  std::array<std::uint64_t, kFaultKindCount> counts_{};
};

}  // namespace ckd::fault
