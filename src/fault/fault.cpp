#include "fault/fault.hpp"

#include <cstring>
#include <sstream>
#include <utility>

#include "util/require.hpp"

namespace ckd::fault {

std::string_view msgClassName(MsgClass cls) {
  switch (cls) {
    case MsgClass::kBulk: return "bulk";
    case MsgClass::kPacket: return "packet";
    case MsgClass::kControl: return "control";
    case MsgClass::kAny: return "any";
  }
  return "?";
}

std::string_view faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kQpError: return "qp_error";
    case FaultKind::kRegionInvalidate: return "region_invalid";
    case FaultKind::kPeCrash: return "pe_crash";
    case FaultKind::kCount: break;
  }
  return "?";
}

bool FaultPlan::armed() const {
  for (const FaultRule& rule : rules)
    if (rule.probability > 0.0 || rule.nth > 0 ||
        (rule.kind == FaultKind::kPeCrash && rule.crash_at_us >= 0.0))
      return true;
  return false;
}

bool FaultPlan::hasCrashes() const {
  for (const FaultRule& rule : rules)
    if (rule.kind == FaultKind::kPeCrash && rule.crash_at_us >= 0.0)
      return true;
  return false;
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  bool first = true;
  for (const FaultRule& rule : rules) {
    if (rule.kind == FaultKind::kPeCrash) {
      if (rule.crash_at_us < 0.0) continue;
      if (!first) out << ", ";
      first = false;
      out << "pe_crash@" << rule.crash_at_us;
      if (rule.src >= 0) out << " pe=" << rule.src;
      continue;
    }
    if (rule.probability <= 0.0 && rule.nth == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << faultKindName(rule.kind);
    if (rule.nth > 0)
      out << " every " << rule.nth;
    else
      out << " p=" << rule.probability;
    if (rule.src >= 0) out << " src=" << rule.src;
    if (rule.dst >= 0) out << " dst=" << rule.dst;
    if (rule.cls != MsgClass::kAny) out << " class=" << msgClassName(rule.cls);
  }
  if (first) return "no faults";
  return out.str();
}

namespace {

std::vector<std::string> splitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

double parseNumber(const std::string& text, const char* what) {
  std::size_t used = 0;
  double value = 0.0;
  bool ok = !text.empty();
  if (ok) {
    try {
      value = std::stod(text, &used);
    } catch (...) {
      ok = false;
    }
  }
  CKD_REQUIRE(ok && used == text.size(), what);
  return value;
}

FaultKind parseKind(const std::string& name) {
  if (name == "drop") return FaultKind::kDrop;
  if (name == "delay") return FaultKind::kDelay;
  if (name == "duplicate" || name == "dup") return FaultKind::kDuplicate;
  if (name == "corrupt") return FaultKind::kCorrupt;
  if (name == "qp_error" || name == "qperror") return FaultKind::kQpError;
  if (name == "region_invalid" || name == "region_invalidate")
    return FaultKind::kRegionInvalidate;
  CKD_REQUIRE(false, "unknown fault kind in --faults spec");
  return FaultKind::kDrop;  // unreachable
}

MsgClass parseClass(const std::string& name) {
  if (name == "bulk" || name == "rdma") return MsgClass::kBulk;
  if (name == "packet") return MsgClass::kPacket;
  if (name == "control") return MsgClass::kControl;
  if (name == "any") return MsgClass::kAny;
  CKD_REQUIRE(false, "unknown message class in --faults spec");
  return MsgClass::kAny;  // unreachable
}

void applyRelOption(ReliabilityParams& rel, const std::string& key,
                    const std::string& value) {
  if (key == "timeout") {
    rel.timeout_us = parseNumber(value, "bad rel timeout in --faults spec");
    CKD_REQUIRE(rel.timeout_us > 0.0, "rel timeout must be positive");
  } else if (key == "backoff") {
    rel.backoff = parseNumber(value, "bad rel backoff in --faults spec");
    CKD_REQUIRE(rel.backoff >= 1.0, "rel backoff must be >= 1");
  } else if (key == "budget") {
    rel.retry_budget =
        static_cast<int>(parseNumber(value, "bad rel budget in --faults spec"));
    CKD_REQUIRE(rel.retry_budget >= 0, "rel budget must be >= 0");
  } else if (key == "appbudget") {
    rel.app_retry_budget = static_cast<int>(
        parseNumber(value, "bad rel appbudget in --faults spec"));
    CKD_REQUIRE(rel.app_retry_budget >= 0, "rel appbudget must be >= 0");
  } else {
    CKD_REQUIRE(false, "unknown rel option in --faults spec");
  }
}

void applyRuleOption(FaultRule& rule, const std::string& key,
                     const std::string& value) {
  if (key == "src") {
    rule.src = static_cast<int>(parseNumber(value, "bad src in --faults spec"));
  } else if (key == "dst") {
    rule.dst = static_cast<int>(parseNumber(value, "bad dst in --faults spec"));
  } else if (key == "class" || key == "kind") {
    rule.cls = parseClass(value);
  } else if (key == "nth") {
    const double n = parseNumber(value, "bad nth in --faults spec");
    CKD_REQUIRE(n >= 1.0, "nth must be >= 1 in --faults spec");
    rule.nth = static_cast<std::uint64_t>(n);
  } else if (key == "jitter") {
    rule.delay_us = parseNumber(value, "bad jitter in --faults spec");
    CKD_REQUIRE(rule.delay_us >= 0.0, "jitter must be >= 0");
  } else if (key == "pe") {
    CKD_REQUIRE(rule.kind == FaultKind::kPeCrash,
                "pe= is only valid on pe_crash rules");
    rule.src = static_cast<int>(parseNumber(value, "bad pe in --faults spec"));
    CKD_REQUIRE(rule.src >= 0, "pe must be >= 0 in --faults spec");
  } else {
    CKD_REQUIRE(false, "unknown rule option in --faults spec");
  }
}

}  // namespace

FaultPlan parseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& ruleText : splitOn(spec, ',')) {
    CKD_REQUIRE(!ruleText.empty(), "empty rule in --faults spec");
    const std::vector<std::string> parts = splitOn(ruleText, ';');
    const std::string& head = parts.front();
    // Fail-stop rules use "@" with an absolute virtual time instead of a
    // probability: "pe_crash@1500" or "pe_crash@1500;pe=3".
    if (head.rfind("pe_crash@", 0) == 0) {
      FaultRule rule;
      rule.kind = FaultKind::kPeCrash;
      rule.crash_at_us = parseNumber(head.substr(std::strlen("pe_crash@")),
                                     "bad pe_crash time in --faults spec");
      CKD_REQUIRE(rule.crash_at_us >= 0.0, "pe_crash time must be >= 0");
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        CKD_REQUIRE(eq != std::string::npos, "rule option must be key=value");
        applyRuleOption(rule, parts[i].substr(0, eq), parts[i].substr(eq + 1));
      }
      plan.rules.push_back(rule);
      continue;
    }
    const std::size_t colon = head.find(':');
    CKD_REQUIRE(colon != std::string::npos,
                "--faults rule must look like kind:probability");
    const std::string name = head.substr(0, colon);
    if (name == "rel") {
      // Pseudo-rule carrying reliability knobs: "rel:0;timeout=20;budget=4".
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::size_t eq = parts[i].find('=');
        CKD_REQUIRE(eq != std::string::npos, "rel option must be key=value");
        applyRelOption(plan.rel, parts[i].substr(0, eq),
                       parts[i].substr(eq + 1));
      }
      continue;
    }
    FaultRule rule;
    rule.kind = parseKind(name);
    rule.probability =
        parseNumber(head.substr(colon + 1), "bad probability in --faults spec");
    CKD_REQUIRE(rule.probability >= 0.0 && rule.probability <= 1.0,
                "fault probability must be in [0,1]");
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::size_t eq = parts[i].find('=');
      CKD_REQUIRE(eq != std::string::npos, "rule option must be key=value");
      applyRuleOption(rule, parts[i].substr(0, eq), parts[i].substr(eq + 1));
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             sim::TraceRecorder& trace)
    : plan_(std::move(plan)),
      matched_(plan_.rules.size(), 0),
      rng_(seed),
      trace_(trace),
      armed_(plan_.armed()) {}

bool FaultInjector::fires(FaultRule& rule, std::uint64_t& matched, int src,
                          int dst, MsgClass cls) {
  if (rule.src >= 0 && rule.src != src) return false;
  if (rule.dst >= 0 && rule.dst != dst) return false;
  if (rule.cls != MsgClass::kAny && rule.cls != cls) return false;
  if (rule.nth > 0) return (++matched % rule.nth) == 0;
  if (rule.probability <= 0.0) return false;
  // One RNG draw per matching probabilistic rule, in plan order: the fault
  // schedule is a pure function of (seed, plan, deterministic event order).
  return rng_.chance(rule.probability);
}

WireFault FaultInjector::decideWire(sim::Time now, int src, int dst,
                                    std::size_t bytes, MsgClass cls) {
  WireFault out;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    FaultRule& rule = plan_.rules[i];
    switch (rule.kind) {
      case FaultKind::kDrop:
      case FaultKind::kDelay:
      case FaultKind::kDuplicate:
      case FaultKind::kCorrupt:
        break;
      default:
        continue;  // link-level kinds never fire on the wire
    }
    if (!fires(rule, matched_[i], src, dst, cls)) continue;
    ++counts_[static_cast<std::size_t>(rule.kind)];
    switch (rule.kind) {
      case FaultKind::kDrop:
        out.drop = true;
        trace_.record(now, src, sim::TraceTag::kFaultDrop,
                      static_cast<double>(bytes));
        break;
      case FaultKind::kDelay:
        out.extra_delay_us += rule.delay_us;
        trace_.record(now, src, sim::TraceTag::kFaultDelay, rule.delay_us);
        break;
      case FaultKind::kDuplicate:
        out.duplicate = true;
        trace_.record(now, src, sim::TraceTag::kFaultDuplicate,
                      static_cast<double>(bytes));
        break;
      case FaultKind::kCorrupt:
        out.corrupt = true;
        trace_.record(now, src, sim::TraceTag::kFaultCorrupt,
                      static_cast<double>(bytes));
        break;
      default:
        break;
    }
  }
  return out;
}

LinkFault FaultInjector::decideLink(sim::Time now, int src, int dst,
                                    MsgClass cls) {
  LinkFault out;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    FaultRule& rule = plan_.rules[i];
    if (rule.kind != FaultKind::kQpError &&
        rule.kind != FaultKind::kRegionInvalidate)
      continue;
    if (!fires(rule, matched_[i], src, dst, cls)) continue;
    ++counts_[static_cast<std::size_t>(rule.kind)];
    if (rule.kind == FaultKind::kQpError) {
      out.qp_error = true;
      trace_.record(now, src, sim::TraceTag::kFaultQpError);
    } else {
      out.region_invalidate = true;
      trace_.record(now, src, sim::TraceTag::kFaultRegionInvalid);
    }
  }
  return out;
}

}  // namespace ckd::fault
