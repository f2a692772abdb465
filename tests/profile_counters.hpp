#pragma once
// The integer event counters of a profile's JSON document, for tests that
// pin them: fabric.messages, ckdirect.{puts,callbacks},
// checkpoint.{taken,restarts},
// lifecycle.{scale_outs,drains_completed,migrations_aborted} and every
// tag_counts entry, keyed "<block>.<name>". A block the document leaves out
// contributes no keys, so a block that appears or vanishes shows as a diff.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

#include "harness/profile.hpp"
#include "util/json.hpp"

namespace ckd::testutil {

using Counters = std::map<std::string, std::uint64_t>;

inline Counters profileCounters(const harness::ProfileReport& report) {
  const util::JsonValue doc = harness::toJson(report);
  Counters out;
  const auto take = [&doc, &out](const std::string& block,
                                 std::initializer_list<const char*> names) {
    const util::JsonValue* obj = doc.find(block);
    if (obj == nullptr) return;
    for (const char* name : names)
      out[block + "." + name] =
          static_cast<std::uint64_t>(obj->at(name).asNumber());
  };
  take("fabric", {"messages"});
  take("ckdirect", {"puts", "callbacks"});
  take("checkpoint", {"taken", "restarts"});
  take("lifecycle", {"scale_outs", "drains_completed", "migrations_aborted"});
  for (const auto& [name, value] : doc.at("tag_counts").members())
    out["tag_counts." + name] = static_cast<std::uint64_t>(value.asNumber());
  return out;
}

}  // namespace ckd::testutil
