// storm / storm_sharded: every PE of an Abe machine is one end of an
// eager-message pingpong pair, one message in flight per pair. The
// generated input names the pairs (a mix of intra- and inter-node
// partners) and each pair's payload size, all below the eager cutoff.
// Every delivery is checked: the payload must carry the expected round-trip
// stamp and the pair's byte pattern, and every pair must finish exactly its
// round-trip count.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "charm/proxy.hpp"
#include "harness/machines.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using namespace ckd;

struct Pair {
  int a = 0;  ///< initiator PE (and element index)
  int b = 0;  ///< echo PE
  std::size_t bytes = 0;
};

struct StormInput {
  int pes = 0;
  int pesPerNode = 0;
  int iters = 0;
  std::vector<Pair> pairs;
};

StormInput loadStorm(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open storm input " + path);
  StormInput s;
  std::string key;
  std::size_t count = 0;
  in >> key >> s.pes >> key >> s.pesPerNode >> key >> s.iters >> key >> count;
  if (!in || s.pes <= 0 || s.pesPerNode <= 0 || s.iters <= 0 ||
      count * 2 != static_cast<std::size_t>(s.pes))
    throw std::runtime_error("malformed storm input header");
  std::vector<bool> seen(static_cast<std::size_t>(s.pes), false);
  for (std::size_t i = 0; i < count; ++i) {
    Pair p;
    in >> p.a >> p.b >> p.bytes;
    if (!in || p.a < 0 || p.b < 0 || p.a >= s.pes || p.b >= s.pes ||
        seen[static_cast<std::size_t>(p.a)] ||
        seen[static_cast<std::size_t>(p.b)] || p.a == p.b || p.bytes < 16 ||
        p.bytes > 16384)
      throw std::runtime_error("malformed storm pair line");
    seen[static_cast<std::size_t>(p.a)] = seen[static_cast<std::size_t>(p.b)] =
        true;
    s.pairs.push_back(p);
  }
  return s;
}

class StormChare final : public charm::Chare {
 public:
  charm::ArrayProxy<StormChare> proxy;
  charm::EntryId epPing = -1;
  std::int64_t partner = -1;
  bool initiator = false;
  int rounds = 0;                ///< round trips the pair runs
  int delivered = 0;             ///< deliveries seen by this element
  std::uint64_t bad = 0;         ///< deliveries with a damaged payload
  sim::Time finishedAt = 0.0;    ///< virtual time of the last delivery
  std::vector<std::byte> payload;  ///< pair pattern; first 8 bytes = stamp

  void start(charm::Message&) {
    Span handler(SpanName::kHandler);
    sendStamped();
  }

  void ping(charm::Message& msg) {
    Span handler(SpanName::kHandler);
    if (!intact(msg.payload())) ++bad;
    ++delivered;
    finishedAt = rts().scheduler(myPe()).currentTime();
    if (!initiator) {
      Span send(SpanName::kSend);
      proxy[partner].send(epPing, msg.payload());
      return;
    }
    if (delivered < rounds) sendStamped();
  }

 private:
  void sendStamped() {
    const auto stamp = static_cast<std::uint64_t>(delivered);
    std::memcpy(payload.data(), &stamp, sizeof(stamp));
    Span send(SpanName::kSend);
    proxy[partner].send(epPing, std::span<const std::byte>(payload));
  }

  /// The payload must be this round trip's stamp plus the pair pattern.
  bool intact(std::span<const std::byte> got) const {
    if (got.size() != payload.size()) return false;
    std::uint64_t stamp = 0;
    std::memcpy(&stamp, got.data(), sizeof(stamp));
    return stamp == static_cast<std::uint64_t>(delivered) &&
           std::memcmp(got.data() + sizeof(stamp),
                       payload.data() + sizeof(stamp),
                       payload.size() - sizeof(stamp)) == 0;
  }
};

}  // namespace

Rep runStorm(const Options& opt, int shards) {
  static const StormInput in = loadStorm(opt.input);
  const int expectRounds = in.iters + (opt.wrongExpected ? 1 : 0);
  Rep rep;
  const PoolMark pools;
  const Mark start;

  std::optional<charm::Runtime> rts;
  {
    Span span(SpanName::kSetup);
    charm::MachineConfig machine = harness::abeMachine(in.pes, in.pesPerNode);
    machine.shards = shards;
    rts.emplace(std::move(machine));
  }
  charm::ArrayProxy<StormChare> proxy;
  charm::EntryId epStart = -1;
  {
    Span span(SpanName::kArraySetup);
    proxy = charm::makeArray<StormChare>(
        *rts, "storm", in.pes,
        [](std::int64_t i) { return static_cast<int>(i); },
        [](std::int64_t) { return std::make_unique<StormChare>(); });
    epStart = proxy.registerEntry("start", &StormChare::start);
    const charm::EntryId epPing =
        proxy.registerEntry("ping", &StormChare::ping);
    for (std::size_t i = 0; i < in.pairs.size(); ++i) {
      const Pair& p = in.pairs[i];
      std::vector<std::byte> pattern(p.bytes);
      for (std::size_t j = 0; j < p.bytes; ++j)
        pattern[j] = static_cast<std::byte>((i * 131u + j * 7u + 3u) & 0xffu);
      for (const bool first : {true, false}) {
        StormChare& el = proxy[first ? p.a : p.b].local();
        el.proxy = proxy;
        el.epPing = epPing;
        el.partner = first ? p.b : p.a;
        el.initiator = first;
        el.rounds = in.iters;
        el.payload = pattern;
      }
    }
  }
  rts->seed([proxy, epStart]() {
    Span handler(SpanName::kHandler);
    for (const Pair& p : in.pairs) {
      Span send(SpanName::kSend);
      proxy[p.a].send(epStart);
    }
  });

  const Mark runStart;
  {
    Span span(SpanName::kRun);
    rts->run();
  }
  rep.charge(start, runStart);

  // Deliveries are the operations: two per round trip.
  std::uint64_t digest = fold(1469598103934665603ull, rts->now());
  for (const Pair& p : in.pairs) {
    const StormChare& a = proxy[p.a].local();
    const StormChare& b = proxy[p.b].local();
    const auto perPair = static_cast<std::uint64_t>(2 * in.iters);
    rep.attempted += perPair;
    std::uint64_t failed = a.bad + b.bad;
    if (a.delivered != expectRounds || b.delivered != expectRounds)
      failed = perPair;
    rep.failed += std::min(failed, perPair);
    digest = fold(digest, a.finishedAt);
    digest = fold(digest, b.finishedAt);
  }
  digest = fold(digest, rts->executedEvents());
  rep.digest = digest;
  countRuntime(rep, *rts);
  countPools(rep, pools);
  return rep;
}

}  // namespace perfbench
