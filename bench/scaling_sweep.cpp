// Strong/weak scaling sweep for the thread-sharded parallel engine: the
// BENCH_PR9.json generator. Runs the all-pairs eager-message storm on
// one-PE-per-node Abe machines across a grid of {PE count} x {shard count}
// and reports events/sec per cell, so a chart over the JSON shows how the
// barrier-light window protocol scales with both problem size and shards.
// Sharded cells also report their own window count and ring overflow
// (`windows`, `ring_overflow` rows, labelled like `events_per_sec`).
//
//   strong — total round trips fixed (--iters), split across pes/2 pairs:
//            bigger machines do the same virtual work with more parallelism.
//   weak   — round trips per pair fixed (--iters-per-pair): virtual work
//            grows linearly with the machine.
//
// Every cell of a row (same mode + PE count) must execute exactly the same
// number of events regardless of shard count — the always-on cross-check
// mirrors perf_engine's and exits 1 on any mismatch. Shard count 0 means the
// classic serial engine and is allowed in --shards-list as the baseline.
//
// Flags (besides the BenchRunner set — pass --json BENCH_PR9.json in CI):
//   --mode strong|weak|both   which sweeps to run (default both)
//   --pes-list N,N,...        machine sizes; one PE per node (default
//                             64,256,1024; capped at 262144 = 256k PEs)
//   --shards-list N,N,...     engine shard counts per size (default 0,1,2,4,8)
//   --iters I                 strong-mode total round trips (default 8192)
//   --iters-per-pair I        weak-mode round trips per pair (default 4)
//   --bytes B                 payload bytes, eager path (default 100)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "charm/maps.hpp"
#include "charm/proxy.hpp"
#include "harness/bench_runner.hpp"
#include "harness/machines.hpp"
#include "sim/parallel.hpp"
#include "util/args.hpp"
#include "util/require.hpp"

namespace {

using namespace ckd;

constexpr std::int64_t kMaxPes = 262144;  // 256k PEs

class SweepChare final : public charm::Chare {
 public:
  charm::ArrayProxy<SweepChare> proxy;
  charm::EntryId epPing = -1;
  int pairs = 0;
  int remaining = 0;
  std::vector<std::byte> payload;

  void start(charm::Message&) {
    proxy[thisIndex() + pairs].send(epPing,
                                    std::span<const std::byte>(payload));
  }

  void ping(charm::Message& msg) {
    if (thisIndex() >= pairs) {  // echo side
      proxy[thisIndex() - pairs].send(epPing, msg.payload());
      return;
    }
    if (--remaining > 0)
      proxy[thisIndex() + pairs].send(epPing,
                                      std::span<const std::byte>(payload));
  }
};

struct CellResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  int threads = 1;
  bool sharded = false;  ///< ran on the parallel engine (shards > 0)
  std::uint64_t windows = 0;
  std::uint64_t ringOverflow = 0;
  double eventsPerSec() const { return wall_s > 0.0 ? events / wall_s : 0.0; }
};

CellResult runCell(int pes, int itersPerPair, std::size_t bytes, int shards,
                   int shardThreads, const harness::BenchRunner& runner) {
  const int pairs = pes / 2;
  charm::MachineConfig machine = harness::abeMachine(pes, /*pesPerNode=*/1);
  machine.shards = shards;
  machine.shardThreads = shardThreads;
  if (shards > 0) runner.applyMetrics(machine);
  charm::Runtime rts(machine);
  auto proxy = charm::makeArray<SweepChare>(
      rts, "sweep", pes, [](std::int64_t i) { return static_cast<int>(i); },
      [](std::int64_t) { return std::make_unique<SweepChare>(); });
  const charm::EntryId epStart =
      proxy.registerEntry("start", &SweepChare::start);
  const charm::EntryId epPing = proxy.registerEntry("ping", &SweepChare::ping);
  for (std::int64_t i = 0; i < pes; ++i) {
    SweepChare& el = proxy[i].local();
    el.proxy = proxy;
    el.epPing = epPing;
    el.pairs = pairs;
    el.remaining = itersPerPair;
    el.payload.assign(bytes, std::byte{0});
  }
  const auto start = std::chrono::steady_clock::now();
  rts.seed([proxy, epStart, pairs]() {
    for (std::int64_t i = 0; i < pairs; ++i) proxy[i].send(epStart);
  });
  rts.run();
  CellResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.events = rts.executedEvents();
  if (const sim::ParallelEngine* par = rts.parallelEngine()) {
    result.threads = par->threads();
    result.sharded = true;
    result.windows = par->windows();
    result.ringOverflow = par->ringStats().overflow;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  harness::BenchRunner runner("scaling_sweep", args);
  const std::string mode = args.get("mode", "both");
  CKD_REQUIRE(mode == "strong" || mode == "weak" || mode == "both",
              "--mode must be strong, weak, or both");
  const std::vector<std::int64_t> pesList =
      args.getIntList("pes-list", {64, 256, 1024});
  const std::vector<std::int64_t> shardsList =
      args.getIntList("shards-list", {0, 1, 2, 4, 8});
  const int strongIters = static_cast<int>(args.getInt("iters", 8192));
  const int weakIters = static_cast<int>(args.getInt("iters-per-pair", 4));
  const std::size_t bytes =
      static_cast<std::size_t>(args.getInt("bytes", 100));
  CKD_REQUIRE(!pesList.empty() && !shardsList.empty(),
              "--pes-list / --shards-list must be non-empty");
  for (const std::int64_t pes : pesList)
    CKD_REQUIRE(pes >= 2 && pes % 2 == 0 && pes <= kMaxPes,
                "--pes-list entries must be even, >= 2, and <= 262144");
  for (const std::int64_t shards : shardsList)
    CKD_REQUIRE(shards >= 0, "--shards-list entries must be >= 0");
  CKD_REQUIRE(strongIters > 0 && weakIters > 0, "iteration counts must be "
              "positive");

  std::vector<const char*> modes;
  if (mode == "strong" || mode == "both") modes.push_back("strong");
  if (mode == "weak" || mode == "both") modes.push_back("weak");

  bool mismatch = false;
  for (const char* m : modes) {
    const bool strong = m[0] == 's';
    for (const std::int64_t pes : pesList) {
      const int pairs = static_cast<int>(pes) / 2;
      const int itersPerPair =
          strong ? std::max(1, strongIters / pairs) : weakIters;
      std::uint64_t rowEvents = 0;
      for (const std::int64_t shards : shardsList) {
        const CellResult cell =
            runCell(static_cast<int>(pes), itersPerPair, bytes,
                    static_cast<int>(shards), runner.shardThreads(), runner);
        std::printf(
            "%-6s pes %7lld shards %2lld threads %2d  %12llu events  "
            "%8.3f s  %12.0f events/sec\n",
            m, static_cast<long long>(pes), static_cast<long long>(shards),
            cell.threads, static_cast<unsigned long long>(cell.events),
            cell.wall_s, cell.eventsPerSec());
        util::JsonValue labels = util::JsonValue::object();
        labels.set("mode", util::JsonValue(m));
        labels.set("pes", util::JsonValue(pes));
        labels.set("shards", util::JsonValue(shards));
        labels.set("threads", util::JsonValue(cell.threads));
        // Every row of a cell carries the same discriminators; the shard
        // counters are per cell too, so no row describes another cell.
        runner.addMetric("events_per_sec", cell.eventsPerSec(), "1/s", labels);
        runner.addMetric("events_executed", static_cast<double>(cell.events),
                         "events", labels);
        if (cell.sharded) {
          runner.addMetric("windows", static_cast<double>(cell.windows),
                           "windows", labels);
          runner.addMetric("ring_overflow",
                           static_cast<double>(cell.ringOverflow), "entries",
                           labels);
        }
        if (rowEvents == 0) {
          rowEvents = cell.events;
        } else if (cell.events != rowEvents) {
          std::fprintf(stderr,
                       "FAIL: %s pes=%lld shards=%lld executed %llu events, "
                       "row baseline %llu\n",
                       m, static_cast<long long>(pes),
                       static_cast<long long>(shards),
                       static_cast<unsigned long long>(cell.events),
                       static_cast<unsigned long long>(rowEvents));
          mismatch = true;
        }
      }
    }
  }

  const int code = runner.finish();
  if (code != 0) return code;
  return mismatch ? 1 : 0;
}
