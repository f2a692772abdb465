// Reads the layers' own counters from outside: engine event counts,
// always-on trace-tag counters, scheduler, fabric, CkDirect and machine
// layer statistics, sharded-engine stats and process-wide pool totals.

#include <algorithm>
#include <string>

#include "bench.hpp"
#include "ckdirect/ckdirect.hpp"
#include "dcmf/dcmf.hpp"
#include "ib/verbs.hpp"
#include "sim/parallel.hpp"

namespace perfbench {

using namespace ckd;

namespace {

/// Every engine of a runtime: the serial one, or the sharded engine's
/// serial engine plus each shard.
std::vector<const sim::Engine*> engines(charm::Runtime& rts) {
  std::vector<const sim::Engine*> out;
  if (sim::ParallelEngine* par = rts.parallelEngine()) {
    out.push_back(&par->serialEngine());
    for (int s = 0; s < par->shards(); ++s) out.push_back(&par->shardEngine(s));
  } else {
    out.push_back(&rts.engine());
  }
  return out;
}

}  // namespace

void countEngines(Rep& rep, const std::vector<const sim::Engine*>& engs) {
  for (const sim::Engine* eng : engs) {
    rep.count("sim.events", static_cast<double>(eng->executedEvents()));
    const sim::TraceRecorder& trace = eng->trace();
    for (std::size_t i = 0; i < sim::kTraceTagCount; ++i) {
      const auto tag = static_cast<sim::TraceTag>(i);
      if (trace.count(tag) != 0)
        rep.count("tag." + std::string(sim::traceTagName(tag)),
                  static_cast<double>(trace.count(tag)));
    }
    // Poll-queue lengths are kept as a log2 histogram; estimate the summed
    // scan length from each bucket's midpoint.
    const auto& hist = trace.pollQueueHistogram();
    double scanned = 0.0;
    for (std::size_t b = 1; b < hist.size(); ++b) {
      const double lo = static_cast<double>(1u << (b - 1));
      const double hi = static_cast<double>(1u << b) - 1.0;
      scanned += static_cast<double>(hist[b]) * 0.5 * (lo + hi);
    }
    rep.count("ckdirect.scan_len_sum_est", scanned);
    const util::RunningStats& attempts = trace.deliveryAttempts();
    rep.count("fault.attempts_sum", attempts.sum());
    rep.count("fault.attempts_n", static_cast<double>(attempts.count()));
  }
}

void countRuntime(Rep& rep, charm::Runtime& rts) {
  countEngines(rep, engines(rts));
  double pumps = 0.0, processed = 0.0;
  for (int pe = 0; pe < rts.numPes(); ++pe) {
    pumps += static_cast<double>(rts.scheduler(pe).pumps());
    processed += static_cast<double>(rts.scheduler(pe).messagesProcessed());
  }
  rep.count("charm.pumps", pumps);
  rep.count("charm.msgs_processed", processed);
  rep.count("charm.sends", static_cast<double>(rts.messagesSent()));
  rep.count("net.fabric_msgs",
            static_cast<double>(rts.fabric().messagesSubmitted()));
  rep.count("net.fabric_bytes",
            static_cast<double>(rts.fabric().bytesSubmitted()));
  if (const direct::Manager* mgr = direct::Manager::peek(rts)) {
    rep.count("ckdirect.puts", static_cast<double>(mgr->putsIssued()));
    rep.count("ckdirect.callbacks",
              static_cast<double>(mgr->callbacksInvoked()));
  }
  if (rts.layer() == charm::LayerKind::kInfiniband) {
    rep.count("ib.rdma_writes",
              static_cast<double>(rts.ibVerbs().rdmaWritesPosted()));
    // Only the InfiniBand manager polls; BG/P callbacks need no scan.
    if (const direct::Manager* mgr = direct::Manager::peek(rts))
      rep.count("ckdirect.polled_callbacks",
                static_cast<double>(mgr->callbacksInvoked()));
  } else {
    rep.count("dcmf.sends", static_cast<double>(rts.dcmf().sendsPosted()));
  }
  if (const sim::ParallelEngine* par = rts.parallelEngine()) {
    rep.count("par.windows", static_cast<double>(par->windows()));
    const sim::ParallelEngine::RingStats rings = par->ringStats();
    rep.count("par.ring_pushes", static_cast<double>(rings.pushes));
    rep.count("par.ring_batches", static_cast<double>(rings.batches));
    double most = 0.0, sum = 0.0;
    for (int s = 0; s < par->shards(); ++s) {
      const auto ev = static_cast<double>(par->shardExecutedEvents(s));
      most = std::max(most, ev);
      sum += ev;
    }
    if (sum > 0.0)
      rep.count("par.shard_imbalance", most * par->shards() / sum);
  }
}

void countPools(Rep& rep, const PoolMark& before) {
  const util::BufferPool::Stats now = util::BufferPool::processStats();
  rep.count("pool.hits", static_cast<double>(now.hits) -
                             static_cast<double>(before.stats.hits));
  rep.count("pool.misses", static_cast<double>(now.misses) -
                               static_cast<double>(before.stats.misses));
}

}  // namespace perfbench
