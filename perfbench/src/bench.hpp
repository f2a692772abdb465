#pragma once
// Shared pieces of the benchmark binary: the per-repetition record every
// workload fills in, host clocks, and the counter helpers that read the
// layers' own always-on statistics from outside.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "charm/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/pool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The host clock and this process's resource usage at one instant.
struct Mark {
  Clock::time_point at = Clock::now();
  rusage ru = [] {
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    return r;
  }();
};

inline double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Options every workload receives from the command line.
struct Options {
  std::string input;         ///< generated input file
  bool wrongExpected = false;  ///< self-test: check against a wrong value
  std::string expectMsg;     ///< stencil reference (hex float), MSG back end
  std::string expectCkd;     ///< stencil reference (hex float), CkDirect
};

/// One repetition of a workload: host timings, the operations it attempted
/// and the ones whose output check failed, a digest of its virtual-time
/// results (must repeat bit for bit), and the layers' counters.
struct Rep {
  double setup_s = 0.0;  ///< workload start -> first simulated event
  double run_s = 0.0;    ///< simulation to quiescence
  double cpu_s = 0.0;    ///< user + system CPU over setup and run
  double sys_s = 0.0;    ///< system CPU over setup and run
  long minor_faults = 0;  ///< minor page faults over setup and run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  /// Virtual-time results, printed exactly (hex floats) for reference files.
  std::vector<std::pair<std::string, std::string>> virtualResults;
  std::vector<std::pair<std::string, double>> counters;

  /// Charges one setup-to-quiescence interval that started at `start` and
  /// whose run phase started at `runStart` and ends now: wall time to
  /// setup_s and run_s, CPU time and minor faults of the whole interval to
  /// cpu_s, sys_s and minor_faults.
  void charge(const Mark& start, const Mark& runStart) {
    const Mark end;
    setup_s += std::chrono::duration<double>(runStart.at - start.at).count();
    run_s += std::chrono::duration<double>(end.at - runStart.at).count();
    const double sys = seconds(end.ru.ru_stime) - seconds(start.ru.ru_stime);
    cpu_s += seconds(end.ru.ru_utime) - seconds(start.ru.ru_utime) + sys;
    sys_s += sys;
    minor_faults += end.ru.ru_minflt - start.ru.ru_minflt;
  }

  void count(const std::string& name, double value) {
    for (auto& [k, v] : counters)
      if (k == name) {
        v += value;
        return;
      }
    counters.emplace_back(name, value);
  }
};

/// Running FNV-1a over arbitrary bytes.
inline std::uint64_t fnv(const void* data, std::size_t bytes,
                         std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
std::uint64_t fold(std::uint64_t h, const T& value) {
  return fnv(&value, sizeof(value), h);
}

/// Events and always-on trace-tag counters of a set of engines, under the
/// benchmark's per-layer names (sim.events, ckdirect.*, fault.*, ...).
void countEngines(Rep& rep, const std::vector<const ckd::sim::Engine*>& engs);

/// Counters of a charm runtime beyond its engines: scheduler pumps, fabric
/// traffic, CkDirect manager, machine layer, sharded-engine stats.
void countRuntime(Rep& rep, ckd::charm::Runtime& rts);

/// Process-wide buffer-pool statistics (summed over shard pools).
struct PoolMark {
  ckd::util::BufferPool::Stats stats = ckd::util::BufferPool::processStats();
};
void countPools(Rep& rep, const PoolMark& before);

// Workloads. Each runs one repetition; the first call of a process may
// build any caches it keeps across repetitions.
Rep runStorm(const Options& opt, int shards);
Rep runStencil(const Options& opt);
Rep runOneside(const Options& opt);

}  // namespace perfbench
