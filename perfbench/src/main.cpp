// perfbench: runs one workload of the host-performance benchmark in this
// process, repetition after repetition, and prints one JSON line per
// repetition (host timings; CPU time and minor faults from getrusage over
// the same setup-to-quiescence interval; attempted and failed operations;
// the virtual-result digest; layer counters and, for traced repetitions,
// span self times), then one closing line with the process's peak resident
// set (VmHWM). run.py generates the inputs and turns the lines into the
// benchmark's metrics.
//
//   perfbench --workload storm|storm_sharded|stencil|oneside --input FILE
//             --seconds S [--trace 0|1] [--spans-out FILE]
//             [--expect-msg HEX --expect-ckd HEX] [--wrong-expected]
//
// A warm-up repetition runs first and is reported but not timed; for
// storm_sharded it runs on the serial engine, so it is the serial reference
// the sharded repetitions must reproduce. Measured repetitions then run
// until S seconds have passed, at least three. With --trace 1 they
// alternate untraced and traced, at least four so that two are traced, and
// the same process measures the tracing overhead.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

constexpr int kShards = 4;

/// Peak resident set of this address space. Unlike ru_maxrss, VmHWM starts
/// afresh at exec, so it does not inherit the launching process's footprint.
long peakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

void printRep(int index, bool warmup, bool traced, const Rep& rep,
              const SpanSummary* spans) {
  std::printf("{\"rep\": %d, \"warmup\": %s, \"traced\": %s, ", index,
              warmup ? "true" : "false", traced ? "true" : "false");
  std::printf("\"setup_s\": %.9g, \"run_s\": %.9g, ", rep.setup_s, rep.run_s);
  std::printf("\"cpu_s\": %.9g, \"sys_s\": %.9g, \"minor_faults\": %ld, ",
              rep.cpu_s, rep.sys_s, rep.minor_faults);
  std::printf("\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"digest\": \"%016" PRIx64 "\", ",
              rep.attempted, rep.failed, rep.digest);
  std::printf("\"virtual\": {");
  for (std::size_t i = 0; i < rep.virtualResults.size(); ++i)
    std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                rep.virtualResults[i].first.c_str(),
                rep.virtualResults[i].second.c_str());
  std::printf("}, \"counters\": {");
  for (std::size_t i = 0; i < rep.counters.size(); ++i)
    std::printf("%s\"%s\": %.17g", i ? ", " : "", rep.counters[i].first.c_str(),
                rep.counters[i].second);
  std::printf("}");
  if (spans != nullptr) {
    std::printf(", \"spans\": {");
    for (std::size_t k = 0; k < kSpanNames; ++k)
      std::printf("%s\"%s\": {\"total_s\": %.9g, \"self_s\": %.9g, "
                  "\"count\": %" PRIu64 "}",
                  k ? ", " : "", spanName(static_cast<SpanName>(k)),
                  spans->total_s[k], spans->self_s[k], spans->count[k]);
    std::printf("}");
  }
  std::printf("}\n");
  std::fflush(stdout);
}

[[noreturn]] void usageError(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options opt;
  double seconds = 0.0;
  bool trace = false;
  std::string spansOut;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usageError(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--input") opt.input = value();
    else if (arg == "--seconds") seconds = std::atof(value().c_str());
    else if (arg == "--trace") trace = value() == "1";
    else if (arg == "--spans-out") spansOut = value();
    else if (arg == "--expect-msg") opt.expectMsg = value();
    else if (arg == "--expect-ckd") opt.expectCkd = value();
    else if (arg == "--wrong-expected") opt.wrongExpected = true;
    else usageError(("unknown argument " + arg).c_str());
  }
  if (opt.input.empty()) usageError("--input is required");
  if (!(seconds > 0.0)) usageError("--seconds must be given and positive");
  const int minReps = trace ? 4 : 3;

  Rep (*runOnce)(const Options&, bool) = nullptr;
  if (workload == "storm")
    runOnce = [](const Options& o, bool) { return runStorm(o, 0); };
  else if (workload == "storm_sharded")
    runOnce = [](const Options& o, bool warmup) {
      return runStorm(o, warmup ? 0 : kShards);
    };
  else if (workload == "stencil")
    runOnce = [](const Options& o, bool) { return runStencil(o); };
  else if (workload == "oneside")
    runOnce = [](const Options& o, bool) { return runOneside(o); };
  else
    usageError("unknown --workload");

  try {
    double measured = 0.0;
    for (int rep = 0;; ++rep) {
      const bool warmup = rep == 0;
      const bool traced = trace && !warmup && rep % 2 == 0;
      setTracing(traced);
      // Untraced repetitions record nothing, so the last traced
      // repetition's spans survive to be written out at the end.
      if (traced) clearSpans();
      const Clock::time_point t0 = Clock::now();
      const Rep r = runOnce(opt, warmup);
      const double wall = secondsSince(t0);
      setTracing(false);
      SpanSummary summary;
      if (traced) summary = summarizeSpans();
      printRep(rep, warmup, traced, r, traced ? &summary : nullptr);
      if (warmup) continue;
      measured += wall;
      if (rep >= minReps && measured >= seconds) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!spansOut.empty() && !writeSpansCsv(spansOut))
    usageError("cannot write --spans-out file");
  const long peak = peakRssKb();
  if (peak <= 0) usageError("cannot read VmHWM from /proc/self/status");
  std::printf("{\"peak_rss_kb\": %ld}\n", peak);
  return 0;
}
