#pragma once
// Host-time spans recorded by the benchmark around its own calls into the
// simulator's layers. Spans live in memory (one buffer per thread, so the
// sharded engine's workers record without locks) and are summarized or
// written out between repetitions, never while the simulation runs.
//
// A span's parent is the innermost open span of the same thread; a span
// opened on a thread with nothing open (a shard worker running a handler)
// hangs off the open `kRun` span. Self time is the span's duration minus
// the part of its interval that its children cover.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kSetup = 0,   ///< machine / runtime / world construction
  kArraySetup,  ///< chare-array creation plus element init
  kRun,         ///< one call that runs the simulation to quiescence
  kHandler,     ///< a benchmark-owned handler or completion callback
  kSend,        ///< charm ArrayProxy::send
  kDirectPut,   ///< CkDirect put
  kPgasIssue,   ///< PGAS put-with-signal
  kMpiIssue,    ///< mini-MPI isend / irecv
  kCount,
};

constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);

const char* spanName(SpanName name);

/// Turn recording on or off. Call only while no simulation is running.
void setTracing(bool on);
bool tracing();

struct SpanBuffer;

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(SpanName name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuffer* buf_ = nullptr;
  std::uint32_t index_ = 0;
};

struct SpanSummary {
  std::array<double, kSpanNames> total_s{};  ///< summed durations
  std::array<double, kSpanNames> self_s{};   ///< summed self times
  std::array<std::uint64_t, kSpanNames> count{};
};

/// Summarize every recorded span. Call only while no simulation is running.
SpanSummary summarizeSpans();

/// Write every recorded span as CSV (name,thread,index,parent_thread,
/// parent_index,start_ns,end_ns). Returns false when the file cannot be
/// written.
bool writeSpansCsv(const std::string& path);

/// Drop every recorded span.
void clearSpans();

}  // namespace perfbench
