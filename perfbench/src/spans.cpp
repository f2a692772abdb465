#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

namespace {
constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
}  // namespace

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t parent = kNoParent;  ///< (thread slot << 32) | index
  SpanName name = SpanName::kCount;
};

/// One thread's spans, plus the stack of its open ones.
struct SpanBuffer {
  std::uint32_t slot = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::uint32_t> open;
};

namespace {

std::atomic<bool> gTracing{false};
std::atomic<std::uint64_t> gOpenRun{kNoParent};
std::mutex gRegistryMu;
// Buffers outlive their threads: shard workers exit with their runtime,
// and their spans are read afterwards.
std::vector<std::unique_ptr<SpanBuffer>> gRegistry;
thread_local SpanBuffer* tBuf = nullptr;

SpanBuffer& localBuf() {
  if (tBuf == nullptr) {
    std::lock_guard<std::mutex> lock(gRegistryMu);
    gRegistry.push_back(std::make_unique<SpanBuffer>());
    tBuf = gRegistry.back().get();
    tBuf->slot = static_cast<std::uint32_t>(gRegistry.size() - 1);
  }
  return *tBuf;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t spanId(std::uint32_t slot, std::uint32_t index) {
  return (static_cast<std::uint64_t>(slot) << 32) | index;
}

}  // namespace

const char* spanName(SpanName name) {
  switch (name) {
    case SpanName::kSetup: return "setup";
    case SpanName::kArraySetup: return "array_setup";
    case SpanName::kRun: return "run";
    case SpanName::kHandler: return "handler";
    case SpanName::kSend: return "charm_send";
    case SpanName::kDirectPut: return "ckdirect_put";
    case SpanName::kPgasIssue: return "pgas_issue";
    case SpanName::kMpiIssue: return "mpi_issue";
    case SpanName::kCount: break;
  }
  return "?";
}

void setTracing(bool on) { gTracing.store(on, std::memory_order_relaxed); }
bool tracing() { return gTracing.load(std::memory_order_relaxed); }

Span::Span(SpanName name) {
  if (!tracing()) return;
  SpanBuffer& buf = localBuf();
  SpanRecord rec;
  rec.name = name;
  rec.parent = buf.open.empty() ? gOpenRun.load(std::memory_order_relaxed)
                                : spanId(buf.slot, buf.open.back());
  index_ = static_cast<std::uint32_t>(buf.spans.size());
  buf_ = &buf;
  buf.open.push_back(index_);
  if (name == SpanName::kRun)
    gOpenRun.store(spanId(buf.slot, index_), std::memory_order_relaxed);
  rec.start_ns = nowNs();
  buf.spans.push_back(rec);
}

Span::~Span() {
  if (buf_ == nullptr) return;
  SpanRecord& rec = buf_->spans[index_];
  rec.end_ns = nowNs();
  buf_->open.pop_back();
  if (rec.name == SpanName::kRun)
    gOpenRun.store(kNoParent, std::memory_order_relaxed);
}

SpanSummary summarizeSpans() {
  std::lock_guard<std::mutex> lock(gRegistryMu);
  // Children intervals keyed by parent id, then a sweep per parent.
  std::vector<std::pair<std::uint64_t, std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& buf : gRegistry)
    for (const SpanRecord& rec : buf->spans)
      if (rec.parent != kNoParent)
        children.push_back({rec.parent, {rec.start_ns, rec.end_ns}});
  std::sort(children.begin(), children.end());

  // Span ids grow with (slot, index), the order of this walk, so one cursor
  // sweeps the sorted children once.
  SpanSummary out;
  std::size_t cursor = 0;
  for (const auto& buf : gRegistry) {
    for (std::uint32_t index = 0; index < buf->spans.size(); ++index) {
      const SpanRecord& rec = buf->spans[index];
      const std::uint64_t id = spanId(buf->slot, index);
      while (cursor < children.size() && children[cursor].first < id) ++cursor;
      // Union of the children's intervals clipped to this span.
      std::int64_t covered = 0;
      std::int64_t reach = rec.start_ns;
      for (; cursor < children.size() && children[cursor].first == id;
           ++cursor) {
        const std::int64_t lo = std::max(children[cursor].second.first, reach);
        const std::int64_t hi =
            std::min(children[cursor].second.second, rec.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
      const auto k = static_cast<std::size_t>(rec.name);
      const std::int64_t dur = rec.end_ns - rec.start_ns;
      out.total_s[k] += static_cast<double>(dur) * 1e-9;
      out.self_s[k] += static_cast<double>(dur - covered) * 1e-9;
      ++out.count[k];
    }
  }
  return out;
}

bool writeSpansCsv(const std::string& path) {
  std::lock_guard<std::mutex> lock(gRegistryMu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,thread,index,parent_thread,parent_index,start_ns,end_ns\n");
  for (const auto& buf : gRegistry) {
    for (std::uint32_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& rec = buf->spans[i];
      const long long pt =
          rec.parent == kNoParent ? -1 : static_cast<long long>(rec.parent >> 32);
      const long long pi =
          rec.parent == kNoParent ? -1
                                  : static_cast<long long>(rec.parent & 0xffffffffu);
      std::fprintf(f, "%s,%u,%u,%lld,%lld,%lld,%lld\n", spanName(rec.name),
                   buf->slot, i, pt, pi, static_cast<long long>(rec.start_ns),
                   static_cast<long long>(rec.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void clearSpans() {
  std::lock_guard<std::mutex> lock(gRegistryMu);
  for (auto& buf : gRegistry) {
    buf->spans.clear();
    buf->open.clear();
  }
}

}  // namespace perfbench
