#pragma once
// BufferPool: size-classed recycling for the simulator's wire buffers.
//
// Every charm::Message owns a contiguous [header][payload] image; under
// heavy traffic those buffers are allocated and freed millions of times per
// run with a handful of distinct sizes. The pool hands them out from
// power-of-two size classes (64 B .. 4 MB) and keeps freed blocks on a
// per-class free list, so the steady state allocates nothing.
//
// Determinism contract: pooling must never change virtual-time results.
// That holds because (a) nothing in the simulator branches on pointer
// values, and (b) recycled blocks are never read before they are written
// (acquire() deliberately leaves contents stale — see Message::makeUninit).
// The CKD_POOLS=off escape hatch (or setEnabled(false), the test hook)
// switches acquire/release to plain new[]/delete[] *with identical
// geometry*, which is what the determinism A/B test compares against.
//
// Single-threaded by design, like the engine it serves.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/require.hpp"

namespace ckd::util {

class BufferPool {
 public:
  /// Smallest / largest pooled block. Requests above kMaxPooledBytes are
  /// served exact-sized and never cached (multi-megabyte one-offs would
  /// pin too much memory).
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxPooledBytes = 4u << 20;
  /// Free blocks retained per class before release() starts freeing.
  static constexpr std::size_t kMaxFreePerClass = 1024;

  struct Stats {
    std::uint64_t hits = 0;      ///< acquires served from a free list
    std::uint64_t misses = 0;    ///< acquires that had to allocate
    std::uint64_t releases = 0;  ///< blocks returned (cached or freed)
    std::uint64_t unpooled = 0;  ///< oversized acquires, always exact-sized
    std::size_t cachedBytes = 0; ///< bytes currently parked on free lists
  };

  /// Pool serving the calling execution context: the pool installed via
  /// swapCurrent() when one is, the thread's own default pool otherwise.
  /// Each shard of the parallel engine owns a pool and installs it for the
  /// duration of its window, so a shard's free lists follow the shard across
  /// worker threads (NUMA/shard-local recycling) and acquire/release stay
  /// lock-free. A block acquired under one pool and released under another
  /// simply parks on the releaser's list — geometry is identical everywhere,
  /// and pooling never changes simulation results (the CKD_POOLS A/B gate
  /// checks that).
  static BufferPool& instance();

  /// Pools are constructible as plain members (per-shard instances); every
  /// pool registers itself so processStats() can aggregate.
  BufferPool();

  /// Install `pool` as the calling thread's current pool (nullptr restores
  /// the thread-default). Returns the previous override so callers can
  /// scope the swap. The pool must outlive the installation.
  static BufferPool* swapCurrent(BufferPool* pool);

  /// Sum of stats() over every live pool in the process (thread defaults
  /// and per-shard instances). Call only while no pool is mid-acquire on
  /// another thread — e.g. with the parallel engine's shards parked.
  static Stats processStats();

  /// Enabled state: free-list recycling on/off. Initialized from the
  /// CKD_POOLS environment variable (default on; "off"/"0" disables); tests
  /// flip it directly for A/B determinism runs. Disabling does not change
  /// block geometry — only whether freed blocks are cached.
  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = Stats{.cachedBytes = stats_.cachedBytes}; }

  /// Rounded-up capacity `bytes` will actually be served with.
  static std::size_t classCapacity(std::size_t bytes);

  /// Raw interface (PooledBuffer / PoolAllocator are the typed front ends).
  /// acquire(0) returns nullptr; contents of recycled blocks are stale.
  std::byte* acquire(std::size_t bytes);
  void release(std::byte* block, std::size_t bytes);

  /// Free every cached block (test hygiene between A/B runs).
  void trim();

  ~BufferPool();

 private:
  static int classIndex(std::size_t bytes);  ///< -1 when unpooled

  std::array<std::vector<std::byte*>, 17> free_;  // 2^6 .. 2^22
  Stats stats_;
  bool enabled_ = true;
};

/// Move-only RAII block from the BufferPool. `size()` is the requested size;
/// the underlying block may be larger (its size class).
class PooledBuffer {
 public:
  PooledBuffer() = default;
  explicit PooledBuffer(std::size_t bytes)
      : data_(BufferPool::instance().acquire(bytes)), size_(bytes) {}

  PooledBuffer(PooledBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { reset(); }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Shrink the requested size in place. The block must stay in its size
  /// class (or stay oversized), because release() files it by size.
  void truncate(std::size_t bytes) {
    const bool sameClass =
        bytes > BufferPool::kMaxPooledBytes ||
        BufferPool::classCapacity(bytes) == BufferPool::classCapacity(size_);
    CKD_REQUIRE(bytes > 0 && bytes <= size_ && sameClass,
                "truncate must keep the block in its size class");
    size_ = bytes;
  }

  void reset() {
    if (data_ != nullptr) BufferPool::instance().release(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Minimal allocator routing through the BufferPool, so allocate_shared can
/// place a Message and its shared_ptr control block in one recycled block.
template <class T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <class U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT: rebind conversion

  T* allocate(std::size_t n) {
    return reinterpret_cast<T*>(
        BufferPool::instance().acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    BufferPool::instance().release(reinterpret_cast<std::byte*>(p),
                                   n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace ckd::util
