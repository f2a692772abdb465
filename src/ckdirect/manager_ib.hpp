#pragma once
// CkDirect over InfiniBand (§2.1): RDMA writes plus a per-PE polling queue.
//
//  * createHandle registers the receive buffer with the verbs layer, writes
//    the out-of-band pattern into its last 8 bytes, and enqueues the handle
//    on the receiver's polling queue.
//  * assocLocal registers the send buffer and connects an RC queue pair.
//  * put issues one RDMA write of the whole buffer, read from the sender's
//    registered buffer at delivery (the put pins its source: the sender
//    reuses it only after the receiver's callback).
//  * The receiving RTS scans the polling queue at every scheduler pump; a
//    handle whose last double word no longer equals the sentinel has
//    received its data — it is dequeued and its callback invoked. The scan
//    costs poll_per_handle_us per queued handle per pump, which is the
//    §5.2 overhead the ReadyMark/ReadyPollQ split exists to bound. The
//    simulator skips the sentinel reads (not the modeled cost) of a scan
//    on a PE where no queued channel's write landed since the last one.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ckdirect/ckdirect.hpp"
#include "ib/verbs.hpp"

namespace ckd::direct {

class IbManager final : public Manager {
 public:
  explicit IbManager(charm::Runtime& rts);

  std::int32_t createHandle(int receiverPe, void* buffer, std::size_t bytes,
                            std::uint64_t oob, Callback callback) override;
  std::int32_t createStridedHandle(int receiverPe, void* base,
                                   std::size_t blockBytes,
                                   std::size_t strideBytes, int blockCount,
                                   std::uint64_t oob,
                                   Callback callback) override;
  void assocLocal(std::int32_t handle, int senderPe,
                  const void* sendBuffer) override;
  void put(std::int32_t handle) override;
  void ready(std::int32_t handle) override;
  void readyMark(std::int32_t handle) override;
  void readyPollQ(std::int32_t handle) override;
  void setErrorCallback(std::int32_t handle, PutErrorCallback callback) override;
  void onPesGrown() override;
  void rehome(std::int32_t handle, int newRecvPe) override;

  std::size_t pollQueueLength(int pe) const override;
  std::uint64_t putsIssued() const override {
    return puts_.load(std::memory_order_relaxed);
  }
  std::uint64_t callbacksInvoked() const override {
    return rts_.fabric().tagCount(sim::TraceTag::kDirectCallback);
  }
  std::uint64_t putRetries() const override {
    return putRetries_.load(std::memory_order_relaxed);
  }

  /// Restart protocol (runs as the runtime's reestablish hook): re-register
  /// every region the crash invalidated (buffer addresses are stable across
  /// a restore), reconnect QPs, and roll every channel back to the
  /// consistent-cut state — idle, marked, sentinel armed, polling. Bumps the
  /// channel epoch so deferred pre-crash put/retry closures die instead of
  /// re-issuing writes against rolled-back state.
  void reestablish();
  std::uint32_t channelEpoch() const { return epoch_; }

 private:
  struct Channel {
    int recvPe = -1;
    std::byte* recvBuffer = nullptr;  // base of the (possibly strided) area
    std::size_t bytes = 0;            // total payload bytes
    // Destination layout: blockCount blocks of blockBytes every strideBytes
    // (contiguous channels have blockCount == 1, blockBytes == bytes).
    std::size_t blockBytes = 0;
    std::size_t strideBytes = 0;
    int blockCount = 1;
    std::uint64_t oob = 0;
    Callback callback;
    ib::RegionId recvRegion;

    int sendPe = -1;
    const std::byte* sendBuffer = nullptr;
    ib::RegionId sendRegion;
    ib::QpId qp = ib::kInvalidQp;

    bool inPollQueue = false;
    /// True between readyMark (or creation) and the next data landing;
    /// false while the receiver still owns unconsumed data. A put that
    /// lands while this is false is an application synchronization bug.
    bool marked = false;
    /// Data has been received (callback fired) but the channel has not been
    /// readyMark'ed yet. CkDirect_ReadyPollQ is a no-op in this state —
    /// §2.1: the handle is inserted "if new data has not already been
    /// received for that handle". Without this, a blanket ReadyPollQ over
    /// all channels at a phase boundary would re-detect stale data.
    bool detected = false;

    // Fault recovery (active only when the fabric has faults armed).
    /// Transparent re-puts consumed by the current put (reset on success).
    int putAttempts = 0;
    /// A recovery is already scheduled; error completions from the other
    /// block writes of the same failed put collapse into it.
    bool errorPending = false;
    PutErrorCallback onError;

    /// Causal chain id of the in-flight put (minted per CkDirect_put; all
    /// retries of one put share it) and the chain that issued it.
    std::uint64_t activeTraceId = 0;
    std::uint64_t activeParentId = 0;
    /// First-issue instant of the in-flight put (-1 idle); transparent
    /// retries keep it, so the streaming put histogram sees one sample per
    /// logical put — issue to callback, retries included.
    sim::Time activePutAt = -1.0;
  };

  /// Channels live in per-receiver-PE chunked slabs and a handle id encodes
  /// (receiverPe, per-PE ordinal). Two properties matter under --shards:
  ///  * ids are partition- and thread-count-independent: each PE's creation
  ///    order is fixed by its own deterministic execution, unlike a global
  ///    creation-order counter whose value depends on how concurrently
  ///    executing shard windows happen to interleave;
  ///  * storage is append-stable: a sender shard may resolve an existing
  ///    handle of PE r in the very window in which r's home shard appends a
  ///    new channel. Appends write only the fresh slot of a fixed-capacity
  ///    chunk directory, never move existing channels, and publish chunk
  ///    pointers/counts with release stores (handles themselves reach other
  ///    shards through at least one window barrier).
  struct PeChannels {
    static constexpr std::int32_t kChunkSize = 16;
    static constexpr std::int32_t kMaxChunks = 256;  // 4096 channels per PE
    std::array<std::atomic<Channel*>, kMaxChunks> chunks{};
    std::atomic<std::int32_t> count{0};
    ~PeChannels() {
      for (auto& c : chunks) delete[] c.load(std::memory_order_relaxed);
    }
  };
  /// Low bits of a handle id hold the per-PE ordinal; the rest hold the PE.
  static constexpr std::int32_t kIdxBits = 12;
  static_assert((1 << kIdxBits) == PeChannels::kChunkSize * PeChannels::kMaxChunks);
  static constexpr std::int32_t makeId(std::int32_t pe, std::int32_t idx) {
    return (pe << kIdxBits) | idx;
  }

  Channel& channel(std::int32_t id);
  const Channel& channel(std::int32_t id) const;
  std::uint64_t readSentinel(const Channel& ch) const;
  void writeSentinel(Channel& ch);
  /// Post the block writes for one put (also the re-issue path on retry).
  void issueWrites(std::int32_t id);
  void onDelivered(std::int32_t id);
  void onPutError(std::int32_t id, fault::WcStatus status);
  void pollScan(int pe);
  /// Install this PE's polling-queue scan hook if it is not installed yet.
  void ensurePollHook(int pe);
  bool faultsArmed() const;

  charm::Runtime& rts_;
  ib::IbVerbs& verbs_;
  /// Per-receiver-PE channel slabs (see PeChannels); entries are allocated
  /// lazily on a PE's first createHandle. The outer vector is sized in the
  /// constructor and only ever extended — by onPesGrown, inside a serial
  /// phase — so shard-concurrent channel lookups never race a resize.
  std::vector<std::unique_ptr<PeChannels>> byPe_;
  std::vector<std::vector<std::int32_t>> pollQueue_;  // per PE
  /// Per PE: landings on queued channels since the last full scan (raised
  /// by onDelivered for a queued channel and by readyPollQ re-queueing one
  /// whose data already landed). A scan on a PE whose count is 0 cannot
  /// find a moved sentinel, so it charges its cost and skips the reads.
  /// Receiver-context state, like the PE's queue.
  std::vector<std::uint32_t> landed_;
  /// Per PE, one byte each: PEs of different shards set their flags
  /// concurrently, and std::vector<bool> would pack neighbours into one
  /// word (a read-modify-write race across the shard boundary).
  std::vector<std::uint8_t> hookInstalled_;
  /// Logical CkDirect_put calls (the direct.put tag counts issued
  /// attempts instead) and transparent re-puts. Both tick on sender shards;
  /// the channels themselves are touched by at most one shard per window
  /// (sender and receiver sides alternate across windows).
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> putRetries_{0};
  /// Bumped by reestablish(); deferred closures from an older epoch no-op.
  std::uint32_t epoch_ = 0;
};

}  // namespace ckd::direct
