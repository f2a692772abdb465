#pragma once
// CkDirect — the paper's contribution (§2): a persistent, one-way, one-sided
// memory-to-memory communication channel between two chares.
//
// Usage protocol (Figure 1):
//   receiver:  Handle h = createHandle(rts, recvPe, buf, n, oob, callback);
//              ... ship `h` to the sender (e.g. inside a setup message) ...
//   sender:    assocLocal(h, sendPe, srcBuf);
//   each iteration:
//     sender:    put(h);                     // data lands directly in `buf`
//     receiver:  <callback fires when the data has fully arrived>
//                ... consume buf ...
//                ready(h);                   // or readyMark + readyPollQ
//
// No synchronization happens anywhere in this API — correctness relies on
// the application's own iteration structure, exactly as the paper requires.
// The simulator *checks* that discipline: a put whose data lands before the
// receiver re-marked the channel aborts with a diagnostic, because the real
// system would silently overwrite live data.
//
// Two implementations exist behind Manager:
//  * InfiniBand (§2.1): RDMA write + per-PE polling queue; arrival detected
//    by the out-of-band sentinel in the last 8 bytes of the buffer.
//  * Blue Gene/P (§2.2): DCMF two-sided send carrying the receive context
//    in a 2-quad-word Info header; the callback fires from the DCMF
//    completion and the ready calls are no-ops.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "charm/runtime.hpp"
#include "fault/reliable.hpp"

namespace ckd::direct {

using Callback = std::function<void()>;

/// Invoked on the sender PE when a put keeps failing past the link retry
/// budget AND the manager's own re-put budget (faults only). The channel is
/// healthy again when this fires; the application decides whether to re-put
/// or give up.
using PutErrorCallback = std::function<void(fault::WcStatus)>;

/// Opaque channel handle. Trivially copyable so applications can ship it to
/// the sender inside an ordinary message payload.
struct Handle {
  charm::Runtime* rts = nullptr;
  std::int32_t id = -1;

  bool valid() const { return rts != nullptr && id >= 0; }
};

/// Backend interface; obtain via Manager::of(runtime).
class Manager {
 public:
  virtual ~Manager() = default;

  /// Fetch (creating on first use) the CkDirect manager for a runtime. The
  /// concrete implementation matches the runtime's machine layer.
  static Manager& of(charm::Runtime& rts);

  /// Non-creating lookup: nullptr when the runtime has no CkDirect manager
  /// yet. Observers (profiling, tests) must use this so inspection never
  /// mutates the system under observation.
  static Manager* peek(charm::Runtime& rts);

  virtual std::int32_t createHandle(int receiverPe, void* buffer,
                                    std::size_t bytes, std::uint64_t oob,
                                    Callback callback) = 0;
  /// §6 extension: a channel whose destination is `blockCount` blocks of
  /// `blockBytes`, spaced `strideBytes` apart starting at `base` — e.g.
  /// consecutive rows inside a larger matrix. The sender side stays
  /// contiguous (blockCount * blockBytes). Arrival fires once, after the
  /// last block has landed.
  virtual std::int32_t createStridedHandle(int receiverPe, void* base,
                                           std::size_t blockBytes,
                                           std::size_t strideBytes,
                                           int blockCount, std::uint64_t oob,
                                           Callback callback) = 0;
  virtual void assocLocal(std::int32_t handle, int senderPe,
                          const void* sendBuffer) = 0;
  virtual void put(std::int32_t handle) = 0;
  virtual void ready(std::int32_t handle) = 0;
  virtual void readyMark(std::int32_t handle) = 0;
  virtual void readyPollQ(std::int32_t handle) = 0;

  /// Install a per-channel error callback (see PutErrorCallback). Without
  /// one, a permanently failed put aborts the simulation.
  virtual void setErrorCallback(std::int32_t /*handle*/,
                                PutErrorCallback /*callback*/) {}

  /// Elastic scale-out grew the runtime: extend the per-PE tables. Called
  /// from a serial phase via the runtime's grow hook.
  virtual void onPesGrown() {}

  /// Elastic drain/rebalance: the receiving element migrated. Move the
  /// channel's receive side to `newRecvPe` — same buffer addresses (element
  /// objects are stable), new registration/QP/polling home. Only legal while
  /// the channel is idle (marked, no data pending); the handle id is
  /// unchanged, so senders keep using the handle they were shipped.
  virtual void rehome(std::int32_t handle, int newRecvPe) = 0;

  // Introspection (tests, benches).
  virtual std::size_t pollQueueLength(int pe) const = 0;
  virtual std::uint64_t putsIssued() const = 0;
  virtual std::uint64_t callbacksInvoked() const = 0;
  /// Puts transparently re-issued after an error completion (faults only).
  virtual std::uint64_t putRetries() const { return 0; }
};

// --- paper-style free functions --------------------------------------------

/// CkDirect_createHandle: called by the *receiver*. `buffer` must outlive
/// the channel and hold at least 8 bytes; `oob` is a value the application
/// guarantees never appears in the last 8 bytes of a real payload.
Handle createHandle(charm::Runtime& rts, int receiverPe, void* buffer,
                    std::size_t bytes, std::uint64_t oob, Callback callback);

/// CkDirect_assocLocal: called by the *sender* to bind its source buffer.
/// One send buffer may be associated with many handles (multicast pattern).
void assocLocal(Handle handle, int senderPe, const void* sendBuffer);

/// CkDirect_put: transfer the whole channel-sized block. The sender must
/// leave its buffer unchanged until the receiver's callback: on InfiniBand
/// the RDMA write reads it at delivery, as the HCA would.
void put(Handle handle);

/// CkDirect_ready: mark consumed and resume polling (== readyMark +
/// readyPollQ).
void ready(Handle handle);

/// CkDirect_ReadyMark: the receiver is done with the buffer (re-arms the
/// sentinel). Call as early as possible.
void readyMark(Handle handle);

/// CkDirect_ReadyPollQ: start polling the channel again. Call only in the
/// phase where traffic is expected, to keep the polling queue short (§5.2).
void readyPollQ(Handle handle);

/// Install an error callback on the channel (fault-injection runs). Fires on
/// the sender PE after the manager's transparent recovery gives up.
void setErrorCallback(Handle handle, PutErrorCallback callback);

/// Move a channel's receive side to a new PE after its receiving element
/// migrated (elastic drain / rebalance). Receiver-idle channels only.
void rehome(Handle handle, int newRecvPe);

// --- §6 extensions -----------------------------------------------------------

/// Strided destination channel (see Manager::createStridedHandle). The
/// paper lists strided communication patterns as a planned extension; ARMCI
/// (§2.3) supports them natively.
Handle createStridedHandle(charm::Runtime& rts, int receiverPe, void* base,
                           std::size_t blockBytes, std::size_t strideBytes,
                           int blockCount, std::uint64_t oob,
                           Callback callback);

/// §6 multicast extension: a group of handles fed by one persistent send
/// buffer (§2 explicitly allows associating one buffer with many handles).
/// `put()` issues one put per member.
class Multicast {
 public:
  /// All members must have been assocLocal'd with the same send buffer.
  void add(Handle handle) { members_.push_back(handle); }
  void put() const {
    for (const Handle& h : members_) direct::put(h);
  }
  void ready() const {
    for (const Handle& h : members_) direct::ready(h);
  }
  std::size_t fanout() const { return members_.size(); }

 private:
  std::vector<Handle> members_;
};

}  // namespace ckd::direct
