#pragma once
// A miniature MPI over the simulated fabric — the baseline the paper
// compares CkDirect against (§2.3, §3). Event-driven (completion callbacks
// instead of blocking calls), but semantically faithful where it matters:
//
//  * two-sided send/recv with real tag/source matching, wildcards, an
//    unexpected-message queue, and FIFO matching order;
//  * eager vs. rendezvous protocol selection per flavor, with the
//    registration/handshake costs Table 1's large-message rows exhibit;
//  * one-sided windows with MPI_Put under post-start-complete-wait (PSCW)
//    synchronization — the scheme the paper singles out as the overhead
//    CkDirect avoids. Post/complete tokens are real control messages; puts
//    require a started epoch, and wait completes only when every announced
//    put has landed.
//
// The layer runs standalone on a Fabric (no Charm++ scheduler involved),
// matching how the paper measured MPI.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fault/reliable.hpp"
#include "mpi/mpi_costs.hpp"
#include "net/fabric.hpp"

namespace ckd::mpi {

class MiniMpi {
 public:
  static constexpr int kAnySource = -1;
  static constexpr int kAnyTag = -1;

  MiniMpi(net::Fabric& fabric, MpiCosts costs);

  net::Fabric& fabric() { return fabric_; }
  const MpiCosts& costs() const { return costs_; }
  sim::Engine& engine() { return fabric_.engine(); }
  int numRanks() const { return fabric_.numPes(); }

  // --- two-sided -------------------------------------------------------------

  struct RecvResult {
    int source = -1;
    int tag = -1;
    std::size_t bytes = 0;
  };
  using RecvCallback = std::function<void(const RecvResult&)>;

  /// Nonblocking send; `onSent` fires when the send buffer is reusable.
  void isend(int srcRank, int dstRank, int tag, const void* data,
             std::size_t bytes, std::function<void()> onSent = {});

  /// Nonblocking receive; `source`/`tag` may be kAnySource/kAnyTag.
  /// `onComplete` fires once a matching message has fully arrived.
  void irecv(int rank, int source, int tag, void* buffer,
             std::size_t capacity, RecvCallback onComplete);

  std::size_t postedRecvCount(int rank) const;
  std::size_t unexpectedCount(int rank) const;

  // --- one-sided (RMA windows + PSCW) ------------------------------------------

  using WinId = int;

  /// Expose [base, base+bytes) of `rank` for remote access.
  WinId createWindow(int rank, void* base, std::size_t bytes);

  /// Target side: open an exposure epoch for `origins` (MPI_Win_post).
  void winPost(WinId win, const std::vector<int>& origins);

  /// Origin side: open an access epoch on `win` (MPI_Win_start). The
  /// callback fires once the target's post token has arrived.
  void winStart(WinId win, int originRank, std::function<void()> onStarted);

  /// MPI_Put into the window at `targetOffset`. Requires a started epoch.
  void put(WinId win, int originRank, std::size_t targetOffset,
           const void* data, std::size_t bytes);

  /// Origin side: close the access epoch (MPI_Win_complete).
  void winComplete(WinId win, int originRank);

  /// Target side: MPI_Win_wait — fires when every origin completed and all
  /// its puts have landed.
  void winWait(WinId win, std::function<void()> onDone);

  std::uint64_t sendsPosted() const { return sends_; }

  // --- RDMA channel (Liu et al., MPICH2 over InfiniBand) ---------------------
  // Persistent buffer association: each directed connection owns a ring of
  // pre-registered slots the sender RDMA-writes eagerly into, with
  // credit-based flow control (returns piggybacked on reverse traffic, or an
  // explicit credit message once half the ring is owed). Messages above the
  // slot size take an RDMA rendezvous: RTS/CTS, then a write straight into
  // the user buffer with a registration-cache hit. One-sided windows keep
  // the classic PSCW path.

  /// Route subsequent two-sided traffic over the RDMA channel.
  void enableRdmaChannel() { rdmaChannel_ = true; }
  bool rdmaChannelEnabled() const { return rdmaChannel_; }
  /// Send credits currently available on the directed connection src -> dst.
  int sendCredits(int src, int dst) const;
  /// Freed-but-unreturned credits held at the receiver of src -> dst.
  /// Conservation invariant once the fabric quiesces with every receive
  /// matched: sendCredits + owedCredits == rdma_credits for every directed
  /// connection — anything less is a leaked persistent slot.
  int owedCredits(int src, int dst) const;

  /// Route the wire traffic (RDMA-eager slot writes, rendezvous data,
  /// classic eager, and every control message: RTS/grant, credit returns,
  /// PSCW tokens) over a go-back-N fault::ReliableLink. Without this an
  /// armed fault injector breaks the channel outright: a dropped eager
  /// write loses its persistent slot (and any piggybacked credits) forever,
  /// a dropped credit return deadlocks stalled senders, and a corrupted
  /// payload is delivered as-is. Call after Fabric::installFaults; when
  /// never called the raw-fabric path is taken verbatim (zero cost change).
  void armReliability(const fault::ReliabilityParams& rel);
  bool reliabilityArmed() const { return link_ != nullptr; }
  /// Wire-level retransmissions performed by the armed link (0 when unarmed).
  std::uint64_t linkRetransmits() const {
    return link_ == nullptr ? 0 : link_->retransmits();
  }

  /// Sends that had to queue because the connection was out of credits.
  std::uint64_t creditStalls() const {
    return fabric_.tagCount(sim::TraceTag::kMpiRdmaStall);
  }
  /// Explicit credit-return control messages (the piggyback misses).
  std::uint64_t creditReturnMessages() const {
    return fabric_.tagCount(sim::TraceTag::kMpiRdmaCredit);
  }
  /// Credits returned for free on reverse-direction eager sends.
  std::uint64_t piggybackedCredits() const { return piggybacked_; }

 private:
  /// Model `cost` microseconds of MPI-library software work, attributed to
  /// the transport tier, then run `fn`.
  void softwareDelay(sim::Time cost, std::function<void()> fn);

  /// Directed-pair flow key on the reliable link (size-independent, the
  /// transport convention).
  static int pairChannel(int src, int dst) { return (src << 20) + dst; }
  /// Ship `payload` src -> dst and run `onDeliver` with it at the receiver:
  /// over the reliable link when armed, else one raw fabric transfer with
  /// the flavor's serialization class.
  void shipData(int src, int dst, const net::XferClass& cls,
                bool occupiesPorts, fault::MsgClass mcls,
                std::vector<std::byte> payload,
                std::function<void(std::vector<std::byte>&&)> onDeliver,
                std::uint64_t traceId);

  struct PostedRecv {
    int source;
    int tag;
    std::byte* buffer;
    std::size_t capacity;
    RecvCallback callback;
  };
  struct UnexpectedMsg {
    int source;
    int tag;
    std::vector<std::byte> data;
    bool rdmaSlot = false;       // data still occupies a persistent slot
    std::uint64_t traceId = 0;   // causal chain id (RDMA channel only)
  };
  struct PendingRts {  // rendezvous request-to-send awaiting a match
    int source;
    int tag;
    std::size_t bytes;
    std::uint64_t id;
    bool rdma = false;           // RDMA-channel rendezvous (cheap handshake)
    std::uint64_t traceId = 0;
  };
  struct RankState {
    std::deque<PostedRecv> recvs;
    std::deque<UnexpectedMsg> unexpected;
    std::deque<PendingRts> rts;
  };
  struct RndvSend {
    int src;
    int dst;
    std::vector<std::byte> data;
    std::function<void()> onSent;
    std::uint64_t traceId = 0;
  };
  struct StalledSend {  // eager send parked until a credit comes back
    int tag;
    std::vector<std::byte> payload;
    std::function<void()> onSent;
    std::uint64_t traceId;
  };
  struct ConnSend {  // sender-side state of one directed connection
    int credits = 0;
    std::deque<StalledSend> stalled;
  };
  struct Window {
    int rank = -1;
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    // Target-side exposure epoch.
    std::set<int> postedOrigins;
    std::map<int, std::uint64_t> announced;  // puts promised per origin
    std::map<int, std::uint64_t> arrived;    // puts landed per origin
    std::set<int> completed;                 // complete tokens received
    std::function<void()> waitCallback;
  };
  struct OriginEpoch {
    bool tokenArrived = false;
    bool started = false;
    std::function<void()> startCallback;
    std::uint64_t putsIssued = 0;
  };

  static bool matches(int wantSource, int wantTag, int source, int tag) {
    return (wantSource == kAnySource || wantSource == source) &&
           (wantTag == kAnyTag || wantTag == tag);
  }

  void eagerArrive(int dst, int src, int tag, std::vector<std::byte> data);
  void rtsArrive(int dst, PendingRts rts);
  void grantRndv(int dst, const PendingRts& rts, PostedRecv recv);
  void sendControl(int src, int dst, std::function<void()> onArrive);
  ConnSend& connSendState(int src, int dst);
  /// Take (and zero) the credits this rank owes the peer on the reverse
  /// connection dst -> src, to ride along on a src -> dst send.
  int takePiggyback(int src, int dst);
  void rdmaEagerSendNow(int src, int dst, int tag,
                        std::vector<std::byte> payload,
                        std::function<void()> onSent, std::uint64_t traceId);
  void rdmaEagerArrive(int dst, int src, int tag, std::vector<std::byte> data,
                       int piggy, std::uint64_t traceId);
  /// A persistent slot of connection src -> dst was copied out at dst.
  void slotFreed(int src, int dst);
  /// `n` credits for connection sender -> receiver arrived back at sender.
  void creditArrive(int sender, int receiver, int n);
  void drainStalled(int sender, int receiver);
  void putArrived(WinId win, int origin);
  void checkWaitDone(WinId win);
  Window& window(WinId win);
  RankState& rank(int r);

  net::Fabric& fabric_;
  MpiCosts costs_;
  /// Non-null once armReliability() ran; every wire transfer then goes
  /// through it instead of raw fabric submits.
  std::unique_ptr<fault::ReliableLink> link_;
  std::vector<RankState> ranks_;
  std::vector<Window> windows_;
  std::map<std::pair<WinId, int>, OriginEpoch> origins_;
  std::map<std::uint64_t, RndvSend> rndvSends_;
  std::map<std::uint64_t, PostedRecv> rndvRecvs_;
  std::uint64_t nextRndvId_ = 0;
  std::uint64_t sends_ = 0;

  bool rdmaChannel_ = false;
  std::map<std::pair<int, int>, ConnSend> connSend_;  // {sender, receiver}
  /// Freed-but-unreturned credits, held at the receiver of each connection.
  std::map<std::pair<int, int>, int> connOwed_;  // {sender, receiver}
  std::uint64_t piggybacked_ = 0;
};

}  // namespace ckd::mpi
