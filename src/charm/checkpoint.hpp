#pragma once
// Fail-stop tolerance: double in-memory buddy checkpointing + restart.
//
// Protocol (DESIGN.md "Crash model"):
//  * Checkpoints are taken at reduction-root flushes — the one point where
//    every array element has contributed and none has resumed, so no user
//    message and (for the paper's applications) no CkDirect put is in
//    flight. Each PE packs its local elements through their pup() methods
//    and ships the shard to its buddy, PE (p+1) mod N, as modeled bulk wire
//    traffic over a dedicated reliable link. A snapshot becomes usable only
//    once every shard has landed at its buddy ("double in-memory": the two
//    newest completed snapshots are retained, older ones are discarded).
//  * A pe_crash fault kills the victim at its scheduled virtual time: its
//    scheduler queues are flushed, every reliable flow touching it is torn
//    down silently, and its registered memory regions stop validating.
//    Copies of pre-crash transmissions still on the wire are NAKed as stale
//    when they arrive (ReliableLink flush barrier) instead of landing in
//    since-re-registered buffers.
//  * Detection is heartbeat-based: every live PE beats to its buddy every
//    kBeatPeriodUs; the monitor declares the victim dead after kMissedBeats
//    consecutive silent periods, which models real failure-detection
//    latency. (The monitor only ever examines the actually-crashed PE, so
//    false positives cannot occur; the detection window is far shorter than
//    any retry-budget exhaustion, so in-window reliable entries never
//    surface spurious errors.)
//  * Restore is a global rollback to the newest snapshot that was safely at
//    the buddies before the crash: bump the runtime epoch (schedulers drop
//    stale-epoch messages from then on), flush every scheduler queue, revive
//    the victim, flush every reliable link and transport transaction, unpack
//    all elements IN PLACE (stable buffer addresses), clear reduction state,
//    re-run the CkDirect re-registration handshake via the runtime's
//    reestablish hook, then replay the snapshotted reduction-root delivery
//    under the new epoch. The application resumes from the cut as if the
//    crash interval never ran.

#include <cstdint>
#include <map>
#include <vector>

#include "charm/runtime.hpp"
#include "fault/reliable.hpp"
#include "sim/time.hpp"

namespace ckd::charm {

class CheckpointManager {
 public:
  /// Default virtual time between heartbeats (MachineConfig::heartbeatPeriod_us).
  static constexpr sim::Time kBeatPeriodUs = 5.0;
  /// Default silent periods before a PE is declared dead
  /// (MachineConfig::heartbeatMisses).
  static constexpr int kMissedBeats = 4;
  /// Modeled wire size of one heartbeat (control class, skips the ports).
  static constexpr std::size_t kBeatBytes = 8;

  explicit CheckpointManager(Runtime& rts);

  /// Start the fail-stop machinery: schedule the planned crashes (at their
  /// virtual times, or immediately if already past) and begin heartbeating.
  /// Applications call this at the boundary between setup and the measured
  /// run — the setup phase is NOT a resumable cut (externally injected
  /// triggers like a start broadcast arrive after it), so checkpoints are
  /// only taken at reduction roots reached after arming. The first crash
  /// must land after the first post-arm checkpoint completes.
  void arm();
  bool armed() const { return armed_; }

  /// Runtime hook, invoked at every reduction-root flush BEFORE the result
  /// fans back down — the consistent cut checkpoints are taken on. The
  /// pending root delivery is stored with the snapshot so restore can
  /// replay it.
  void onReductionRoot(ArrayId array, std::uint32_t round,
                       const Runtime::ReduceAgg& agg);

  /// Elastic scale-out grew the machine: extend the heartbeat table.
  void onPesGrown();

  /// True while a fail-stop outage is in progress (crash injected, restore
  /// not yet run). The lifecycle manager defers migrations across outages.
  bool outageInProgress() const { return crashedPe_ >= 0; }

  /// Effective heartbeat settings (config-driven; surfaced in bench JSON).
  sim::Time beatPeriodUs() const;
  int missedBeats() const;

  // --- stats (ProfileReport / bench JSON) -----------------------------------
  std::uint64_t bytesPacked() const { return bytesPacked_; }
  /// Virtual time spent between crash and completed restore, summed.
  sim::Time recoveryUs() const { return recoveryUs_; }
  int crashesPlanned() const { return static_cast<int>(crashes_.size()); }
  /// Crashes scheduled but not yet injected.
  int crashesPending() const { return pendingCrashes_; }
  /// Stale pre-crash shard arrivals NAKed on the checkpoint link itself.
  std::uint64_t shardStaleNaks() const { return shardLink_.staleNaks(); }

 private:
  struct PlannedCrash {
    sim::Time at = 0.0;
    int pe = -1;
  };
  struct Snapshot {
    sim::Time takenAt = 0.0;
    ArrayId rootArray = -1;
    std::uint32_t round = 0;
    Runtime::ReduceAgg agg;  ///< pending root delivery, replayed on restore
    std::vector<std::vector<std::byte>> shards;  ///< per-PE packed state
    int arrived = 0;     ///< shards landed at their buddies so far
    int expected = 0;    ///< shards shipped (retired PEs ship none)
    bool complete = false;
    sim::Time safeAt = 0.0;  ///< when the last buddy shard landed
    /// Elastic runs: per-array element placement at the cut, so a restore
    /// can revert migrations that happened after the snapshot.
    std::vector<std::vector<int>> peOfByArray;
    /// Opaque lifecycle state image (per-PE lifecycle states at the cut).
    std::vector<std::uint8_t> lifeImage;
  };

  /// Buddy = next non-retired PE in the ring (plain (pe+1)%N without an
  /// elastic lifecycle).
  int buddyOf(int pe) const;

  void takeCheckpoint(ArrayId array, std::uint32_t round,
                      const Runtime::ReduceAgg& agg);
  void onShardArrived(std::uint64_t id, int pe);
  /// Keep the two newest completed snapshots; drop everything older.
  void pruneSnapshots();
  void injectCrash(std::size_t which);
  void heartbeatTick();
  void restore();

  Runtime& rts_;
  /// Buddy shard shipping rides its own go-back-N link so checkpoints
  /// survive the same wire faults the application traffic does.
  fault::ReliableLink shardLink_;
  std::vector<PlannedCrash> crashes_;  ///< sorted by time
  std::map<std::uint64_t, Snapshot> snapshots_;
  std::uint64_t nextSnapId_ = 0;
  sim::Time lastCkptAt_ = -1.0;  ///< < 0: genesis checkpoint not yet taken
  std::vector<sim::Time> lastBeat_;
  int crashedPe_ = -1;  ///< victim of the in-progress outage, or -1
  sim::Time crashAt_ = 0.0;
  int pendingCrashes_ = 0;
  bool armed_ = false;
  std::uint64_t bytesPacked_ = 0;
  sim::Time recoveryUs_ = 0.0;
};

}  // namespace ckd::charm
