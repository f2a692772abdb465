#include "apps/openatom/openatom.hpp"

#include <cstring>
#include <memory>
#include <utility>

#include "charm/maps.hpp"
#include "charm/marshal.hpp"
#include "ckdirect/ckdirect.hpp"
#include "util/require.hpp"

namespace ckd::apps::openatom {

namespace {
constexpr std::uint64_t kOob = 0x7FF8C0FFEE000003ull;
}

double pointValue(int state, int plane, int index, int step) {
  return static_cast<double>((state * 13 + plane * 7 + index * 3 + step * 11) %
                             97) /
         97.0;
}

class GsChare;
class PcChare;

/// Coordinates the two arrays' per-step barriers into one global step sync.
class DriverChare final : public charm::Chare {
 public:
  Config cfg;
  charm::ArrayProxy<GsChare> gs;
  charm::ArrayProxy<PcChare> pc;
  charm::EntryId epGsStep = -1, epPcStep = -1;

  int gsDone = 0, pcDone = 0, stepsDone = 0;

  void kick(charm::Message&) { startStep(); }

  void gsPhaseDone(charm::Message&) {
    ++gsDone;
    maybeAdvance();
  }
  void pcPhaseDone(charm::Message&) {
    ++pcDone;
    maybeAdvance();
  }

  void maybeAdvance() {
    if (gsDone == 0 || pcDone == 0) return;
    gsDone = pcDone = 0;
    ++stepsDone;
    if (stepsDone < cfg.steps) startStep();
  }

  void startStep();
};

class GsChare final : public charm::Chare {
 public:
  Config cfg;
  charm::ArrayProxy<GsChare> gs;
  charm::ArrayProxy<PcChare> pc;
  charm::ArrayProxy<DriverChare> driver;
  charm::EntryId epPoints = -1, epBackward = -1, epGsBarrier = -1,
                 epSetupBarrier = -1, epDriverGsDone = -1;

  int s = 0, p = 0;
  std::vector<double> sendPoints;
  std::vector<direct::Handle> handles;  // this GS's outgoing channels
  int handlesExpected = 0;
  int backGot = 0;
  int step = 0;
  double lastChecksum = 0.0;

  void initGeometry(std::int64_t index) {
    s = static_cast<int>(index % cfg.nstates);
    p = static_cast<int>(index / cfg.nstates);
    sendPoints.assign(static_cast<std::size_t>(cfg.points), 0.0);
    handlesExpected = 2 * cfg.stateBlocks;
  }

  std::int64_t pcIndex(int bi, int bj) const {
    return (bi * cfg.stateBlocks + bj) +
           static_cast<std::int64_t>(cfg.stateBlocks) * cfg.stateBlocks * p;
  }

  /// CkDirect setup: a PC shipped us the handle for one of our channels.
  void takeHandle(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const auto h = up.get<direct::Handle>();
    direct::assocLocal(h, myPe(), sendPoints.data());
    handles.push_back(h);
    if (static_cast<int>(handles.size()) == handlesExpected)
      barrier(epSetupBarrier);
  }

  void setupBarrier(charm::Message&) {}  // quiescence sink

  void fillPoints() {
    if (cfg.real_compute) {
      for (int idx = 0; idx < cfg.points; ++idx)
        sendPoints[static_cast<std::size_t>(idx)] = pointValue(s, p, idx, step);
    } else {
      sendPoints.back() = static_cast<double>(step + 1);
    }
  }

  void stepStart(charm::Message&) {
    if (!cfg.pc_only)
      charge(cfg.phase1_us_per_point * cfg.points);  // phase 1 (FFT etc.)
    fillPoints();
    const int myBlock = s / cfg.grain();
    if (cfg.mode == Mode::kCkDirect) {
      for (const auto& h : handles) direct::put(h);
    } else {
      for (int b = 0; b < cfg.stateBlocks; ++b) {
        sendPointsMsg(pcIndex(myBlock, b), /*left=*/true);
        sendPointsMsg(pcIndex(b, myBlock), /*left=*/false);
      }
    }
  }

  void sendPointsMsg(std::int64_t dest, bool left);

  /// Corrected points returned by a PC (ordinary message in both modes).
  void backward(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const auto values = up.getSpan<double>();
    if (cfg.real_compute && !values.empty()) lastChecksum = values[0];
    if (++backGot < handlesExpected) return;
    backGot = 0;
    if (!cfg.pc_only)
      charge(cfg.phase4_us_per_point * cfg.points);  // phase 4 (remainder)
    ++step;
    barrier(epGsBarrier);
  }

  void gsBarrier(charm::Message&) {
    if (thisIndex() == 0) driver[0].send(epDriverGsDone);
  }
};

class PcChare final : public charm::Chare {
 public:
  Config cfg;
  charm::ArrayProxy<GsChare> gs;
  charm::ArrayProxy<PcChare> pc;
  charm::ArrayProxy<DriverChare> driver;
  charm::EntryId epGsTakeHandle = -1, epGsBackward = -1, epPcBarrier = -1,
                 epDriverPcDone = -1, epPairCalc = -1;

  int bi = 0, bj = 0, p = 0;
  std::vector<double> leftBlock, rightBlock;  // grain x points each
  std::vector<direct::Handle> recvHandles;
  int got = 0;
  int step = 0;

  void initGeometry(std::int64_t index) {
    const int perPlane = cfg.stateBlocks * cfg.stateBlocks;
    const int cell = static_cast<int>(index % perPlane);
    bi = cell / cfg.stateBlocks;
    bj = cell % cfg.stateBlocks;
    p = static_cast<int>(index / perPlane);
    leftBlock.assign(static_cast<std::size_t>(cfg.grain()) * cfg.points, 0.0);
    rightBlock.assign(leftBlock.size(), 0.0);
  }

  double* slotBuffer(bool left, int slot) {
    auto& block = left ? leftBlock : rightBlock;
    return block.data() + static_cast<std::size_t>(slot) * cfg.points;
  }
  std::size_t slotBytes() const {
    return static_cast<std::size_t>(cfg.points) * sizeof(double);
  }

  /// CkDirect setup: create one handle per incoming state row and ship it
  /// to the producing GS.
  void setup(charm::Message&) {
    const int grain = cfg.grain();
    for (int slot = 0; slot < grain; ++slot) {
      createChannel(/*left=*/true, slot, bi * grain + slot);
      createChannel(/*left=*/false, slot, bj * grain + slot);
    }
  }

  void createChannel(bool left, int slot, int state) {
    direct::Handle h =
        direct::createHandle(rts(), myPe(), slotBuffer(left, slot),
                             slotBytes(), kOob, [this]() { onArrival(); });
    recvHandles.push_back(h);
    charm::Packer pk;
    pk.put<direct::Handle>(h);
    gs[state + static_cast<std::int64_t>(cfg.nstates) * p].send(
        epGsTakeHandle, std::move(pk));
  }

  /// MSG mode: points arrived as a message — copy into the contiguous
  /// block (the cost the default implementation pays, §5.1).
  void points(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const bool left = up.get<std::int32_t>() != 0;
    const auto state = up.get<std::int32_t>();
    const auto values = up.getSpan<double>();
    charge(cfg.copy_per_byte_us * static_cast<double>(values.size_bytes()));
    const int slot = state % cfg.grain();
    std::memcpy(slotBuffer(left, slot), values.data(), values.size_bytes());
    onArrival();
  }

  void onArrival() {
    if (++got < 2 * cfg.grain()) return;
    got = 0;
    if (cfg.mode == Mode::kCkDirect) {
      // §5.1: "the callback enqueues a CHARM++ entry method to perform the
      // multiplication" — accumulation happened without scheduling
      // overhead; the DGEMM pays it once.
      pc[thisIndex()].send(epPairCalc);
      return;
    }
    runPairCalc();
  }

  void pairCalcEntry(charm::Message&) { runPairCalc(); }

  void runPairCalc() {
    const int grain = cfg.grain();
    // DGEMM: S = L * R^T, grain x grain, inner dimension = points.
    charge(cfg.compute_per_flop_us * 2.0 * grain * grain * cfg.points);
    // Return corrected points to every contributor. The first value of
    // each backward payload carries the row checksum for integrity tests.
    for (int half = 0; half < 2; ++half) {
      const bool left = (half == 0);
      const int blockBase = (left ? bi : bj) * grain;
      for (int slot = 0; slot < grain; ++slot) {
        charm::Packer pk;
        std::vector<double> payload(static_cast<std::size_t>(cfg.points), 0.0);
        if (cfg.real_compute) {
          const double* row = slotBuffer(left, slot);
          double sum = 0.0;
          for (int e = 0; e < cfg.points; ++e) sum += row[e];
          payload[0] = sum;
        }
        pk.putSpan<double>(payload);
        gs[(blockBase + slot) + static_cast<std::int64_t>(cfg.nstates) * p]
            .send(epGsBackward, std::move(pk));
      }
    }
    if (cfg.mode == Mode::kCkDirect) {
      if (cfg.ready == ReadyStrategy::kNaive) {
        for (const auto& h : recvHandles) direct::ready(h);
      } else {
        for (const auto& h : recvHandles) direct::readyMark(h);
      }
    }
    ++step;
    barrier(epPcBarrier);
  }

  void pcBarrier(charm::Message&) {
    if (thisIndex() == 0) driver[0].send(epDriverPcDone);
  }

  void stepStart(charm::Message&) {
    // The phase using the channels is about to run: resume polling now and
    // only now (§5.2's ReadyPollQ placement). Any data that already landed
    // undetected is noticed immediately; channels whose data was already
    // received (callback fired, not yet re-marked) are left alone by the
    // runtime (§2.1's "if new data has not already been received").
    if (cfg.mode == Mode::kCkDirect &&
        cfg.ready == ReadyStrategy::kMarkDeferPoll)
      for (const auto& h : recvHandles) direct::readyPollQ(h);
  }
};

void DriverChare::startStep() {
  gs.broadcast(epGsStep);
  pc.broadcast(epPcStep);
}

void GsChare::sendPointsMsg(std::int64_t dest, bool left) {
  charm::Packer pk;
  pk.put<std::int32_t>(left ? 1 : 0);
  pk.put<std::int32_t>(s);
  pk.putSpan<double>(sendPoints);
  pc[dest].send(epPoints, std::move(pk));
}

OpenAtomApp::OpenAtomApp(charm::Runtime& rts, Config cfg)
    : rts_(rts), cfg_(cfg) {
  CKD_REQUIRE(cfg.nstates % cfg.stateBlocks == 0,
              "state count must divide into state blocks");
  CKD_REQUIRE(cfg.points >= 1, "need at least one point per GS");
  const int pes = rts_.numPes();

  gs_ = charm::makeArray<GsChare>(
      rts_, "gs", cfg.numGs(), charm::blockMap(cfg.numGs(), pes),
      [](std::int64_t) { return std::make_unique<GsChare>(); });
  pc_ = charm::makeArray<PcChare>(
      rts_, "pc", cfg.numPcs(), charm::blockMap(cfg.numPcs(), pes),
      [](std::int64_t) { return std::make_unique<PcChare>(); });
  driver_ = charm::makeArray<DriverChare>(
      rts_, "driver", 1, charm::singlePeMap(0),
      [](std::int64_t) { return std::make_unique<DriverChare>(); });

  // GS entries.
  const auto epGsStep = gs_.registerEntry("stepStart", &GsChare::stepStart);
  const auto epGsTakeHandle =
      gs_.registerEntry("takeHandle", &GsChare::takeHandle);
  const auto epGsBackward = gs_.registerEntry("backward", &GsChare::backward);
  const auto epGsBarrier = gs_.registerEntry("gsBarrier", &GsChare::gsBarrier);
  const auto epGsSetupBarrier =
      gs_.registerEntry("setupBarrier", &GsChare::setupBarrier);
  // PC entries.
  epPcSetup_ = pc_.registerEntry("setup", &PcChare::setup);
  const auto epPcStep = pc_.registerEntry("stepStart", &PcChare::stepStart);
  const auto epPcPoints = pc_.registerEntry("points", &PcChare::points);
  const auto epPcBarrier = pc_.registerEntry("pcBarrier", &PcChare::pcBarrier);
  const auto epPairCalc =
      pc_.registerEntry("pairCalc", &PcChare::pairCalcEntry);
  // Driver entries.
  epDriverKick_ = driver_.registerEntry("kick", &DriverChare::kick);
  const auto epDriverGsDone =
      driver_.registerEntry("gsPhaseDone", &DriverChare::gsPhaseDone);
  const auto epDriverPcDone =
      driver_.registerEntry("pcPhaseDone", &DriverChare::pcPhaseDone);

  for (std::int64_t idx = 0; idx < gs_.size(); ++idx) {
    GsChare& el = gs_[idx].local();
    el.cfg = cfg_;
    el.gs = gs_;
    el.pc = pc_;
    el.driver = driver_;
    el.epPoints = epPcPoints;
    el.epBackward = epGsBackward;
    el.epGsBarrier = epGsBarrier;
    el.epSetupBarrier = epGsSetupBarrier;
    el.epDriverGsDone = epDriverGsDone;
    el.initGeometry(idx);
  }
  for (std::int64_t idx = 0; idx < pc_.size(); ++idx) {
    PcChare& el = pc_[idx].local();
    el.cfg = cfg_;
    el.gs = gs_;
    el.pc = pc_;
    el.driver = driver_;
    el.epGsTakeHandle = epGsTakeHandle;
    el.epGsBackward = epGsBackward;
    el.epPcBarrier = epPcBarrier;
    el.epDriverPcDone = epDriverPcDone;
    el.epPairCalc = epPairCalc;
    el.initGeometry(idx);
  }
  DriverChare& drv = driver_[0].local();
  drv.cfg = cfg_;
  drv.gs = gs_;
  drv.pc = pc_;
  drv.epGsStep = epGsStep;
  drv.epPcStep = epPcStep;
}

Result OpenAtomApp::execute() {
  if (cfg_.mode == Mode::kCkDirect) {
    pc_.broadcast(epPcSetup_);
    rts_.run();  // quiesces after every GS passed the setup barrier
  }
  const sim::Time t0 = rts_.now();
  const std::uint64_t messagesBefore = rts_.messagesSent();
  driver_[0].send(epDriverKick_);
  rts_.run();
  Result result;
  result.total_us = rts_.now() - t0;
  result.avg_step_us = result.total_us / cfg_.steps;
  result.messages_sent = rts_.messagesSent() - messagesBefore;
  return result;
}

double OpenAtomApp::backwardChecksum(int state, int plane) const {
  return gs_[state + static_cast<std::int64_t>(cfg_.nstates) * plane]
      .local()
      .lastChecksum;
}

double OpenAtomApp::expectedChecksum(int state, int plane) const {
  double sum = 0.0;
  for (int idx = 0; idx < cfg_.points; ++idx)
    sum += pointValue(state, plane, idx, cfg_.steps - 1);
  return sum;
}

}  // namespace ckd::apps::openatom
