#include "apps/stencil/stencil.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "charm/checkpoint.hpp"
#include "charm/maps.hpp"
#include "charm/marshal.hpp"
#include "charm/pup.hpp"
#include "ckdirect/ckdirect.hpp"
#include "util/require.hpp"

namespace ckd::apps::stencil {

namespace {

// Sentinel pattern for the CkDirect channels: a quiet-NaN payload that a
// Jacobi average can never produce.
constexpr std::uint64_t kOob = 0x7FF8DEADBEEF0001ull;

// Face directions: -x, +x, -y, +y, -z, +z.
constexpr int kDirs = 6;
constexpr int opposite(int dir) { return dir ^ 1; }

}  // namespace

double initialValue(std::int64_t x, std::int64_t y, std::int64_t z) {
  return static_cast<double>((x * 31 + y * 17 + z * 7) % 101) / 101.0;
}

void chooseChareGrid(std::int64_t gx, std::int64_t gy, std::int64_t gz,
                     int chares, int& cx, int& cy, int& cz) {
  CKD_REQUIRE(chares > 0 && (chares & (chares - 1)) == 0,
              "chare count must be a power of two");
  cx = cy = cz = 1;
  int remaining = chares;
  while (remaining > 1) {
    // Split the dimension whose blocks are currently largest (and still
    // evenly divisible).
    const double bx = static_cast<double>(gx) / cx;
    const double by = static_cast<double>(gy) / cy;
    const double bz = static_cast<double>(gz) / cz;
    int* chosen = nullptr;
    double best = -1.0;
    if (gx % (static_cast<std::int64_t>(cx) * 2) == 0 && bx > best) {
      best = bx;
      chosen = &cx;
    }
    if (gy % (static_cast<std::int64_t>(cy) * 2) == 0 && by > best) {
      best = by;
      chosen = &cy;
    }
    if (gz % (static_cast<std::int64_t>(cz) * 2) == 0 && bz > best) {
      best = bz;
      chosen = &cz;
    }
    CKD_REQUIRE(chosen != nullptr,
                "domain cannot be split into this many chares");
    *chosen *= 2;
    remaining /= 2;
  }
}

class StencilChare final : public charm::Chare {
 public:
  // Wiring (assigned after construction by StencilApp).
  Config cfg;
  charm::ArrayProxy<StencilChare> proxy;
  charm::EntryId epSetup = -1, epHandle = -1, epStart = -1, epGhost = -1,
                 epBarrier = -1, epSetupDone = -1, epCompute = -1;

  void initGeometry(std::int64_t index) {
    ci = static_cast<int>(index % cfg.cx);
    cj = static_cast<int>((index / cfg.cx) % cfg.cy);
    ck = static_cast<int>(index / (static_cast<std::int64_t>(cfg.cx) * cfg.cy));
    bx = cfg.gx / cfg.cx;
    by = cfg.gy / cfg.cy;
    bz = cfg.gz / cfg.cz;
    for (int d = 0; d < kDirs; ++d) {
      neighbor[d] = neighborIndex(d);
      if (neighbor[d] >= 0) ++neighborCount;
      const std::size_t n = faceElems(d);
      sendFace[d].assign(n, 0.0);
      recvFace[d].assign(n, 0.0);
    }
    if (cfg.real_compute) {
      block.resize(static_cast<std::size_t>(bx * by * bz));
      next.resize(block.size());
      for (std::int64_t z = 0; z < bz; ++z)
        for (std::int64_t y = 0; y < by; ++y)
          for (std::int64_t x = 0; x < bx; ++x)
            block[blockIdx(x, y, z)] =
                initialValue(ci * bx + x, cj * by + y, ck * bz + z);
    }
  }

  // --- entry methods ---------------------------------------------------------

  bool usesChannel(int d) const {
    if (neighbor[d] < 0) return false;
    if (!cfg.local_via_messages) return true;
    return rts().homePe(arrayId(), neighbor[d]) != myPe();
  }

  int remoteNeighborCount() const {
    int n = 0;
    for (int d = 0; d < kDirs; ++d)
      if (usesChannel(d)) ++n;
    return n;
  }

  /// CkDirect setup: create a receive handle per incoming remote face and
  /// ship it to the producing neighbor. Co-located neighbors keep using
  /// plain local messages (see Config::local_via_messages).
  void setup(charm::Message&) {
    for (int d = 0; d < kDirs; ++d) {
      if (!usesChannel(d)) continue;
      recvHandle[d] = direct::createHandle(
          rts(), myPe(), recvFace[d].data(), recvFace[d].size() * sizeof(double),
          kOob, [this, d]() { onFaceArrived(d); });
      charm::Packer pk;
      pk.put<std::int32_t>(opposite(d));
      pk.put<direct::Handle>(recvHandle[d]);
      proxy[neighbor[d]].send(epHandle, std::move(pk));
    }
    handlesCreated = true;
    checkSetupDone();
  }

  /// A neighbor's receive handle for the face I produce in `dir`.
  void takeHandle(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const int dir = up.get<std::int32_t>();
    sendHandle[dir] = up.get<direct::Handle>();
    direct::assocLocal(sendHandle[dir], myPe(), sendFace[dir].data());
    ++handlesReceived;
    checkSetupDone();
  }

  void setupDone(charm::Message&) {}  // setup barrier sink (quiescence)

  void start(charm::Message&) { beginIteration(); }

  /// MSG mode: a ghost face arrived as a message. The copy below keeps the
  /// kernels identical across modes and is charged zero time (§4.1: both
  /// versions avoid receive-side copying; see stencil.hpp).
  void ghost(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const int dir = up.get<std::int32_t>();
    const auto values = up.getSpan<double>();
    CKD_REQUIRE(values.size() == recvFace[dir].size(), "ghost face size");
    std::memcpy(recvFace[dir].data(), values.data(), values.size_bytes());
    onFaceArrived(dir);
  }

  void barrierDone(charm::Message&) {
    if (iterationsDone < cfg.iterations) beginIteration();
  }

  /// CkDirect mode: the arrival callbacks only count; the compute runs as a
  /// self-enqueued entry method (§5.1's pattern — callbacks are plain
  /// function calls and must not run long work that would delay the
  /// scheduler mid-phase).
  void computeEntry(charm::Message&) { computePhase(); }

  /// Checkpoint/restore image. Geometry, entry ids, and CkDirect handles
  /// are construction-time constants (handle ids stay valid across a
  /// restore; the manager re-registers the underlying memory itself), so
  /// only the field data and iteration progress are saved. The face
  /// vectors are restored in place — their data() addresses are what the
  /// re-registration handshake keys off.
  void pup(charm::Puper& p) override {
    p | block;
    p | next;
    for (int d = 0; d < kDirs; ++d) p | sendFace[d];
    for (int d = 0; d < kDirs; ++d) p | recvFace[d];
    p | arrivals;
    p | faceSent;
    p | iterationsDone;
    p | handlesCreated;
    p | handlesReceived;
  }

  // --- iteration machinery -----------------------------------------------------

  void beginIteration() {
    packFaces();
    for (int d = 0; d < kDirs; ++d) {
      if (neighbor[d] < 0) continue;
      if (cfg.mode == Mode::kCkDirect && usesChannel(d)) {
        direct::put(sendHandle[d]);
      } else {
        charm::Packer pk;
        pk.put<std::int32_t>(opposite(d));
        pk.putSpan<double>(sendFace[d]);
        proxy[neighbor[d]].send(epGhost, std::move(pk));
      }
    }
    faceSent = true;
    maybeCompute();
  }

  void onFaceArrived(int /*dir*/) {
    ++arrivals;
    maybeCompute();
  }

  void maybeCompute() {
    if (!faceSent || arrivals < neighborCount) return;
    arrivals = 0;
    faceSent = false;
    if (cfg.mode == Mode::kCkDirect) {
      // Triggered from a CkDirect callback: hand the heavy work to the
      // scheduler instead of running it in the callback.
      proxy[thisIndex()].send(epCompute);
    } else {
      computePhase();  // already inside an entry method (the ghost handler)
    }
  }

  void computePhase() {
    charge(cfg.compute_per_element_us * static_cast<double>(bx * by * bz));
    if (cfg.real_compute) runKernel();
    if (cfg.mode == Mode::kCkDirect) {
      // Done with the ghost data: re-arm every channel before the barrier,
      // so no put of the next iteration can land on an unmarked channel.
      for (int d = 0; d < kDirs; ++d)
        if (usesChannel(d)) direct::ready(recvHandle[d]);
    }
    ++iterationsDone;
    barrier(epBarrier);
  }

  void packFaces() {
    if (cfg.real_compute) {
      for (int d = 0; d < kDirs; ++d)
        if (neighbor[d] >= 0) extractFace(d);
    } else {
      // Bench mode: no interior data; stamp the face so the CkDirect
      // sentinel (last 8 bytes) always changes.
      for (int d = 0; d < kDirs; ++d)
        if (neighbor[d] >= 0)
          sendFace[d].back() = static_cast<double>(iterationsDone + 1);
    }
  }

  // --- kernel -------------------------------------------------------------------

  std::size_t blockIdx(std::int64_t x, std::int64_t y, std::int64_t z) const {
    return static_cast<std::size_t>(x + bx * (y + by * z));
  }

  /// Neighbor-aware read: inside the block, from a ghost face, or the
  /// domain boundary condition (0).
  double value(std::int64_t x, std::int64_t y, std::int64_t z) const {
    if (x < 0) return neighbor[0] >= 0 ? recvFace[0][faceIdxX(y, z)] : 0.0;
    if (x >= bx) return neighbor[1] >= 0 ? recvFace[1][faceIdxX(y, z)] : 0.0;
    if (y < 0) return neighbor[2] >= 0 ? recvFace[2][faceIdxY(x, z)] : 0.0;
    if (y >= by) return neighbor[3] >= 0 ? recvFace[3][faceIdxY(x, z)] : 0.0;
    if (z < 0) return neighbor[4] >= 0 ? recvFace[4][faceIdxZ(x, y)] : 0.0;
    if (z >= bz) return neighbor[5] >= 0 ? recvFace[5][faceIdxZ(x, y)] : 0.0;
    return block[blockIdx(x, y, z)];
  }

  void runKernel() {
    for (std::int64_t z = 0; z < bz; ++z)
      for (std::int64_t y = 0; y < by; ++y)
        for (std::int64_t x = 0; x < bx; ++x)
          next[blockIdx(x, y, z)] =
              (value(x - 1, y, z) + value(x + 1, y, z) + value(x, y - 1, z) +
               value(x, y + 1, z) + value(x, y, z - 1) + value(x, y, z + 1)) /
              6.0;
    block.swap(next);
  }

  void extractFace(int d) {
    std::vector<double>& face = sendFace[d];
    std::size_t i = 0;
    switch (d) {
      case 0:
      case 1: {
        const std::int64_t x = (d == 0) ? 0 : bx - 1;
        for (std::int64_t z = 0; z < bz; ++z)
          for (std::int64_t y = 0; y < by; ++y) face[i++] = block[blockIdx(x, y, z)];
        break;
      }
      case 2:
      case 3: {
        const std::int64_t y = (d == 2) ? 0 : by - 1;
        for (std::int64_t z = 0; z < bz; ++z)
          for (std::int64_t x = 0; x < bx; ++x) face[i++] = block[blockIdx(x, y, z)];
        break;
      }
      default: {
        const std::int64_t z = (d == 4) ? 0 : bz - 1;
        for (std::int64_t y = 0; y < by; ++y)
          for (std::int64_t x = 0; x < bx; ++x) face[i++] = block[blockIdx(x, y, z)];
        break;
      }
    }
  }

  std::size_t faceIdxX(std::int64_t y, std::int64_t z) const {
    return static_cast<std::size_t>(y + by * z);
  }
  std::size_t faceIdxY(std::int64_t x, std::int64_t z) const {
    return static_cast<std::size_t>(x + bx * z);
  }
  std::size_t faceIdxZ(std::int64_t x, std::int64_t y) const {
    return static_cast<std::size_t>(x + bx * y);
  }

  std::size_t faceElems(int d) const {
    if (d < 2) return static_cast<std::size_t>(by * bz);
    if (d < 4) return static_cast<std::size_t>(bx * bz);
    return static_cast<std::size_t>(bx * by);
  }

  std::int64_t neighborIndex(int d) const {
    int ni = ci, nj = cj, nk = ck;
    switch (d) {
      case 0: --ni; break;
      case 1: ++ni; break;
      case 2: --nj; break;
      case 3: ++nj; break;
      case 4: --nk; break;
      case 5: ++nk; break;
    }
    if (ni < 0 || ni >= cfg.cx || nj < 0 || nj >= cfg.cy || nk < 0 ||
        nk >= cfg.cz)
      return -1;
    return ni + static_cast<std::int64_t>(cfg.cx) * (nj + static_cast<std::int64_t>(cfg.cy) * nk);
  }

  void checkSetupDone() {
    if (handlesCreated && handlesReceived == remoteNeighborCount())
      barrier(epSetupDone);
  }

  // Geometry.
  int ci = 0, cj = 0, ck = 0;
  std::int64_t bx = 0, by = 0, bz = 0;
  std::array<std::int64_t, kDirs> neighbor{};
  int neighborCount = 0;

  // Field data.
  std::vector<double> block, next;
  std::array<std::vector<double>, kDirs> sendFace, recvFace;

  // CkDirect channels.
  std::array<direct::Handle, kDirs> recvHandle{}, sendHandle{};
  bool handlesCreated = false;
  int handlesReceived = 0;

  // Iteration state.
  int arrivals = 0;
  bool faceSent = false;
  int iterationsDone = 0;
};

StencilApp::StencilApp(charm::Runtime& rts, Config cfg)
    : rts_(rts), cfg_(cfg) {
  CKD_REQUIRE(cfg.gx % cfg.cx == 0 && cfg.gy % cfg.cy == 0 &&
                  cfg.gz % cfg.cz == 0,
              "chare grid must divide the domain evenly");
  const std::int64_t count = cfg.numChares();
  proxy_ = charm::makeArray<StencilChare>(
      rts_, "stencil", count, charm::blockMap(count, rts_.numPes()),
      [](std::int64_t) { return std::make_unique<StencilChare>(); });
  const charm::EntryId epSetup =
      proxy_.registerEntry("setup", &StencilChare::setup);
  const charm::EntryId epHandle =
      proxy_.registerEntry("takeHandle", &StencilChare::takeHandle);
  const charm::EntryId epSetupDone =
      proxy_.registerEntry("setupDone", &StencilChare::setupDone);
  const charm::EntryId epStart =
      proxy_.registerEntry("start", &StencilChare::start);
  const charm::EntryId epGhost =
      proxy_.registerEntry("ghost", &StencilChare::ghost);
  const charm::EntryId epBarrier =
      proxy_.registerEntry("barrierDone", &StencilChare::barrierDone);
  const charm::EntryId epCompute =
      proxy_.registerEntry("compute", &StencilChare::computeEntry);
  for (std::int64_t i = 0; i < count; ++i) {
    StencilChare& el = proxy_[i].local();
    el.cfg = cfg_;
    el.proxy = proxy_;
    el.epSetup = epSetup;
    el.epHandle = epHandle;
    el.epSetupDone = epSetupDone;
    el.epStart = epStart;
    el.epGhost = epGhost;
    el.epBarrier = epBarrier;
    el.epCompute = epCompute;
    el.initGeometry(i);
  }
  epSetup_ = epSetup;
  epStart_ = epStart;
}

Result StencilApp::execute() {
  if (cfg_.mode == Mode::kCkDirect) {
    proxy_.broadcast(epSetup_);
    rts_.run();  // quiesces once every chare passed the setup barrier
  }
  // Fail-stop runs: arm crash injection only now. The setup phase is not a
  // resumable cut (the start broadcast arrives after it); the first post-arm
  // iteration barrier provides the genesis checkpoint restores roll back to.
  if (rts_.checkpoints() != nullptr && !rts_.checkpoints()->armed())
    rts_.checkpoints()->arm();
  const sim::Time t0 = rts_.now();
  const std::uint64_t messagesBefore = rts_.messagesSent();
  proxy_.broadcast(epStart_);
  rts_.run();
  Result result;
  result.total_us = rts_.now() - t0;
  result.avg_iteration_us = result.total_us / cfg_.iterations;
  result.messages_sent = rts_.messagesSent() - messagesBefore;
  return result;
}

std::vector<double> StencilApp::gatherField() const {
  CKD_REQUIRE(cfg_.real_compute, "gatherField requires real_compute");
  std::vector<double> field(
      static_cast<std::size_t>(cfg_.gx * cfg_.gy * cfg_.gz));
  for (std::int64_t i = 0; i < proxy_.size(); ++i) {
    const StencilChare& el = proxy_[i].local();
    for (std::int64_t z = 0; z < el.bz; ++z)
      for (std::int64_t y = 0; y < el.by; ++y)
        for (std::int64_t x = 0; x < el.bx; ++x) {
          const std::int64_t gx = el.ci * el.bx + x;
          const std::int64_t gy = el.cj * el.by + y;
          const std::int64_t gz = el.ck * el.bz + z;
          field[static_cast<std::size_t>(gx + cfg_.gx * (gy + cfg_.gy * gz))] =
              el.block[el.blockIdx(x, y, z)];
        }
  }
  return field;
}

std::vector<double> serialReference(const Config& cfg) {
  const std::int64_t gx = cfg.gx, gy = cfg.gy, gz = cfg.gz;
  std::vector<double> field(static_cast<std::size_t>(gx * gy * gz));
  std::vector<double> next(field.size());
  auto idx = [&](std::int64_t x, std::int64_t y, std::int64_t z) {
    return static_cast<std::size_t>(x + gx * (y + gy * z));
  };
  for (std::int64_t z = 0; z < gz; ++z)
    for (std::int64_t y = 0; y < gy; ++y)
      for (std::int64_t x = 0; x < gx; ++x)
        field[idx(x, y, z)] = initialValue(x, y, z);
  auto value = [&](std::int64_t x, std::int64_t y, std::int64_t z) {
    if (x < 0 || x >= gx || y < 0 || y >= gy || z < 0 || z >= gz) return 0.0;
    return field[idx(x, y, z)];
  };
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    for (std::int64_t z = 0; z < gz; ++z)
      for (std::int64_t y = 0; y < gy; ++y)
        for (std::int64_t x = 0; x < gx; ++x)
          next[idx(x, y, z)] =
              (value(x - 1, y, z) + value(x + 1, y, z) + value(x, y - 1, z) +
               value(x, y + 1, z) + value(x, y, z - 1) + value(x, y, z + 1)) /
              6.0;
    field.swap(next);
  }
  return field;
}

}  // namespace ckd::apps::stencil
