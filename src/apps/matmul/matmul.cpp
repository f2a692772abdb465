#include "apps/matmul/matmul.hpp"

#include <cstring>
#include <memory>
#include <utility>

#include "charm/maps.hpp"
#include "charm/marshal.hpp"
#include "ckdirect/ckdirect.hpp"
#include "util/require.hpp"

namespace ckd::apps::matmul {

namespace {

constexpr std::uint64_t kOob = 0x7FF8FEEDFACE0002ull;

enum SliceKind : std::int32_t { kSliceA = 0, kSliceB = 1, kSliceC = 2 };

}  // namespace

double aValue(std::int64_t row, std::int64_t col) {
  return static_cast<double>((row * 7 + col * 13) % 23) / 23.0;
}

double bValue(std::int64_t row, std::int64_t col) {
  return static_cast<double>((row * 11 + col * 3) % 19) / 19.0;
}

void chooseGrid(int chares, int& cx, int& cy, int& cz) {
  CKD_REQUIRE(chares > 0 && (chares & (chares - 1)) == 0,
              "chare count must be a power of two");
  cx = cy = cz = 1;
  int dim = 0;
  for (int remaining = chares; remaining > 1; remaining /= 2) {
    (dim == 0 ? cx : dim == 1 ? cy : cz) *= 2;
    dim = (dim + 1) % 3;
  }
}

class MatmulChare final : public charm::Chare {
 public:
  Config cfg;
  charm::ArrayProxy<MatmulChare> proxy;
  charm::EntryId epSetup = -1, epHandle = -1, epSetupDone = -1, epStart = -1,
                 epSlice = -1, epBarrier = -1, epDgemm = -1, epReduce = -1;

  void initGeometry(std::int64_t index) {
    i = static_cast<int>(index % cfg.cx);
    j = static_cast<int>((index / cfg.cx) % cfg.cy);
    k = static_cast<int>(index / (static_cast<std::int64_t>(cfg.cx) * cfg.cy));
    bm = cfg.m / cfg.cx;
    bn = cfg.n / cfg.cy;
    bk = cfg.k / cfg.cz;
    sm = bm / cfg.cy;  // A-slice rows
    sn = bn / cfg.cx;  // B-slice cols
    sc = bm / cfg.cz;  // C-slice rows
    CKD_REQUIRE(sm > 0 && sn > 0 && sc > 0,
                "matrix blocks too small for this chare grid");

    // A block row-major (bm x bk); B block column-major (bk x bn);
    // C partial row-major (bm x bn). Own input slices are generated
    // directly into their home regions, which double as the persistent
    // CkDirect send buffers — no send-side copy in either mode.
    aBlock.assign(static_cast<std::size_t>(bm * bk), 0.0);
    bBlock.assign(static_cast<std::size_t>(bk * bn), 0.0);
    cPartial.assign(static_cast<std::size_t>(bm * bn), 0.0);
    cRecv.assign(static_cast<std::size_t>(cfg.cz),
                 std::vector<double>());
    for (int kk = 0; kk < cfg.cz; ++kk)
      if (kk != k)
        cRecv[static_cast<std::size_t>(kk)].assign(
            static_cast<std::size_t>(sc * bn), 0.0);
    cSlice.assign(static_cast<std::size_t>(sc * bn), 0.0);

    if (cfg.real_compute) {
      // Own A slice: global rows [i*bm + j*sm, +sm), cols [k*bk, +bk).
      for (std::int64_t r = 0; r < sm; ++r)
        for (std::int64_t c = 0; c < bk; ++c)
          aBlock[static_cast<std::size_t>((j * sm + r) * bk + c)] =
              aValue(i * bm + j * sm + r, k * bk + c);
      // Own B slice: global rows [k*bk, +bk), cols [j*bn + i*sn, +sn).
      for (std::int64_t c = 0; c < sn; ++c)
        for (std::int64_t r = 0; r < bk; ++r)
          bBlock[static_cast<std::size_t>((i * sn + c) * bk + r)] =
              bValue(k * bk + r, j * bn + i * sn + c);
    }
  }

  std::int64_t chareIndex(int ii, int jj, int kk) const {
    return ii + static_cast<std::int64_t>(cfg.cx) *
                    (jj + static_cast<std::int64_t>(cfg.cy) * kk);
  }

  // Send-buffer views (regions inside the blocks).
  double* aSendBuf() { return aBlock.data() + j * sm * bk; }
  std::size_t aSliceBytes() const {
    return static_cast<std::size_t>(sm * bk) * sizeof(double);
  }
  double* bSendBuf() { return bBlock.data() + i * sn * bk; }
  std::size_t bSliceBytes() const {
    return static_cast<std::size_t>(sn * bk) * sizeof(double);
  }
  double* cSendBuf(int destK) { return cPartial.data() + destK * sc * bn; }
  std::size_t cSliceBytes() const {
    return static_cast<std::size_t>(sc * bn) * sizeof(double);
  }

  // --- setup (CkDirect) -------------------------------------------------------

  void setup(charm::Message&) {
    // Incoming A slices from (i, j', k).
    for (int jj = 0; jj < cfg.cy; ++jj) {
      if (jj == j) continue;
      direct::Handle h = direct::createHandle(
          rts(), myPe(), aBlock.data() + jj * sm * bk, aSliceBytes(), kOob,
          [this]() { onSlice(kSliceA); });
      allRecvHandles.push_back(h);
      sendHandleMsg(chareIndex(i, jj, k), kSliceA, /*slot=*/0, h);
    }
    // Incoming B slices from (i', j, k).
    for (int ii = 0; ii < cfg.cx; ++ii) {
      if (ii == i) continue;
      direct::Handle h = direct::createHandle(
          rts(), myPe(), bBlock.data() + ii * sn * bk, bSliceBytes(), kOob,
          [this]() { onSlice(kSliceB); });
      allRecvHandles.push_back(h);
      sendHandleMsg(chareIndex(ii, j, k), kSliceB, /*slot=*/0, h);
    }
    // Incoming C partial slices from (i, j, k'). The sender must use the
    // slice of *our* k, so the slot carries it.
    for (int kk = 0; kk < cfg.cz; ++kk) {
      if (kk == k) continue;
      direct::Handle h = direct::createHandle(
          rts(), myPe(), cRecv[static_cast<std::size_t>(kk)].data(),
          cSliceBytes(), kOob, [this]() { onSlice(kSliceC); });
      allRecvHandles.push_back(h);
      sendHandleMsg(chareIndex(i, j, kk), kSliceC, /*slot=*/k, h);
    }
    handlesCreated = true;
    checkSetupDone();
  }

  void sendHandleMsg(std::int64_t dest, std::int32_t kind, std::int32_t slot,
                     direct::Handle h) {
    charm::Packer pk;
    pk.put<std::int32_t>(kind);
    pk.put<std::int32_t>(slot);
    pk.put<direct::Handle>(h);
    proxy[dest].send(epHandle, std::move(pk));
  }

  void takeHandle(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const auto kind = up.get<std::int32_t>();
    const auto slot = up.get<std::int32_t>();
    const auto h = up.get<direct::Handle>();
    switch (kind) {
      case kSliceA:
        direct::assocLocal(h, myPe(), aSendBuf());
        aHandles.push_back(h);
        break;
      case kSliceB:
        direct::assocLocal(h, myPe(), bSendBuf());
        bHandles.push_back(h);
        break;
      default:
        direct::assocLocal(h, myPe(), cSendBuf(slot));
        cHandles.push_back(h);
        break;
    }
    ++handlesReceived;
    checkSetupDone();
  }

  void checkSetupDone() {
    const int expected = (cfg.cy - 1) + (cfg.cx - 1) + (cfg.cz - 1);
    if (handlesCreated && handlesReceived == expected) barrier(epSetupDone);
  }

  void setupDone(charm::Message&) {}

  // --- iteration ---------------------------------------------------------------

  void start(charm::Message&) { beginIteration(); }

  void beginIteration() {
    if (!cfg.real_compute) {
      // Keep the CkDirect sentinels moving without touching whole blocks.
      aSendBuf()[sm * bk - 1] = static_cast<double>(iterationsDone + 1);
      bSendBuf()[sn * bk - 1] = static_cast<double>(iterationsDone + 1);
    }
    if (cfg.mode == Mode::kCkDirect) {
      for (const auto& h : aHandles) direct::put(h);
      for (const auto& h : bHandles) direct::put(h);
    } else {
      for (int jj = 0; jj < cfg.cy; ++jj)
        if (jj != j)
          sendSliceMsg(chareIndex(i, jj, k), kSliceA, j,
                       {aSendBuf(), static_cast<std::size_t>(sm * bk)});
      for (int ii = 0; ii < cfg.cx; ++ii)
        if (ii != i)
          sendSliceMsg(chareIndex(ii, j, k), kSliceB, i,
                       {bSendBuf(), static_cast<std::size_t>(sn * bk)});
    }
    started = true;
    maybeDgemm();
  }

  void sendSliceMsg(std::int64_t dest, std::int32_t kind, std::int32_t slot,
                    std::span<const double> values) {
    charm::Packer pk;
    pk.put<std::int32_t>(kind);
    pk.put<std::int32_t>(slot);
    pk.putSpan<double>(values);
    proxy[dest].send(epSlice, std::move(pk));
  }

  /// MSG mode: a slice arrived; copy it into place (charged — §4.2 says the
  /// message version pays exactly this placement copy).
  void slice(charm::Message& msg) {
    charm::Unpacker up(msg.payload());
    const auto kind = up.get<std::int32_t>();
    const auto slot = up.get<std::int32_t>();
    const auto values = up.getSpan<double>();
    charge(cfg.copy_per_byte_us * static_cast<double>(values.size_bytes()));
    double* dst = nullptr;
    switch (kind) {
      case kSliceA: dst = aBlock.data() + slot * sm * bk; break;
      case kSliceB: dst = bBlock.data() + slot * sn * bk; break;
      default: dst = cRecv[static_cast<std::size_t>(slot)].data(); break;
    }
    std::memcpy(dst, values.data(), values.size_bytes());
    onSlice(kind);
  }

  void onSlice(std::int32_t kind) {
    switch (kind) {
      case kSliceA: ++aGot; maybeDgemm(); break;
      case kSliceB: ++bGot; maybeDgemm(); break;
      default: ++cGot; maybeReduce(); break;
    }
  }

  void maybeDgemm() {
    if (!started || aGot < cfg.cy - 1 || bGot < cfg.cx - 1) return;
    aGot = 0;
    bGot = 0;
    started = false;
    if (cfg.mode == Mode::kCkDirect) {
      // §5.1 pattern: the CkDirect callbacks only counted arrivals; the
      // multiplication runs as an enqueued entry method.
      proxy[chareIndex(i, j, k)].send(epDgemm);
      return;
    }
    dgemmPhase();
  }

  void dgemmEntry(charm::Message&) { dgemmPhase(); }

  void dgemmPhase() {
    charge(cfg.compute_per_flop_us *
           static_cast<double>(bm) * static_cast<double>(bn) *
           static_cast<double>(bk));
    if (cfg.real_compute) runDgemm();
    else
      for (int kk = 0; kk < cfg.cz; ++kk)
        cSendBuf(kk)[sc * bn - 1] = static_cast<double>(iterationsDone + 1);
    dgemmDone = true;
    if (cfg.mode == Mode::kCkDirect) {
      for (const auto& h : cHandles) direct::put(h);
    } else {
      for (int kk = 0; kk < cfg.cz; ++kk)
        if (kk != k)
          sendSliceMsg(chareIndex(i, j, kk), kSliceC, k,
                       {cSendBuf(kk), static_cast<std::size_t>(sc * bn)});
    }
    maybeReduce();
  }

  void maybeReduce() {
    if (!dgemmDone || cGot < cfg.cz - 1) return;
    cGot = 0;
    dgemmDone = false;
    if (cfg.mode == Mode::kCkDirect) {
      proxy[chareIndex(i, j, k)].send(epReduce);
      return;
    }
    reducePhase();
  }

  void reduceEntry(charm::Message&) { reducePhase(); }

  void reducePhase() {
    // Sum the cz partial slices (own in place, peers from cRecv) in k'
    // order for determinism.
    charge(1e-6 * static_cast<double>(sc * bn) *
           static_cast<double>(cfg.cz));  // ~1 ns per add
    if (cfg.real_compute) {
      std::fill(cSlice.begin(), cSlice.end(), 0.0);
      for (int kk = 0; kk < cfg.cz; ++kk) {
        const double* src = (kk == k)
                                ? cPartial.data() + k * sc * bn
                                : cRecv[static_cast<std::size_t>(kk)].data();
        for (std::int64_t e = 0; e < sc * bn; ++e)
          cSlice[static_cast<std::size_t>(e)] += src[e];
      }
    }
    if (cfg.mode == Mode::kCkDirect) {
      for (const auto& h : recvHandles()) direct::ready(h);
    }
    ++iterationsDone;
    barrier(epBarrier);
  }

  std::vector<direct::Handle> recvHandles() const { return allRecvHandles; }

  void barrierDone(charm::Message&) {
    if (iterationsDone < cfg.iterations) beginIteration();
  }

  void runDgemm() {
    // A row-major (bm x bk), B column-major (bk x bn): each output is a dot
    // product of two contiguous runs.
    for (std::int64_t r = 0; r < bm; ++r) {
      const double* arow = aBlock.data() + r * bk;
      for (std::int64_t c = 0; c < bn; ++c) {
        const double* bcol = bBlock.data() + c * bk;
        double acc = 0.0;
        for (std::int64_t t = 0; t < bk; ++t) acc += arow[t] * bcol[t];
        cPartial[static_cast<std::size_t>(r * bn + c)] = acc;
      }
    }
  }

  // Geometry.
  int i = 0, j = 0, k = 0;
  std::int64_t bm = 0, bn = 0, bk = 0, sm = 0, sn = 0, sc = 0;

  // Data.
  std::vector<double> aBlock, bBlock, cPartial, cSlice;
  std::vector<std::vector<double>> cRecv;

  // CkDirect handles (send side gathered in takeHandle; receive side kept
  // for the per-iteration ready calls).
  std::vector<direct::Handle> aHandles, bHandles, cHandles;
  std::vector<direct::Handle> allRecvHandles;
  bool handlesCreated = false;
  int handlesReceived = 0;

  // Iteration state.
  bool started = false;
  bool dgemmDone = false;
  int aGot = 0, bGot = 0, cGot = 0;
  int iterationsDone = 0;
};

MatmulApp::MatmulApp(charm::Runtime& rts, Config cfg) : rts_(rts), cfg_(cfg) {
  CKD_REQUIRE(cfg.m % cfg.cx == 0 && cfg.n % cfg.cy == 0 &&
                  cfg.k % cfg.cz == 0,
              "chare grid must divide the matrices evenly");
  const std::int64_t count = cfg.numChares();
  proxy_ = charm::makeArray<MatmulChare>(
      rts_, "matmul", count, charm::blockMap(count, rts_.numPes()),
      [](std::int64_t) { return std::make_unique<MatmulChare>(); });
  epSetup_ = proxy_.registerEntry("setup", &MatmulChare::setup);
  const auto epHandle =
      proxy_.registerEntry("takeHandle", &MatmulChare::takeHandle);
  const auto epSetupDone =
      proxy_.registerEntry("setupDone", &MatmulChare::setupDone);
  epStart_ = proxy_.registerEntry("start", &MatmulChare::start);
  const auto epSlice = proxy_.registerEntry("slice", &MatmulChare::slice);
  const auto epBarrier =
      proxy_.registerEntry("barrierDone", &MatmulChare::barrierDone);
  const auto epDgemm = proxy_.registerEntry("dgemm", &MatmulChare::dgemmEntry);
  const auto epReduce =
      proxy_.registerEntry("reduce", &MatmulChare::reduceEntry);
  for (std::int64_t idx = 0; idx < count; ++idx) {
    MatmulChare& el = proxy_[idx].local();
    el.cfg = cfg_;
    el.proxy = proxy_;
    el.epSetup = epSetup_;
    el.epHandle = epHandle;
    el.epSetupDone = epSetupDone;
    el.epStart = epStart_;
    el.epSlice = epSlice;
    el.epBarrier = epBarrier;
    el.epDgemm = epDgemm;
    el.epReduce = epReduce;
    el.initGeometry(idx);
  }
}

Result MatmulApp::execute() {
  if (cfg_.mode == Mode::kCkDirect) {
    proxy_.broadcast(epSetup_);
    rts_.run();
  }
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

std::vector<double> MatmulApp::gatherC() const {
  CKD_REQUIRE(cfg_.real_compute, "gatherC requires real_compute");
  std::vector<double> c(static_cast<std::size_t>(cfg_.m * cfg_.n), 0.0);
  for (std::int64_t idx = 0; idx < proxy_.size(); ++idx) {
    const MatmulChare& el = proxy_[idx].local();
    for (std::int64_t r = 0; r < el.sc; ++r)
      for (std::int64_t col = 0; col < el.bn; ++col) {
        const std::int64_t gr = el.i * el.bm + el.k * el.sc + r;
        const std::int64_t gc = el.j * el.bn + col;
        c[static_cast<std::size_t>(gr * cfg_.n + gc)] =
            el.cSlice[static_cast<std::size_t>(r * el.bn + col)];
      }
  }
  return c;
}

std::vector<double> referenceMultiply(const Config& cfg) {
  std::vector<double> c(static_cast<std::size_t>(cfg.m * cfg.n), 0.0);
  for (std::int64_t r = 0; r < cfg.m; ++r)
    for (std::int64_t t = 0; t < cfg.k; ++t) {
      const double a = aValue(r, t);
      for (std::int64_t col = 0; col < cfg.n; ++col)
        c[static_cast<std::size_t>(r * cfg.n + col)] += a * bValue(t, col);
    }
  return c;
}

}  // namespace ckd::apps::matmul
