// stencil: the paper's Fig. 2a 3-D Jacobi stencil on the T3/InfiniBand
// machine, run with the message back end and then the CkDirect back end on
// identical inputs. Compute is cost-modelled. A ghost-face delivery is one
// operation; a back end's faces all count as failed when its virtual
// iteration time is not bit-identical to the recorded reference.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "apps/stencil/stencil.hpp"
#include "bench.hpp"
#include "harness/machines.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using namespace ckd;

struct StencilInput {
  std::int64_t gx = 0, gy = 0, gz = 0;
  int pes = 0;
  int pesPerNode = 0;
  int virtualization = 0;
  int iters = 0;
};

StencilInput loadStencil(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open stencil input " + path);
  StencilInput s;
  std::string key;
  in >> key >> s.gx >> key >> s.gy >> key >> s.gz >> key >> s.pes >> key >>
      s.pesPerNode >> key >> s.virtualization >> key >> s.iters;
  if (!in || s.gx <= 0 || s.gy <= 0 || s.gz <= 0 || s.pes <= 0 ||
      s.pesPerNode <= 0 || s.virtualization <= 0 || s.iters <= 0)
    throw std::runtime_error("malformed stencil input");
  return s;
}

std::string hexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

Rep runStencil(const Options& opt) {
  static const StencilInput in = loadStencil(opt.input);
  Rep rep;
  for (const apps::stencil::Mode mode :
       {apps::stencil::Mode::kMessages, apps::stencil::Mode::kCkDirect}) {
    const bool ckd = mode == apps::stencil::Mode::kCkDirect;
    apps::stencil::Config cfg;
    cfg.gx = in.gx;
    cfg.gy = in.gy;
    cfg.gz = in.gz;
    apps::stencil::chooseChareGrid(cfg.gx, cfg.gy, cfg.gz,
                                   in.virtualization * in.pes, cfg.cx, cfg.cy,
                                   cfg.cz);
    cfg.iterations = in.iters;
    cfg.mode = mode;
    cfg.real_compute = false;
    cfg.compute_per_element_us = 1.0e-3;  // T3 Woodcrest, as in Fig. 2a

    const PoolMark pools;
    const Mark start;
    std::optional<charm::Runtime> rts;
    {
      Span span(SpanName::kSetup);
      rts.emplace(harness::t3Machine(in.pes, in.pesPerNode));
    }
    std::optional<apps::stencil::StencilApp> app;
    {
      Span span(SpanName::kArraySetup);
      app.emplace(*rts, cfg);
    }

    const Mark runStart;
    apps::stencil::Result result;
    {
      Span span(SpanName::kRun);
      result = app->execute();
    }
    rep.charge(start, runStart);

    const std::uint64_t faces =
        2u * static_cast<std::uint64_t>(
                 (cfg.cx - 1) * cfg.cy * cfg.cz + cfg.cx * (cfg.cy - 1) * cfg.cz +
                 cfg.cx * cfg.cy * (cfg.cz - 1)) *
        static_cast<std::uint64_t>(in.iters);
    rep.attempted += faces;
    const std::string& want = ckd ? opt.expectCkd : opt.expectMsg;
    double expected = want.empty() ? -1.0 : std::strtod(want.c_str(), nullptr);
    if (opt.wrongExpected) expected *= 2.0;
    if (result.avg_iteration_us != expected) rep.failed += faces;
    rep.virtualResults.emplace_back(ckd ? "ckd_iteration_us" : "msg_iteration_us",
                                    hexDouble(result.avg_iteration_us));
    rep.digest = fold(rep.digest, result.avg_iteration_us);
    rep.digest = fold(rep.digest, rts->executedEvents());
    countRuntime(rep, *rts);
    countPools(rep, pools);
  }
  return rep;
}

}  // namespace perfbench
