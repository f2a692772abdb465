#pragma once
// PgasWorld: a PGAS machine — a charm::Runtime plus a pgas::Pgas over its
// verbs layer — the setup the PGAS tests, the determinism storms, and the
// ablation bench drive. The runtime assembles the machine (engine or
// sharded engine, fabric, faults, telemetry), so PGAS runs on exactly the
// machine the Charm++ and CkDirect runs do; PGAS traffic bypasses the
// runtime's schedulers.

#include <cstddef>
#include <functional>
#include <utility>

#include "charm/runtime.hpp"
#include "ib/verbs.hpp"
#include "pgas/pgas.hpp"

namespace ckd::harness {

class PgasWorld {
 public:
  /// `machine` must use the InfiniBand layer.
  PgasWorld(const charm::MachineConfig& machine, pgas::PgasCosts costs,
            std::size_t segmentBytes)
      : rts_(machine), pgas_(rts_.ibVerbs(), std::move(costs), segmentBytes) {}

  PgasWorld(const PgasWorld&) = delete;
  PgasWorld& operator=(const PgasWorld&) = delete;

  charm::Runtime& runtime() { return rts_; }
  pgas::Pgas& pgas() { return pgas_; }
  ib::IbVerbs& verbs() { return rts_.ibVerbs(); }
  net::Fabric& fabric() { return rts_.fabric(); }
  int numPes() const { return rts_.numPes(); }

  /// Schedule `fn` at t=0 in `pe`'s execution context (setup-time only).
  void seedOn(int pe, std::function<void()> fn) {
    rts_.schedAt(pe, 0.0, std::move(fn));
  }
  /// Run to quiescence.
  void run() { rts_.run(); }

 private:
  charm::Runtime rts_;
  pgas::Pgas pgas_;
};

}  // namespace ckd::harness
