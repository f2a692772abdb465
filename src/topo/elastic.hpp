#pragma once
// Growable fat-tree topology for the elastic PE lifecycle (PR 8).
//
// Identical hop/injection model to FatTree, but the node count can grow at
// run time: `grow(addNodes)` appends whole nodes (PE indices extend
// contiguously, nodeOf/hops stay valid for all previously issued indices).
// Growth must only happen from a serial phase — every consumer of the
// topology (fabric ports, engine shard map, runtime schedulers) is resized
// in the same phase before any event can target the new PEs.

#include <memory>
#include <string>

#include "topo/topology.hpp"
#include "util/require.hpp"

namespace ckd::topo {

class ElasticTopology final : public Topology {
 public:
  ElasticTopology(int numNodes, int pesPerNode, int nodesPerSwitch = 24);

  int numPes() const override { return numNodes_ * pesPerNode_; }
  int numNodes() const override { return numNodes_; }
  int nodeOf(int pe) const override;
  int hops(int srcPe, int dstPe) const override;
  int injectionSharers(int /*pe*/) const override { return pesPerNode_; }
  std::string describe() const override;

  int pesPerNode() const { return pesPerNode_; }

  /// Append `addNodes` whole nodes (addNodes * pesPerNode new PEs).
  void grow(int addNodes);

  /// Recover the mutable elastic topology from a config-held const pointer.
  /// Returns nullptr when the topology is not elastic; scale-out plans
  /// require an elastic machine and fail cleanly otherwise.
  static std::shared_ptr<ElasticTopology> fromShared(
      const TopologyPtr& topology) {
    return std::const_pointer_cast<ElasticTopology>(
        std::dynamic_pointer_cast<const ElasticTopology>(topology));
  }

 private:
  int numNodes_;
  int pesPerNode_;
  int nodesPerSwitch_;
};

}  // namespace ckd::topo
