#pragma once
// Commodity InfiniBand cluster topology: N nodes of `coresPerNode` cores,
// one HCA per node, connected through a (modeled) two-level fat tree.
// Matches NCSA Abe (8-core Clovertown nodes) and T3 (4-core Woodcrest
// nodes) from the paper.

#include <string>

#include "topo/topology.hpp"
#include "util/require.hpp"

namespace ckd::topo {

class FatTree final : public Topology {
 public:
  /// `pesPerNode` — how many of a node's cores the job actually uses;
  /// those are the PEs that share the node's single HCA.
  /// `nodesPerSwitch` — leaf switch radix; node pairs under one leaf are
  /// 2 hops apart, others go through the spine (4 hops).
  FatTree(int numNodes, int pesPerNode, int nodesPerSwitch = 24);

  int numPes() const override { return numNodes_ * pesPerNode_; }
  int numNodes() const override { return numNodes_; }
  int nodeOf(int pe) const override;
  int hops(int srcPe, int dstPe) const override;
  int injectionSharers(int /*pe*/) const override { return pesPerNode_; }
  std::string describe() const override;

  int pesPerNode() const { return pesPerNode_; }

 private:
  int numNodes_;
  int pesPerNode_;
  int nodesPerSwitch_;
};

}  // namespace ckd::topo
