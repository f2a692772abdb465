#pragma once
// Machine topology abstraction. The fabric models (src/net) consult a
// Topology for (a) whether two PEs share a node (shared-memory shortcut),
// (b) the network distance between them, and (c) how many PEs share a
// network injection point (NIC / torus router), which scales effective
// per-byte cost when a node's cores inject concurrently.

#include <memory>
#include <string>

namespace ckd::topo {

class Topology {
 public:
  virtual ~Topology() = default;

  virtual int numPes() const = 0;
  virtual int numNodes() const = 0;

  /// Node housing a PE; PEs on the same node communicate via shared memory.
  virtual int nodeOf(int pe) const = 0;

  bool sameNode(int a, int b) const { return nodeOf(a) == nodeOf(b); }

  /// Network hops between the *nodes* of two PEs (0 when co-located).
  virtual int hops(int srcPe, int dstPe) const = 0;

  /// Number of PEs sharing the source PE's injection point. Fabrics divide
  /// node injection bandwidth by this when modeling saturated phases.
  virtual int injectionSharers(int pe) const = 0;

  virtual std::string describe() const = 0;
};

using TopologyPtr = std::shared_ptr<const Topology>;

}  // namespace ckd::topo
