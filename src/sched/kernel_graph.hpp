#pragma once
// Kernel-graph runtime types: a DAG of KernelRequest nodes with explicit
// data edges.
//
// The serving layer (PR 2) treats every request as independent, but the
// paper's composed workloads -- blocked Cholesky/QR/LU -- are chains of
// POTRF/TRSM/SYRK/GEMM panel operations with real data dependencies. A
// KernelGraph captures that structure: each node is one atomic fabric
// kernel, each edge says "this node reads (or overwrites) state the
// predecessor writes". The GraphScheduler executes ready nodes in parallel
// while edges serialize every conflicting access, so results are
// byte-identical for any worker count.
//
// Nodes come in two forms:
//   - immediate: the KernelRequest is known at graph-build time;
//   - deferred:  a `make` closure builds the request on the worker that
//     runs the node, after every predecessor has committed, so it can read
//     tiles those predecessors produced. An optional `commit` closure
//     writes the result back into the shared working state before
//     dependents release.
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "fabric/kernel_request.hpp"

namespace lac::sched {

using NodeId = std::size_t;

struct GraphNode {
  std::string name;  ///< diagnostic label ("potrf(2)", "gemm(3,1,k=0)")
  /// Builds the node's request. Runs on the worker that executes the node,
  /// right before it executes, after every predecessor has committed
  /// (happens-before established by the scheduler), so it may read shared
  /// state those commits wrote. Other nodes run between the release and
  /// that point, so edges must order every later writer of what `make`
  /// reads after this node, not only after its predecessors. Must be safe
  /// to run concurrently with *other* nodes' closures touching disjoint
  /// state.
  std::function<fabric::KernelRequest()> make;
  /// Writes the result back into the shared working state (e.g. a tile of
  /// the factor). Runs on the executing worker before any dependent is
  /// released; empty for side-effect-free nodes.
  std::function<void(const fabric::KernelResult&)> commit;
};

/// The edges live in one flat list until the graph is indexed: the first
/// of validate(), topo_order(), dep_count(), dependents() or list_makespan()
/// after the last add_node/add_edge sorts the list, drops duplicate edges
/// and builds every node's dependency count and a CSR array of its
/// dependents. The scheduler's admission runs validate() before any unit
/// is enqueued, so an admitted graph is indexed once and its workers only
/// read the index. Like any lazily built state, do not make the first of
/// those calls on one graph from two threads at once.
class KernelGraph {
 public:
  /// Immediate node: the request is fixed at build time.
  NodeId add_node(fabric::KernelRequest req, std::string name = {});
  /// Deferred node: `make` runs at release time, `commit` (optional) right
  /// after a successful execution.
  NodeId add_node(std::function<fabric::KernelRequest()> make,
                  std::string name = {},
                  std::function<void(const fabric::KernelResult&)> commit = {});
  /// Data edge: `from` must complete (and commit) before `to` runs.
  /// Duplicate edges are coalesced when the graph is indexed; out-of-range
  /// or self edges are remembered and reported by validate() instead of
  /// silently dropped.
  void add_edge(NodeId from, NodeId to);
  /// Room for `nodes` nodes and `edges` add_edge calls.
  void reserve(std::size_t nodes, std::size_t edges);

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const GraphNode& node(NodeId id) const { return nodes_[id]; }
  GraphNode& node(NodeId id) { return nodes_[id]; }

  /// Well-formedness: ids in range, no self-edges, every node has a
  /// request builder, acyclic. Returns an empty string when valid. Indexes
  /// the edges.
  std::string validate() const;

  /// Kahn topological order, ready set popped in ascending id order;
  /// empty for cyclic graphs (validate() reports those).
  std::vector<NodeId> topo_order() const;

  /// Distinct predecessors of `id`.
  std::size_t dep_count(NodeId id) const;
  /// Distinct successors of `id`, in ascending id order; valid until the
  /// graph next changes.
  std::span<const NodeId> dependents(NodeId id) const;

 private:
  /// Sorts and coalesces edges_ and rebuilds the index, if stale.
  void index() const;

  std::vector<GraphNode> nodes_;
  /// (from, to) per add_edge call; sorted and unique while indexed_.
  mutable std::vector<std::pair<NodeId, NodeId>> edges_;
  mutable std::vector<std::size_t> dep_count_;   ///< per node
  mutable std::vector<std::size_t> succ_begin_;  ///< CSR offsets, size() + 1
  mutable std::vector<NodeId> succ_;             ///< edges_' `to` column
  mutable bool indexed_ = false;
  std::string malformed_;  ///< first bad add_edge call, for validate()
};

/// Deterministic W-worker list-schedule length over the executed node
/// costs, in fabric cycles: ready nodes start in (release-time, id) order
/// on the earliest-available virtual worker. This is the graph-mode
/// makespan -- what a W-core LAP would take to run the graph -- against
/// which serial_cycles() (the node-by-node sum) defines the graph speedup.
/// Failed/cancelled nodes cost zero, matching the failure accounting.
units::Cycles list_makespan(const KernelGraph& graph,
                            const std::vector<fabric::KernelResult>& results,
                            unsigned workers);

/// Sum of the executed node cycle counts (the serial node-by-node cost).
units::Cycles serial_cycles(const std::vector<fabric::KernelResult>& results);

}  // namespace lac::sched
