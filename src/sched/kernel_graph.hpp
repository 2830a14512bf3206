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
// A graph is a shape plus a program:
//   - the GraphShape is the structure: one descriptor per node (an op code
//     and tile coordinates), the deduplicated edges as dependency counts
//     and CSR dependents, a topological order and the validation result.
//     It is immutable once built, so copies of a graph share it; a
//     factorization builder builds one per graph, from (m, n, block, nr);
//   - the GraphProgram says what the nodes do: `make(id)` builds node id's
//     request, `commit(id, result)` writes its result back into the job's
//     working state, `name(id)` labels it. A factorization's program owns
//     that working state (the matrix, pivots or taus, QR's w buffers).
//
// The program contract. `make(id)` runs on the worker that executes the
// node, right before it executes, after every predecessor has committed
// (happens-before established by the scheduler), so it may read state
// those commits wrote. Other nodes run between the release and that point,
// so edges must order every later writer of what `make` reads after this
// node, not only after its predecessors. `commit(id, result)` runs on the
// same worker before any dependent is released. Both must be safe to run
// concurrently with other nodes' calls touching disjoint state.
//
// The closure API (add_node, add_edge, node(id)) builds ad-hoc graphs: its
// nodes are GraphNodes, a `make` and an optional `commit` closure, run by
// one more program. The first mutation of a graph built on a shape (a
// builder's, or a copy's) copies it: the graph becomes a closure graph of
// its own, whose closures call the original program, and the shape it
// shared is left as it was.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "fabric/executor.hpp"
#include "fabric/kernel_request.hpp"

namespace lac::sched {

using NodeId = std::size_t;

/// A node as data: a program-defined op code and tile coordinates.
struct NodeDesc {
  std::uint8_t op = 0;
  index_t i = 0, j = 0, k = 0;
};

/// What a graph's nodes do (see the program contract above).
class GraphProgram {
 public:
  virtual ~GraphProgram() = default;
  virtual fabric::KernelRequest make(NodeId id) = 0;
  /// Writes the result back into the shared working state; false when the
  /// node has nothing to commit (its result keeps its payloads).
  virtual bool commit(NodeId id, const fabric::KernelResult& result) = 0;
  /// Diagnostic label ("potrf(2,2,k=2)"), formatted on demand.
  virtual std::string name(NodeId id) const = 0;
};

/// A graph's structure: immutable once built, shared by a graph's copies.
class GraphShape {
 public:
  /// Indexes `edges` over `nodes` nodes: sorts and coalesces them, counts
  /// each node's distinct predecessors, builds the CSR dependents and the
  /// topological order. A non-empty `malformed` (the first bad edge) or a
  /// cycle becomes error(). `desc` is empty or one descriptor per node.
  GraphShape(std::vector<NodeDesc> desc, std::size_t nodes,
             std::vector<std::pair<NodeId, NodeId>> edges, std::string malformed = {});

  std::size_t size() const { return dep_count_.size(); }
  const NodeDesc& desc(NodeId id) const { return desc_[id]; }
  /// Distinct predecessors of `id`, and of every node.
  std::size_t dep_count(NodeId id) const { return dep_count_[id]; }
  const std::vector<std::size_t>& dep_counts() const { return dep_count_; }
  /// Distinct successors of `id`, in ascending id order.
  std::span<const NodeId> dependents(NodeId id) const {
    return std::span<const NodeId>(succ_).subspan(succ_begin_[id],
                                                  succ_begin_[id + 1] - succ_begin_[id]);
  }
  /// Nodes without predecessors, in ascending id order.
  std::span<const NodeId> roots() const { return roots_; }
  /// Kahn topological order, ready set popped in ascending id order;
  /// shorter than size() for cyclic graphs.
  const std::vector<NodeId>& topo_order() const { return topo_; }
  /// The malformed edge or the cycle; empty when well-formed.
  const std::string& error() const { return error_; }
  /// The (from, to) edges, sorted and unique.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  std::vector<NodeDesc> desc_;
  std::vector<std::size_t> dep_count_;   ///< per node
  std::vector<std::size_t> succ_begin_;  ///< CSR offsets, size() + 1
  std::vector<NodeId> succ_;             ///< the edges' `to` column
  std::vector<NodeId> roots_;
  std::vector<NodeId> topo_;
  std::string error_;
};

/// A closure-graph node.
struct GraphNode {
  std::string name;  ///< diagnostic label ("potrf(2)", "gemm(3,1,k=0)")
  /// Builds the node's request, under the program contract's `make` rules.
  std::function<fabric::KernelRequest()> make;
  /// Writes the result back into the shared working state (e.g. a tile of
  /// the factor), under the contract's `commit` rules; empty for
  /// side-effect-free nodes.
  std::function<void(const fabric::KernelResult&)> commit;
};

class ClosureProgram;

/// A shape plus a program. Closure graphs index lazily: the first of
/// validate(), topo_order(), dep_count(), dependents(), shape() or
/// list_makespan() after the last add_node/add_edge builds their shape.
/// The scheduler's admission runs validate() before any unit is enqueued,
/// so an admitted graph is indexed once and its workers only read the
/// shape. Like any lazily built state, do not make the first of those calls
/// on one graph from two threads at once.
class KernelGraph {
 public:
  KernelGraph() = default;
  /// A graph over a built shape (a factorization builder's).
  KernelGraph(std::shared_ptr<const GraphShape> shape,
              std::shared_ptr<GraphProgram> program);
  /// A copy shares the shape and the program until one of the two mutates.
  KernelGraph(const KernelGraph&) = default;
  KernelGraph& operator=(const KernelGraph&) = default;
  /// Leaves `other` empty.
  KernelGraph(KernelGraph&& other) noexcept;
  KernelGraph& operator=(KernelGraph&& other) noexcept;

  /// Immediate node: the request is fixed at build time.
  NodeId add_node(fabric::KernelRequest req, std::string name = {});
  /// Deferred node: `make` runs when a worker takes the node, `commit`
  /// (optional) right after a successful execution.
  NodeId add_node(std::function<fabric::KernelRequest()> make,
                  std::string name = {},
                  std::function<void(const fabric::KernelResult&)> commit = {});
  /// Data edge: `from` must complete (and commit) before `to` runs.
  /// Duplicate edges are coalesced when the graph is indexed; out-of-range
  /// or self edges are remembered and reported by validate() instead of
  /// silently dropped.
  void add_edge(NodeId from, NodeId to);
  /// Node `id` as closures, to wrap or replace them.
  GraphNode& node(NodeId id);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The program's calls for node `id`.
  fabric::KernelRequest make(NodeId id) const { return program_->make(id); }
  bool commit(NodeId id, const fabric::KernelResult& result) const {
    return program_->commit(id, result);
  }
  std::string name(NodeId id) const { return program_->name(id); }

  /// The structure (indexes a closure graph).
  const GraphShape& shape() const;

  /// Well-formedness: ids in range, no self-edges, every node has a
  /// request builder, acyclic. Returns an empty string when valid.
  std::string validate() const;

  /// The shape's topological order; shorter than size() for cyclic graphs
  /// (validate() reports those). Valid until the graph next changes.
  const std::vector<NodeId>& topo_order() const { return shape().topo_order(); }
  /// Distinct predecessors of `id`.
  std::size_t dep_count(NodeId id) const { return shape().dep_count(id); }
  /// Distinct successors of `id`, in ascending id order; valid until the
  /// graph next changes.
  std::span<const NodeId> dependents(NodeId id) const { return shape().dependents(id); }

 private:
  /// The closure program this graph may mutate: copies a shared shape's
  /// program into closures, or a closure program another graph shares.
  ClosureProgram& own_closures();

  std::size_t size_ = 0;
  mutable std::shared_ptr<const GraphShape> shape_;  ///< null while stale
  std::shared_ptr<GraphProgram> program_;
  ClosureProgram* closures_ = nullptr;  ///< program_, when it holds closures
  /// A closure graph's (from, to) per add_edge call.
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::string malformed_;  ///< first bad add_edge call, for validate()
};

/// One node run: `result` is in-band (ok = false with "request build
/// failed: ...", "backend exception: ..." or "commit failed: ..."), and a
/// committed result has its payloads freed.
struct NodeRun {
  fabric::KernelResult result;
  double clock_ghz = 0.0;  ///< the request's effective clock; 0 if never built
};

/// Makes node `id`'s request, executes it on `backend` and commits the
/// result. Never throws. Both the scheduler's workers and the LAP drivers
/// run nodes through it.
NodeRun run_node(const KernelGraph& graph, NodeId id, const fabric::Executor& backend);

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
