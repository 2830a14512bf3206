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
#include <cstddef>
#include <cstdint>
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
  /// topological order. The first out-of-range or self edge, in `edges`'
  /// order, becomes error() and is left out of the index, as is every later
  /// one; failing that, a cycle becomes error(). `desc` is empty or one
  /// descriptor per node.
  GraphShape(std::vector<NodeDesc> desc, std::size_t nodes,
             std::vector<std::pair<NodeId, NodeId>> edges);

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

 private:
  std::vector<NodeDesc> desc_;
  std::vector<std::size_t> dep_count_;   ///< per node
  std::vector<std::size_t> succ_begin_;  ///< CSR offsets, size() + 1
  std::vector<NodeId> succ_;             ///< the edges' `to` column
  std::vector<NodeId> roots_;
  std::vector<NodeId> topo_;
  std::string error_;
};

/// A shape plus a program. Neither pointer changes once built, so a copy
/// shares both, the program's working state included. A default-constructed
/// (or moved-from) graph has no shape and no nodes: it validates, and a
/// scheduler resolves it at once without admitting it.
class KernelGraph {
 public:
  KernelGraph() = default;
  KernelGraph(std::shared_ptr<const GraphShape> shape, std::shared_ptr<GraphProgram> program)
      : shape_(std::move(shape)), program_(std::move(program)) {}

  std::size_t size() const { return shape_ ? shape_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// The program's calls for node `id`.
  fabric::KernelRequest make(NodeId id) const { return program_->make(id); }
  bool commit(NodeId id, const fabric::KernelResult& result) const {
    return program_->commit(id, result);
  }
  std::string name(NodeId id) const { return program_->name(id); }

  /// The structure; the graph must not be default-constructed or moved-from.
  const GraphShape& shape() const { return *shape_; }

  /// The shape's error: a malformed edge or a cycle. Empty when valid.
  std::string validate() const { return shape_ ? shape_->error() : std::string(); }

  /// The shape's topological order; shorter than size() for cyclic graphs
  /// (validate() reports those).
  const std::vector<NodeId>& topo_order() const { return shape().topo_order(); }
  /// Distinct predecessors of `id`.
  std::size_t dep_count(NodeId id) const { return shape().dep_count(id); }
  /// Distinct successors of `id`, in ascending id order.
  std::span<const NodeId> dependents(NodeId id) const { return shape().dependents(id); }

 private:
  std::shared_ptr<const GraphShape> shape_;
  std::shared_ptr<GraphProgram> program_;
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
