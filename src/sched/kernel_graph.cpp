#include "sched/kernel_graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

namespace lac::sched {

NodeId KernelGraph::add_node(fabric::KernelRequest req, std::string name) {
  return add_node(
      [req = std::move(req)] { return req; }, std::move(name), {});
}

NodeId KernelGraph::add_node(std::function<fabric::KernelRequest()> make,
                             std::string name,
                             std::function<void(const fabric::KernelResult&)> commit) {
  nodes_.push_back(GraphNode{std::move(name), std::move(make), std::move(commit)});
  indexed_ = false;
  return nodes_.size() - 1;
}

void KernelGraph::add_edge(NodeId from, NodeId to) {
  if (from >= nodes_.size() || to >= nodes_.size() || from == to) {
    // Remembered so validate() rejects the graph: silently dropping an
    // edge would leave a conflicting access unordered, breaking the
    // byte-identical-across-widths guarantee instead of failing loudly.
    if (malformed_.empty()) {
      std::ostringstream os;
      os << "malformed edge " << from << " -> " << to
         << (from == to ? " (self-dependency)" : " (node id out of range)");
      malformed_ = os.str();
    }
    return;
  }
  edges_.emplace_back(from, to);
  indexed_ = false;
}

void KernelGraph::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  edges_.reserve(edges);
}

void KernelGraph::index() const {
  if (indexed_) return;
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  const std::size_t n = nodes_.size();
  dep_count_.assign(n, 0);
  succ_begin_.assign(n + 1, 0);
  succ_.resize(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto [from, to] = edges_[e];
    ++dep_count_[to];
    ++succ_begin_[from + 1];
    succ_[e] = to;  // sorted by `from`, so this is already the CSR order
  }
  for (std::size_t id = 0; id < n; ++id) succ_begin_[id + 1] += succ_begin_[id];
  indexed_ = true;
}

std::size_t KernelGraph::dep_count(NodeId id) const {
  index();
  return dep_count_[id];
}

std::span<const NodeId> KernelGraph::dependents(NodeId id) const {
  index();
  return std::span<const NodeId>(succ_).subspan(succ_begin_[id],
                                                succ_begin_[id + 1] - succ_begin_[id]);
}

std::string KernelGraph::validate() const {
  if (!malformed_.empty()) return malformed_;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].make) {
      std::ostringstream os;
      os << "node " << id << " has no request builder";
      return os.str();
    }
  }
  if (!nodes_.empty() && topo_order().size() != nodes_.size())
    return "graph contains a dependency cycle";
  return {};
}

std::vector<NodeId> KernelGraph::topo_order() const {
  index();
  std::vector<std::size_t> missing = dep_count_;
  // Min-heap on node id: the ready set pops in ascending id order, making
  // the order (and everything derived from it) deterministic.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id)
    if (missing[id] == 0) ready.push(id);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const NodeId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (NodeId dep : dependents(id))
      if (--missing[dep] == 0) ready.push(dep);
  }
  return order;  // shorter than size() iff cyclic
}

units::Cycles list_makespan(const KernelGraph& graph,
                            const std::vector<fabric::KernelResult>& results,
                            unsigned workers) {
  // The list-schedule simulation below runs on raw doubles (virtual worker
  // free times); only the boundary is typed.
  const std::size_t n = graph.size();
  if (n == 0 || results.size() < n) return units::Cycles{};
  const unsigned w = std::max(1u, workers);

  std::vector<std::size_t> missing(n, 0);
  std::vector<double> release(n, 0.0);
  for (NodeId id = 0; id < n; ++id) missing[id] = graph.dep_count(id);

  // Ready nodes ordered by (release time, id); virtual workers by free time.
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  std::priority_queue<double, std::vector<double>, std::greater<double>> avail;
  for (unsigned i = 0; i < w; ++i) avail.push(0.0);
  for (NodeId id = 0; id < n; ++id)
    if (missing[id] == 0) ready.push({0.0, id});

  double makespan = 0.0;
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const auto [rel, id] = ready.top();
    ready.pop();
    const double worker_free = avail.top();
    avail.pop();
    const double start = std::max(rel, worker_free);
    const double end = start + std::max(0.0, results[id].cycles.value());
    avail.push(end);
    makespan = std::max(makespan, end);
    ++scheduled;
    for (NodeId dep : graph.dependents(id)) {
      release[dep] = std::max(release[dep], end);
      if (--missing[dep] == 0) ready.push({release[dep], dep});
    }
  }
  // A cyclic graph never gets here via the scheduler (validate() rejects
  // it); fall back to the serial sum so the figure stays meaningful.
  if (scheduled != n) return serial_cycles(results);
  return units::Cycles(makespan);
}

units::Cycles serial_cycles(const std::vector<fabric::KernelResult>& results) {
  double total = 0.0;
  for (const fabric::KernelResult& r : results)
    total += std::max(0.0, r.cycles.value());
  return units::Cycles(total);
}

}  // namespace lac::sched
