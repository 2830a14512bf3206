#include "sched/kernel_graph.hpp"

#include <algorithm>
#include <complex>
#include <functional>
#include <queue>
#include <sstream>
#include <utility>

namespace lac::sched {

GraphShape::GraphShape(std::vector<NodeDesc> desc, std::size_t nodes,
                       std::vector<std::pair<NodeId, NodeId>> edges)
    : desc_(std::move(desc)) {
  // A bad edge fails validation rather than being dropped silently, which
  // would leave a conflicting access unordered and break the
  // byte-identical-across-widths guarantee.
  const auto bad = [nodes](const std::pair<NodeId, NodeId>& e) {
    return e.first >= nodes || e.second >= nodes || e.first == e.second;
  };
  if (const auto it = std::find_if(edges.begin(), edges.end(), bad); it != edges.end()) {
    std::ostringstream os;
    os << "malformed edge " << it->first << " -> " << it->second
       << (it->first == it->second ? " (self-dependency)" : " (node id out of range)");
    error_ = os.str();
    std::erase_if(edges, bad);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  dep_count_.assign(nodes, 0);
  succ_begin_.assign(nodes + 1, 0);
  succ_.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [from, to] = edges[e];
    ++dep_count_[to];
    ++succ_begin_[from + 1];
    succ_[e] = to;  // sorted by `from`, so this is already the CSR order
  }
  for (std::size_t id = 0; id < nodes; ++id) succ_begin_[id + 1] += succ_begin_[id];

  std::vector<std::size_t> missing = dep_count_;
  // Min-heap on node id: the ready set pops in ascending id order, making
  // the order (and everything derived from it) deterministic.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>> ready;
  for (NodeId id = 0; id < nodes; ++id)
    if (missing[id] == 0) {
      roots_.push_back(id);
      ready.push(id);
    }
  topo_.reserve(nodes);
  while (!ready.empty()) {
    const NodeId id = ready.top();
    ready.pop();
    topo_.push_back(id);
    for (NodeId dep : dependents(id))
      if (--missing[dep] == 0) ready.push(dep);
  }
  if (error_.empty() && topo_.size() != nodes) error_ = "graph contains a dependency cycle";
}

namespace {

/// Frees a committed node's outputs on the worker that allocated them: the
/// commit copied what its dependents read into the shared working state.
void drop_outputs(fabric::KernelResult& res) {
  res.out = MatrixD();
  res.pivots = std::vector<index_t>();
  res.taus = std::vector<double>();
  res.spectrum = std::vector<std::complex<double>>();
}

}  // namespace

NodeRun run_node(const KernelGraph& graph, NodeId id, const fabric::Executor& backend) {
  NodeRun run;
  fabric::KernelRequest req;
  // A throwing `make` fails its node in-band (attributed to the node name,
  // and cancelling downstream), never unwinds into the caller.
  try {
    req = graph.make(id);
  } catch (const std::exception& e) {
    run.result = fabric::make_failed(graph.name(id), backend.name(),
                                     std::string("request build failed: ") + e.what());
    return run;
  } catch (...) {
    run.result = fabric::make_failed(graph.name(id), backend.name(), "request build failed");
    return run;
  }
  run.clock_ghz = fabric::effective_core(req).pe.clock_ghz;
  run.result = fabric::run_request(backend, req);
  if (!run.result.ok) return run;
  try {
    if (graph.commit(id, run.result)) drop_outputs(run.result);
  } catch (const std::exception& e) {
    run.result = fabric::make_failed(req, backend.name(),
                                     std::string("commit failed: ") + e.what());
  } catch (...) {
    run.result = fabric::make_failed(req, backend.name(), "commit failed");
  }
  return run;
}

units::Cycles list_makespan(const KernelGraph& graph,
                            const std::vector<fabric::KernelResult>& results,
                            unsigned workers) {
  // The list-schedule simulation below runs on raw doubles (virtual worker
  // free times); only the boundary is typed.
  const std::size_t n = graph.size();
  if (n == 0 || results.size() < n) return units::Cycles{};
  const unsigned w = std::max(1u, workers);
  const GraphShape& shape = graph.shape();

  std::vector<std::size_t> missing = shape.dep_counts();
  std::vector<double> release(n, 0.0);

  // Ready nodes ordered by (release time, id); virtual workers by free time.
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  std::priority_queue<double, std::vector<double>, std::greater<double>> avail;
  for (unsigned i = 0; i < w; ++i) avail.push(0.0);
  for (NodeId id : shape.roots()) ready.push({0.0, id});

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
    for (NodeId dep : shape.dependents(id)) {
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
