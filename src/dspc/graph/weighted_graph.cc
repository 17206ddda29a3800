#include "dspc/graph/weighted_graph.h"

#include <algorithm>

namespace dspc {

namespace {

bool NeighborLess(const WeightedNeighbor& a, Vertex b) { return a.to < b; }

}  // namespace

WeightedGraph::WeightedGraph(size_t n, const std::vector<WeightedEdge>& edges)
    : adj_(n) {
  for (const WeightedEdge& e : edges) {
    if (e.u == e.v || e.u >= n || e.v >= n || e.w == 0) continue;
    AddEdge(e.u, e.v, e.w);
  }
}

std::vector<WeightedNeighbor>::iterator WeightedGraph::Find(Vertex u,
                                                            Vertex v) {
  return std::lower_bound(adj_[u].begin(), adj_[u].end(), v, NeighborLess);
}

std::vector<WeightedNeighbor>::const_iterator WeightedGraph::Find(
    Vertex u, Vertex v) const {
  return std::lower_bound(adj_[u].begin(), adj_[u].end(), v, NeighborLess);
}

bool WeightedGraph::HasEdge(Vertex u, Vertex v) const {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  auto it = Find(u, v);
  return it != adj_[u].end() && it->to == v;
}

Weight WeightedGraph::EdgeWeight(Vertex u, Vertex v) const {
  if (u >= adj_.size() || v >= adj_.size()) return 0;
  auto it = Find(u, v);
  return (it != adj_[u].end() && it->to == v) ? it->w : 0;
}

bool WeightedGraph::AddEdge(Vertex u, Vertex v, Weight w) {
  if (u == v || u >= adj_.size() || v >= adj_.size() || w == 0) return false;
  auto it = Find(u, v);
  if (it != adj_[u].end() && it->to == v) return false;
  adj_[u].insert(it, WeightedNeighbor{v, w});
  adj_[v].insert(Find(v, u), WeightedNeighbor{u, w});
  ++num_edges_;
  total_weight_ += w;
  return true;
}

bool WeightedGraph::RemoveEdge(Vertex u, Vertex v) {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  auto it = Find(u, v);
  if (it == adj_[u].end() || it->to != v) return false;
  total_weight_ -= it->w;
  adj_[u].erase(it);
  adj_[v].erase(Find(v, u));
  --num_edges_;
  return true;
}

bool WeightedGraph::SetWeight(Vertex u, Vertex v, Weight w) {
  if (w == 0 || u >= adj_.size() || v >= adj_.size()) return false;
  auto it = Find(u, v);
  if (it == adj_[u].end() || it->to != v) return false;
  total_weight_ = total_weight_ - it->w + w;
  it->w = w;
  Find(v, u)->w = w;
  return true;
}

Vertex WeightedGraph::AddVertex() {
  adj_.emplace_back();
  return static_cast<Vertex>(adj_.size() - 1);
}

std::vector<WeightedEdge> WeightedGraph::Edges() const {
  std::vector<WeightedEdge> edges;
  edges.reserve(num_edges_);
  for (Vertex u = 0; u < adj_.size(); ++u) {
    for (const WeightedNeighbor& nb : adj_[u]) {
      if (u < nb.to) edges.push_back(WeightedEdge{u, nb.to, nb.w});
    }
  }
  return edges;
}

}  // namespace dspc
