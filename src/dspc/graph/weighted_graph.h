// Dynamic undirected graph with positive integer edge weights: substrate
// for the weighted extension of DSPC (paper Appendix C.2).

#ifndef DSPC_GRAPH_WEIGHTED_GRAPH_H_
#define DSPC_GRAPH_WEIGHTED_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dspc/common/types.h"

namespace dspc {

/// A weighted undirected edge.
struct WeightedEdge {
  Vertex u;
  Vertex v;
  Weight w;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

/// A (neighbor, weight) adjacency entry.
struct WeightedNeighbor {
  Vertex to;
  Weight w;

  friend bool operator==(const WeightedNeighbor&,
                         const WeightedNeighbor&) = default;
};

/// Dynamic undirected graph with positive weights. Sorted adjacency as in
/// Graph; zero weights are rejected (shortest paths require positive costs).
class WeightedGraph {
 public:
  WeightedGraph() = default;
  explicit WeightedGraph(size_t n) : adj_(n) {}

  /// Builds from an edge list; duplicates keep the first weight seen.
  WeightedGraph(size_t n, const std::vector<WeightedEdge>& edges);

  size_t NumVertices() const { return adj_.size(); }
  size_t NumEdges() const { return num_edges_; }
  size_t Degree(Vertex v) const { return adj_[v].size(); }

  /// Sum of all edge weights: a bound on the length of every simple path.
  uint64_t TotalWeight() const { return total_weight_; }

  /// Sorted (by neighbor id) adjacency of `v`.
  const std::vector<WeightedNeighbor>& Neighbors(Vertex v) const {
    return adj_[v];
  }

  bool HasEdge(Vertex u, Vertex v) const;

  /// Weight of edge (u, v); 0 if absent.
  Weight EdgeWeight(Vertex u, Vertex v) const;

  /// Adds edge (u, v) with weight w > 0. False on self-loop/range/duplicate
  /// or w == 0.
  bool AddEdge(Vertex u, Vertex v, Weight w);

  /// Removes edge (u, v). False if absent.
  bool RemoveEdge(Vertex u, Vertex v);

  /// Changes the weight of existing edge (u, v) to w > 0. False if the edge
  /// is absent or w == 0.
  bool SetWeight(Vertex u, Vertex v, Weight w);

  /// Appends an isolated vertex and returns its id.
  Vertex AddVertex();

  /// All edges once with u < v.
  std::vector<WeightedEdge> Edges() const;

 private:
  std::vector<WeightedNeighbor>::iterator Find(Vertex u, Vertex v);
  std::vector<WeightedNeighbor>::const_iterator Find(Vertex u, Vertex v) const;

  std::vector<std::vector<WeightedNeighbor>> adj_;
  size_t num_edges_ = 0;
  uint64_t total_weight_ = 0;
};

}  // namespace dspc

#endif  // DSPC_GRAPH_WEIGHTED_GRAPH_H_
