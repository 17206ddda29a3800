// Weighted DSPC (paper Appendix C.2).
//
// Labels store accumulated edge weights instead of hop counts, Dijkstra
// replaces BFS everywhere, and the edge-weight dynamics map onto the two
// maintenance algorithms:
//   - edge insertion and weight *decrease* are incremental: affected hubs
//     come from L(a) u L(b) and a seeded partial Dijkstra enters the edge
//     with distance d_h,a + w;
//   - edge deletion and weight *increase* are decremental: the affected-
//     vertex condition becomes |sd(v,a) - sd(v,b)| = w (the old weight),
//     and SrrSEARCH / DecUPDATE run as Dijkstra searches.
// All of it is the shared core (core/label_maintenance.h) over a
// Dijkstra frontier. The paper's §3.2.3 isolated-vertex fast path is
// defined for the unweighted case only and is not used here.

#ifndef DSPC_CORE_WEIGHTED_SPC_H_
#define DSPC_CORE_WEIGHTED_SPC_H_

#include "dspc/core/label_maintenance.h"
#include "dspc/core/spc_index.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/ordering.h"
#include "dspc/graph/weighted_graph.h"

namespace dspc {

/// SPC-Index over a positively weighted undirected graph, with dynamic
/// maintenance. Owns the graph. Not thread-safe.
class DynamicWeightedSpcIndex {
 public:
  /// Takes ownership of `graph` and builds the index with Dijkstra-based
  /// hub pushing.
  explicit DynamicWeightedSpcIndex(WeightedGraph graph,
                                   const OrderingOptions& ordering = {});

  /// Weighted SPC query: (total weight of a shortest path, number of
  /// shortest paths); {inf, 0} when disconnected.
  SpcResult Query(Vertex s, Vertex t) const;

  /// Inserts edge (a, b) with weight w > 0; incremental maintenance.
  UpdateStats InsertEdge(Vertex a, Vertex b, Weight w);

  /// Decreases the weight of existing edge (a, b) to `w` (must be smaller
  /// than the current weight); incremental maintenance.
  UpdateStats DecreaseWeight(Vertex a, Vertex b, Weight w);

  /// Deletes edge (a, b); decremental maintenance.
  UpdateStats RemoveEdge(Vertex a, Vertex b);

  /// Increases the weight of existing edge (a, b) to `w` (must be larger
  /// than the current weight); decremental maintenance.
  UpdateStats IncreaseWeight(Vertex a, Vertex b, Weight w);

  /// Appends an isolated vertex (lowest rank; self label only).
  Vertex AddVertex();

  /// Reconstruction baseline.
  void Rebuild();

  const WeightedGraph& graph() const { return graph_; }
  const VertexOrdering& ordering() const { return index_.ordering(); }
  const LabelSet& Labels(Vertex v) const { return index_.Labels(v); }

  /// Structural invariants (sortedness, self labels, rank constraint).
  Status ValidateStructure() const { return index_.ValidateStructure(); }

  /// Size statistics.
  IndexSizeStats SizeStats() const { return index_.SizeStats(); }

 private:
  /// Pushes every hub in rank order over labels that hold only self
  /// labels.
  void Build();

  WeightedGraph graph_;
  OrderingOptions ordering_options_;
  SpcIndex index_;
  LabelMaintenance<WeightedPolicy> core_;
};

}  // namespace dspc

#endif  // DSPC_CORE_WEIGHTED_SPC_H_
