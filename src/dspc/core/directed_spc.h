// Directed DSPC (paper Appendix C.1).
//
// Each vertex carries two label sets: L_in(v) covers shortest paths
// *into* v (entries (h, sd(h,v), spc(h^,v)) for hubs h with a shortest
// h->v path on which h is the highest-ranked vertex) and L_out(v) covers
// shortest paths *out of* v. SPC(s, t) scans L_out(s) against L_in(t).
//
// The build and both maintenance algorithms are the shared core
// (core/label_maintenance.h) over out-arcs and in-labels forward, in-arcs
// and out-labels in reverse.

#ifndef DSPC_CORE_DIRECTED_SPC_H_
#define DSPC_CORE_DIRECTED_SPC_H_

#include "dspc/core/label_maintenance.h"
#include "dspc/core/spc_index.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/digraph.h"
#include "dspc/graph/ordering.h"

namespace dspc {

/// SPC-Index over a directed graph, with dynamic maintenance. Owns the
/// digraph. Not thread-safe.
class DynamicDirectedSpcIndex {
 public:
  /// Takes ownership of `graph` and builds the directed SPC-Index via
  /// directed HP-SPC (two restricted BFS per hub).
  explicit DynamicDirectedSpcIndex(Digraph graph,
                                   const OrderingOptions& ordering = {});

  /// Number of shortest s->t paths and their length; {inf, 0} when t is
  /// unreachable from s.
  SpcResult Query(Vertex s, Vertex t) const;

  /// Inserts arc a->b and maintains the index incrementally.
  UpdateStats InsertArc(Vertex a, Vertex b);

  /// Deletes arc a->b and maintains the index decrementally.
  UpdateStats RemoveArc(Vertex a, Vertex b);

  /// Appends an isolated vertex (lowest rank; self labels only).
  Vertex AddVertex();

  /// Removes all arcs incident to v via decremental updates.
  UpdateStats RemoveVertex(Vertex v);

  /// Reconstruction baseline.
  void Rebuild();

  const Digraph& graph() const { return graph_; }
  const VertexOrdering& ordering() const { return in_.ordering(); }
  const LabelSet& InLabels(Vertex v) const { return in_.Labels(v); }
  const LabelSet& OutLabels(Vertex v) const { return out_.Labels(v); }

  /// Structural invariants of both label families.
  Status ValidateStructure() const;

  /// Size statistics over both label families combined.
  IndexSizeStats SizeStats() const;

 private:
  /// Pushes every hub in rank order, both directions, over families that
  /// hold only self labels.
  void Build();

  Digraph graph_;
  OrderingOptions ordering_options_;
  SpcIndex in_;   // forward family
  SpcIndex out_;  // reverse family
  LabelMaintenance<DirectedPolicy> core_;
};

}  // namespace dspc

#endif  // DSPC_CORE_DIRECTED_SPC_H_
