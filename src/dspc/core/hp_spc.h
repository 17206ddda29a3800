// HP-SPC: hub-pushing construction of the SPC-Index (paper §2.2; Zhang &
// Yu, SIGMOD'20). This is also the "reconstruction" baseline the dynamic
// algorithms are compared against in Table 4.

#ifndef DSPC_CORE_HP_SPC_H_
#define DSPC_CORE_HP_SPC_H_

#include <cstddef>
#include <vector>

#include "dspc/common/types.h"
#include "dspc/core/spc_index.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/ordering.h"

namespace dspc {

/// Builds the SPC-Index of `graph` under `ordering`.
///
/// For each vertex v in descending rank order, a BFS restricted to
/// vertices ranked below v runs from v; a visited vertex w is pruned when
/// the already-built index certifies a strictly shorter distance
/// (d_L < D[w]). Pruning must be strict: on equality the label is still
/// needed, because the count of shortest paths on which v is the highest
/// vertex (a non-canonical label) is not covered by any higher hub.
SpcIndex BuildSpcIndex(const Graph& graph, VertexOrdering ordering);

/// Convenience overload: builds the ordering (paper's degree-based order
/// by default), then the index.
SpcIndex BuildSpcIndex(const Graph& graph,
                       const OrderingOptions& ordering_options = {});

namespace internal {

// The one per-hub pruned BFS, shared with the parallel builder
// (parallel_build.cc); not part of the public API.

/// One label a hub's pruned BFS would insert, buffered until the caller
/// inserts it.
struct PendingLabel {
  Vertex v;
  Distance dist;
  PathCount count;
};

/// Scratch for one pruned BFS at a time. The n-sized arrays are reset via
/// the touched list, so a run costs O(visited), not O(n).
struct BfsScratch {
  std::vector<Distance> dist;
  std::vector<PathCount> count;
  std::vector<Vertex> queue;
  std::vector<Vertex> touched;
  HubCache cache;

  explicit BfsScratch(size_t n)
      : dist(n, kInfDistance), count(n, 0), cache(n) {}
};

/// Runs hub h's rank-restricted pruned BFS against `index`, writing the
/// labels it would insert to *out instead of inserting them. Buffering is
/// exact: a hub's own labels land in L(v) of vertices whose prune test
/// has already run, so its BFS never reads them (DESIGN.md §12).
void RunPrunedHubBfs(const Graph& graph, const VertexOrdering& order, Rank h,
                     const SpcIndex& index, BfsScratch& ws,
                     std::vector<PendingLabel>* out);

}  // namespace internal
}  // namespace dspc

#endif  // DSPC_CORE_HP_SPC_H_
