// HP-SPC: hub-pushing construction of the SPC-Index (paper §2.2; Zhang &
// Yu, SIGMOD'20). This is also the "reconstruction" baseline the dynamic
// algorithms are compared against in Table 4.

#ifndef DSPC_CORE_HP_SPC_H_
#define DSPC_CORE_HP_SPC_H_

#include <cstddef>
#include <span>
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
///
/// The build runs in rank space (DESIGN.md §12): the BFS walks the graph
/// relabelled by rank, the labels grow as per-rank (hub, dist) and count
/// columns, and the SpcIndex is materialised once at the end.
SpcIndex BuildSpcIndex(const Graph& graph, VertexOrdering ordering);

/// Convenience overload: builds the ordering (paper's degree-based order
/// by default), then the index.
SpcIndex BuildSpcIndex(const Graph& graph,
                       const OrderingOptions& ordering_options = {});

namespace internal {

// The rank-space build state and the one per-hub pruned BFS, shared with
// the parallel builder (parallel_build.cc); not part of the public API.

/// The graph relabelled by rank: vertex r is the vertex of rank r, and
/// each neighbour list is sorted by descending rank, so a hub's BFS, which
/// visits only vertices ranked below the hub (ranks > h), stops scanning a
/// list at the first w <= h. Immutable once built, so concurrent BFSes can
/// share one.
class RankGraph {
 public:
  RankGraph(const Graph& graph, const VertexOrdering& order);

  size_t NumVertices() const { return offsets_.size() - 1; }

  size_t Degree(Rank r) const { return offsets_[r + 1] - offsets_[r]; }

  /// Ranks of r's neighbours, descending.
  std::span<const Rank> Neighbors(Rank r) const {
    return {adj_.data() + offsets_[r], adj_.data() + offsets_[r + 1]};
  }

 private:
  std::vector<size_t> offsets_;  // n + 1 entries; 2m can exceed 2^32
  std::vector<Rank> adj_;
};

/// A label as the prune test reads it: 8 bytes instead of LabelEntry's 16.
struct HubDist {
  Rank hub;
  Distance dist;
};

/// One label a hub's pruned BFS would insert, buffered until the caller
/// appends it. `r` is the rank of the labelled vertex.
struct PendingLabel {
  Rank r;
  Distance dist;
  PathCount count;
};

/// The labels under construction, by the rank of their owner: a (hub,
/// dist) column, which is all the prune test reads, and the counts beside
/// it. Hubs finish in ascending rank, so every insert is an append and
/// each column stays sorted by hub. Self labels stay out until
/// materialisation.
class RankLabels {
 public:
  explicit RankLabels(size_t n) : hub_dist_(n), count_(n) {}

  /// L(vertex of rank r) without its self label.
  const std::vector<HubDist>& HubDists(Rank r) const { return hub_dist_[r]; }

  /// Appends hub h's buffered labels.
  void Append(Rank h, const std::vector<PendingLabel>& labels) {
    for (const PendingLabel& e : labels) {
      hub_dist_[e.r].push_back({h, e.dist});
      count_[e.r].push_back(e.count);
    }
  }

  /// Materialises the SpcIndex: per rank, zips the two columns, appends
  /// the self label (r, 0, 1), moves the set into its vertex's slot and
  /// frees the rank's columns before the next, so peak memory stays near
  /// the size of the finished index.
  SpcIndex ToIndex(VertexOrdering ordering) &&;

 private:
  std::vector<std::vector<HubDist>> hub_dist_;
  std::vector<std::vector<PathCount>> count_;
};

/// Scratch for one pruned BFS at a time, indexed by rank. The n-sized
/// arrays are reset via the queue (every visited rank is queued once), so
/// a run costs O(visited), not O(n).
struct BfsScratch {
  std::vector<Distance> dist;
  std::vector<PathCount> count;
  std::vector<Rank> queue;
  HubCache cache;

  explicit BfsScratch(size_t n)
      : dist(n, kInfDistance), count(n, 0), queue(n), cache(n) {}
};

/// Runs hub h's rank-restricted pruned BFS against `labels`, writing the
/// labels it would insert to *out instead of appending them. Buffering is
/// exact: a hub's own labels land in the columns of ranks whose prune test
/// has already run, so its BFS never reads them (DESIGN.md §12).
void RunPrunedHubBfs(const RankGraph& graph, Rank h, const RankLabels& labels,
                     BfsScratch& ws, std::vector<PendingLabel>* out);

}  // namespace internal
}  // namespace dspc

#endif  // DSPC_CORE_HP_SPC_H_
