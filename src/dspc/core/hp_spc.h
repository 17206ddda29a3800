// HP-SPC: hub-pushing construction of the SPC-Index (paper §2.2; Zhang &
// Yu, SIGMOD'20). This is also the "reconstruction" baseline the dynamic
// algorithms are compared against in Table 4.

#ifndef DSPC_CORE_HP_SPC_H_
#define DSPC_CORE_HP_SPC_H_

#include <cstddef>
#include <cstdint>
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

/// The prune test of hub h's BFS: is the vertex v, reached at BFS depth
/// dv, covered by a hub above h with a distance below dv? It answers as
/// `HubCache::Covers(L(v), dv)` with L(h) loaded does, but reads no label
/// at depths up to 3 (DESIGN.md §2, "The shallow prune tests"). Every
/// entry Covers could read has distance >= 1: the columns hold no self
/// labels, and h's own labels stay buffered during its BFS. So a depth
/// <= 2 never prunes, and a depth of 3 prunes iff some hub is at distance
/// 1 from both, that is a neighbour of both v and h ranked above h.
class HubPruneTest {
 public:
  explicit HubPruneTest(size_t n) : cache_(n), hub_neighbor_(n, 0) {}

  /// Readies the test for hub h against `labels`: loads L(h) and marks
  /// h's neighbours ranked above it, in O(|L(h)| + deg h).
  void Start(const RankGraph& graph, const RankLabels& labels, Rank h) {
    graph_ = &graph;
    labels_ = &labels;
    h_ = h;
    cache_.Load(labels.HubDists(h));
    SetMark(1);
  }

  /// Clears the mark Start set, in O(deg h).
  void Finish() { SetMark(0); }

  /// True iff the vertex of rank v > h, reached at depth dv, is pruned.
  bool Prunes(Rank v, Distance dv) const {
    if (dv <= 2) return false;
    if (dv == 3) return SharesNeighborAboveHub(v);
    return cache_.Covers(labels_->HubDists(v), dv);
  }

  /// L(h) as loaded by Start; Covers on it is what Prunes must equal.
  const HubCache& cache() const { return cache_; }

 private:
  /// Scans v's neighbours ranked above h: the tail of its descending list.
  bool SharesNeighborAboveHub(Rank v) const {
    const std::span<const Rank> nv = graph_->Neighbors(v);
    for (auto it = nv.rbegin(); it != nv.rend() && *it < h_; ++it) {
      if (hub_neighbor_[*it] != 0) return true;
    }
    return false;
  }

  void SetMark(uint8_t value) {
    const std::span<const Rank> nh = graph_->Neighbors(h_);
    for (auto it = nh.rbegin(); it != nh.rend() && *it < h_; ++it) {
      hub_neighbor_[*it] = value;
    }
  }

  const RankGraph* graph_ = nullptr;
  const RankLabels* labels_ = nullptr;
  Rank h_ = 0;
  HubCache cache_;
  std::vector<uint8_t> hub_neighbor_;  // by rank: 1 iff in N(h), above h
};

/// Scratch for one pruned BFS at a time, indexed by rank. The n-sized
/// arrays are reset via the queue (every visited rank is queued once), so
/// a run costs O(visited), not O(n).
struct BfsScratch {
  std::vector<Distance> dist;
  std::vector<PathCount> count;
  std::vector<Rank> queue;
  HubPruneTest prune;

  explicit BfsScratch(size_t n)
      : dist(n, kInfDistance), count(n, 0), queue(n), prune(n) {}
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
