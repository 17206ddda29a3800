#include "dspc/core/hp_spc.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "dspc/common/types.h"

namespace dspc {
namespace internal {

RankGraph::RankGraph(const Graph& graph, const VertexOrdering& order) {
  const size_t n = graph.NumVertices();
  offsets_.assign(n + 1, 0);
  for (Rank r = 0; r < n; ++r) {
    offsets_[r + 1] = offsets_[r] + graph.Degree(order.vertex_of[r]);
  }
  adj_.resize(offsets_[n]);
  for (Rank r = 0; r < n; ++r) {
    Rank* out = adj_.data() + offsets_[r];
    for (const Vertex w : graph.Neighbors(order.vertex_of[r])) {
      *out++ = order.rank_of[w];
    }
    std::sort(adj_.data() + offsets_[r], out, std::greater<Rank>());
  }
}

SpcIndex RankLabels::ToIndex(VertexOrdering ordering) && {
  std::vector<LabelSet> sets(hub_dist_.size());
  for (Rank r = 0; r < hub_dist_.size(); ++r) {
    std::vector<HubDist>& hd = hub_dist_[r];
    std::vector<PathCount>& counts = count_[r];
    LabelSet& set = sets[ordering.vertex_of[r]];
    set.reserve(hd.size() + 1);
    for (size_t i = 0; i < hd.size(); ++i) {
      set.push_back(LabelEntry{hd[i].hub, hd[i].dist, counts[i]});
    }
    set.push_back(LabelEntry{r, 0, 1});
    std::vector<HubDist>().swap(hd);
    std::vector<PathCount>().swap(counts);
  }
  return SpcIndex(std::move(ordering), std::move(sets));
}

void RunPrunedHubBfs(const RankGraph& graph, const Rank h,
                     const RankLabels& labels, BfsScratch& ws,
                     std::vector<PendingLabel>* out) {
  out->clear();
  ws.prune.Start(graph, labels, h);
  // Raw pointers: the pushes to *out would otherwise make the compiler
  // reload every array base on each access.
  Distance* const dist = ws.dist.data();
  PathCount* const count = ws.count.data();
  Rank* const queue = ws.queue.data();  // n slots: each rank queued once
  dist[h] = 0;
  count[h] = 1;
  queue[0] = h;
  size_t tail = 1;
  for (size_t head = 0; head < tail; ++head) {
    const Rank v = queue[head];
    const Distance dv = dist[v];
    const PathCount cv = count[v];
    if (v != h) {
      // Prune only on strictly shorter coverage; equality still labels
      // (non-canonical counts) and keeps expanding.
      if (ws.prune.Prunes(v, dv)) continue;
      out->push_back({v, dv, cv});
    }
    for (const Rank w : graph.Neighbors(v)) {
      if (w <= h) break;  // descending: the rest outrank or equal h
      if (dist[w] == kInfDistance) {
        dist[w] = dv + 1;
        count[w] = cv;
        queue[tail++] = w;
      } else if (dist[w] == dv + 1) {
        count[w] += cv;
      }
    }
  }
  for (size_t i = 0; i < tail; ++i) {
    dist[queue[i]] = kInfDistance;
    count[queue[i]] = 0;
  }
  ws.prune.Finish();
}

}  // namespace internal

SpcIndex BuildSpcIndex(const Graph& graph, VertexOrdering ordering) {
  const size_t n = graph.NumVertices();
  const internal::RankGraph rank_graph(graph, ordering);
  internal::RankLabels labels(n);
  internal::BfsScratch scratch(n);
  std::vector<internal::PendingLabel> out;
  for (Rank h = 0; h < n; ++h) {
    // An isolated hub needs only its self label.
    if (rank_graph.Degree(h) == 0) continue;
    internal::RunPrunedHubBfs(rank_graph, h, labels, scratch, &out);
    labels.Append(h, out);
  }
  return std::move(labels).ToIndex(std::move(ordering));
}

SpcIndex BuildSpcIndex(const Graph& graph,
                       const OrderingOptions& ordering_options) {
  return BuildSpcIndex(graph, BuildOrdering(graph, ordering_options));
}

}  // namespace dspc
