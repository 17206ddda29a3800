#include "dspc/core/hp_spc.h"

#include <vector>

#include "dspc/common/types.h"

namespace dspc {
namespace internal {

void RunPrunedHubBfs(const Graph& graph, const VertexOrdering& order,
                     const Rank h, const SpcIndex& index, BfsScratch& ws,
                     std::vector<PendingLabel>* out) {
  out->clear();
  const Vertex hv = order.vertex_of[h];
  // Distances from hv through already-processed (higher-ranked) hubs.
  ws.cache.Load(index.Labels(hv));
  ws.dist[hv] = 0;
  ws.count[hv] = 1;
  ws.queue.clear();
  ws.queue.push_back(hv);
  ws.touched.clear();
  ws.touched.push_back(hv);
  for (size_t head = 0; head < ws.queue.size(); ++head) {
    const Vertex v = ws.queue[head];
    if (v != hv) {
      // Prune only on strictly shorter coverage; equality still labels
      // (non-canonical counts) and keeps expanding.
      if (ws.cache.Covers(index.Labels(v), ws.dist[v])) continue;
      out->push_back({v, ws.dist[v], ws.count[v]});
    }
    for (const Vertex w : graph.Neighbors(v)) {
      if (order.rank_of[w] <= h) continue;  // only lower-ranked vertices
      if (ws.dist[w] == kInfDistance) {
        ws.dist[w] = ws.dist[v] + 1;
        ws.count[w] = ws.count[v];
        ws.queue.push_back(w);
        ws.touched.push_back(w);
      } else if (ws.dist[w] == ws.dist[v] + 1) {
        ws.count[w] += ws.count[v];
      }
    }
  }
  for (const Vertex v : ws.touched) {
    ws.dist[v] = kInfDistance;
    ws.count[v] = 0;
  }
}

}  // namespace internal

SpcIndex BuildSpcIndex(const Graph& graph, VertexOrdering ordering) {
  SpcIndex index(std::move(ordering));
  internal::BfsScratch scratch(graph.NumVertices());
  std::vector<internal::PendingLabel> out;
  for (Rank h = 0; h < graph.NumVertices(); ++h) {
    // An isolated hub needs only its self label.
    if (graph.Degree(index.VertexOf(h)) == 0) continue;
    internal::RunPrunedHubBfs(graph, index.ordering(), h, index, scratch,
                              &out);
    for (const internal::PendingLabel& e : out) {
      index.InsertLabel(e.v, LabelEntry{h, e.dist, e.count});
    }
  }
  return index;
}

SpcIndex BuildSpcIndex(const Graph& graph,
                       const OrderingOptions& ordering_options) {
  return BuildSpcIndex(graph, BuildOrdering(graph, ordering_options));
}

}  // namespace dspc
