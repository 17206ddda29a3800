#include "dspc/core/weighted_spc.h"

#include <utility>

namespace dspc {

DynamicWeightedSpcIndex::DynamicWeightedSpcIndex(
    WeightedGraph graph, const OrderingOptions& ordering)
    : graph_(std::move(graph)),
      ordering_options_(ordering),
      index_(BuildOrdering(graph_, ordering)),
      core_(WeightedPolicy{&graph_, &index_}) {
  Build();
}

void DynamicWeightedSpcIndex::Build() {
  core_.Resize();
  for (Rank h = 0; h < index_.NumVertices(); ++h) {
    core_.PushFromHub(h, Direction::kForward);
  }
}

SpcResult DynamicWeightedSpcIndex::Query(Vertex s, Vertex t) const {
  return index_.Query(s, t);
}

UpdateStats DynamicWeightedSpcIndex::InsertEdge(Vertex a, Vertex b, Weight w) {
  UpdateStats stats;
  if (!graph_.AddEdge(a, b, w)) return stats;
  stats.applied = true;
  core_.Insert(a, b, w, &stats);
  return stats;
}

UpdateStats DynamicWeightedSpcIndex::DecreaseWeight(Vertex a, Vertex b,
                                                    Weight w) {
  UpdateStats stats;
  const Weight old = graph_.EdgeWeight(a, b);
  if (old == 0 || w == 0 || w >= old) return stats;  // absent or not a decrease
  graph_.SetWeight(a, b, w);
  stats.applied = true;
  core_.Insert(a, b, w, &stats);
  return stats;
}

UpdateStats DynamicWeightedSpcIndex::RemoveEdge(Vertex a, Vertex b) {
  UpdateStats stats;
  const Weight w = graph_.EdgeWeight(a, b);
  if (w == 0) return stats;  // absent
  stats.applied = true;
  core_.Delete(a, b, w, [&] { graph_.RemoveEdge(a, b); }, &stats);
  return stats;
}

UpdateStats DynamicWeightedSpcIndex::IncreaseWeight(Vertex a, Vertex b,
                                                    Weight w) {
  UpdateStats stats;
  const Weight old = graph_.EdgeWeight(a, b);
  if (old == 0 || w <= old) return stats;  // absent or not an increase
  stats.applied = true;
  // Classified with the old length, which the paths being lost used.
  core_.Delete(a, b, old, [&] { graph_.SetWeight(a, b, w); }, &stats);
  return stats;
}

Vertex DynamicWeightedSpcIndex::AddVertex() {
  const Vertex v = graph_.AddVertex();
  index_.AddVertex();
  core_.Resize();
  return v;
}

void DynamicWeightedSpcIndex::Rebuild() {
  index_ = SpcIndex(BuildOrdering(graph_, ordering_options_));
  Build();
}

}  // namespace dspc
