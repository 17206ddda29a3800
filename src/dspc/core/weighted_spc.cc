#include "dspc/core/weighted_spc.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace dspc {

namespace {

/// True when replacing an edge of weight `old` (0: a new edge) by one of
/// weight `w` keeps the total within kMaxTotalWeight.
bool FitsTotalWeight(const WeightedGraph& graph, Weight old, Weight w) {
  return graph.TotalWeight() - old + w <= kMaxTotalWeight;
}

/// The constructor's refusal, checked before any label is built.
WeightedGraph CheckTotalWeight(WeightedGraph graph) {
  if (graph.TotalWeight() > kMaxTotalWeight) {
    throw std::invalid_argument(
        "total edge weight " + std::to_string(graph.TotalWeight()) +
        " exceeds kMaxTotalWeight " + std::to_string(kMaxTotalWeight));
  }
  return graph;
}

}  // namespace

DynamicWeightedSpcIndex::DynamicWeightedSpcIndex(
    WeightedGraph graph, const OrderingOptions& ordering)
    : graph_(CheckTotalWeight(std::move(graph))),
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
  if (!FitsTotalWeight(graph_, 0, w) || !graph_.AddEdge(a, b, w)) {
    return stats;
  }
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
  if (!FitsTotalWeight(graph_, old, w)) return stats;
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
