#include "dspc/core/directed_spc.h"

#include <algorithm>
#include <utility>

namespace dspc {

DynamicDirectedSpcIndex::DynamicDirectedSpcIndex(
    Digraph graph, const OrderingOptions& ordering)
    : graph_(std::move(graph)),
      ordering_options_(ordering),
      in_(BuildOrdering(graph_, ordering)),
      out_(in_.ordering()),
      core_(DirectedPolicy{{}, &graph_, &in_, &out_}) {
  Build();
}

void DynamicDirectedSpcIndex::Build() {
  core_.Resize();
  for (Rank h = 0; h < in_.NumVertices(); ++h) {
    core_.PushFromHub(h, Direction::kForward);
    core_.PushFromHub(h, Direction::kReverse);
  }
}

SpcResult DynamicDirectedSpcIndex::Query(Vertex s, Vertex t) const {
  return QueryLabels(out_.Labels(s), in_.Labels(t));
}

UpdateStats DynamicDirectedSpcIndex::InsertArc(Vertex a, Vertex b) {
  UpdateStats stats;
  if (!graph_.AddArc(a, b)) return stats;
  stats.applied = true;
  core_.Insert(a, b, 1, &stats);
  return stats;
}

UpdateStats DynamicDirectedSpcIndex::RemoveArc(Vertex a, Vertex b) {
  UpdateStats stats;
  if (a >= graph_.NumVertices() || b >= graph_.NumVertices() ||
      !graph_.HasArc(a, b)) {
    return stats;
  }
  stats.applied = true;
  core_.Delete(a, b, 1, [&] { graph_.RemoveArc(a, b); }, &stats);
  return stats;
}

Vertex DynamicDirectedSpcIndex::AddVertex() {
  const Vertex v = graph_.AddVertex();
  in_.AddVertex();
  out_.AddVertex();
  core_.Resize();
  return v;
}

UpdateStats DynamicDirectedSpcIndex::RemoveVertex(Vertex v) {
  UpdateStats total;
  if (v >= graph_.NumVertices()) return total;
  const std::vector<Vertex> out = graph_.OutNeighbors(v);
  for (const Vertex w : out) total.Accumulate(RemoveArc(v, w));
  const std::vector<Vertex> in = graph_.InNeighbors(v);
  for (const Vertex w : in) total.Accumulate(RemoveArc(w, v));
  return total;
}

void DynamicDirectedSpcIndex::Rebuild() {
  in_ = SpcIndex(BuildOrdering(graph_, ordering_options_));
  out_ = SpcIndex(in_.ordering());
  Build();
}

Status DynamicDirectedSpcIndex::ValidateStructure() const {
  if (in_.ordering().rank_of != out_.ordering().rank_of) {
    return Status::Corruption("in and out families disagree on the ordering");
  }
  Status s = in_.ValidateStructure();
  if (!s.ok()) return Status::Corruption("in-labels: " + s.message());
  s = out_.ValidateStructure();
  if (!s.ok()) return Status::Corruption("out-labels: " + s.message());
  return Status::OK();
}

IndexSizeStats DynamicDirectedSpcIndex::SizeStats() const {
  // n vertices, 2n label sets.
  IndexSizeStats stats = in_.SizeStats();
  const IndexSizeStats out = out_.SizeStats();
  stats.total_entries += out.total_entries;
  stats.max_label_size = std::max(stats.max_label_size, out.max_label_size);
  stats.avg_label_size = (stats.avg_label_size + out.avg_label_size) / 2;
  stats.wide_bytes += out.wide_bytes;
  stats.overflow_entries += out.overflow_entries;
  stats.packed_bytes += out.packed_bytes;
  return stats;
}

}  // namespace dspc
