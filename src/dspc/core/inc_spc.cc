#include "dspc/core/inc_spc.h"

#include <algorithm>

namespace dspc {

IncSpc::IncSpc(Graph* graph, SpcIndex* index)
    : graph_(graph),
      index_(index),
      cache_(index->NumVertices()),
      dist_(index->NumVertices(), kInfDistance),
      count_(index->NumVertices(), 0) {}

void IncSpc::Resize() {
  const size_t n = index_->NumVertices();
  cache_ = HubCache(n);
  dist_.assign(n, kInfDistance);
  count_.assign(n, 0);
}

UpdateStats IncSpc::InsertEdge(Vertex a, Vertex b) {
  UpdateStats stats;
  if (!graph_->AddEdge(a, b)) return stats;  // self-loop/range/duplicate
  stats.applied = true;

  // AFF = {h | h in L_i(a) u L_i(b)}, processed from highest rank down
  // (ascending rank value). Collected before any label mutation.
  std::vector<Rank> aff;
  {
    const LabelSet& la = index_->Labels(a);
    const LabelSet& lb = index_->Labels(b);
    aff.reserve(la.size() + lb.size());
    size_t i = 0;
    size_t j = 0;
    while (i < la.size() || j < lb.size()) {
      if (j >= lb.size() || (i < la.size() && la[i].hub < lb[j].hub)) {
        aff.push_back(la[i++].hub);
      } else if (i >= la.size() || lb[j].hub < la[i].hub) {
        aff.push_back(lb[j++].hub);
      } else {
        aff.push_back(la[i].hub);
        ++i;
        ++j;
      }
    }
  }
  stats.affected_hubs = aff.size();

  const Rank rank_a = index_->RankOf(a);
  const Rank rank_b = index_->RankOf(b);
  for (const Rank h : aff) {
    // Membership is re-checked against the *current* labels: earlier hubs
    // never remove entries, so presence is unchanged, but the (d, c) seed
    // must be the up-to-date value.
    if (h <= rank_b && index_->FindLabel(a, h) != nullptr) {
      IncUpdate(h, a, b, &stats);
    }
    if (h <= rank_a && index_->FindLabel(b, h) != nullptr) {
      IncUpdate(h, b, a, &stats);
    }
  }
  return stats;
}

void IncSpc::IncUpdate(Rank h, Vertex va, Vertex vb, UpdateStats* stats) {
  const Vertex hv = index_->VertexOf(h);
  const LabelEntry* seed = index_->FindLabel(va, h);
  // Seed as if stepping through the new edge from va (Algorithm 3 lines
  // 3-5): sigma_{h,va} new shortest-path candidates reach vb at d + 1.
  dist_[vb] = seed->dist + 1;
  count_[vb] = seed->count;
  queue_.clear();
  queue_.push_back(vb);
  touched_.clear();
  touched_.push_back(vb);

  cache_.Load(index_->Labels(hv));
  const VertexOrdering& order = index_->ordering();

  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    ++stats->visited_vertices;
    // Relaxed pruning (Lemma 3.4): continue only while the index does not
    // certify a strictly shorter distance; equality means new same-length
    // shortest paths whose counts must be folded in.
    if (cache_.Covers(index_->Labels(v), dist_[v])) continue;

    if (LabelEntry* existing = index_->FindLabel(v, h)) {
      if (existing->dist == dist_[v]) {
        // Same length: the BFS discovered *new* paths through (a, b) only
        // (no pre-existing shortest path used the new edge), so counts add.
        existing->count += count_[v];
        ++stats->renew_count;
      } else {
        // Strictly shorter: the old label is superseded entirely.
        existing->dist = dist_[v];
        existing->count = count_[v];
        ++stats->renew_dist;
      }
    } else {
      index_->InsertLabel(v, LabelEntry{h, dist_[v], count_[v]});
      ++stats->inserted;
    }

    for (const Vertex w : graph_->Neighbors(v)) {
      if (dist_[w] == kInfDistance) {
        if (h > order.rank_of[w]) continue;  // ranking pruning: h <= w only
        dist_[w] = dist_[v] + 1;
        count_[w] = count_[v];
        queue_.push_back(w);
        touched_.push_back(w);
      } else if (dist_[w] == dist_[v] + 1) {
        count_[w] += count_[v];
      }
    }
  }

  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
}

}  // namespace dspc
