#include "dspc/core/dec_spc.h"

#include <algorithm>

namespace dspc {

DecSpc::DecSpc(Graph* graph, SpcIndex* index, const Options& options)
    : graph_(graph),
      index_(index),
      options_(options),
      cache_(index->NumVertices()),
      dist_(index->NumVertices(), kInfDistance),
      count_(index->NumVertices(), 0),
      side_of_(index->NumVertices(), kSideNone),
      lab_mark_(index->NumVertices(), 0),
      updated_(index->NumVertices(), 0) {}

void DecSpc::Resize() {
  const size_t n = index_->NumVertices();
  cache_ = HubCache(n);
  dist_.assign(n, kInfDistance);
  count_.assign(n, 0);
  side_of_.assign(n, kSideNone);
  lab_mark_.assign(n, 0);
  updated_.assign(n, 0);
}

bool DecSpc::TryIsolatedVertexOpt(Vertex a, Vertex b, UpdateStats* stats) {
  if (!options_.enable_isolated_vertex_opt) return false;
  const bool a_leaf = graph_->Degree(a) == 1;
  const bool b_leaf = graph_->Degree(b) == 1;
  Vertex keep;      // the paper's `a`
  Vertex detached;  // the paper's `b`, about to become isolated
  if (a_leaf && b_leaf) {
    // Both degree 1: detach the lower-ranked one, so keep <= detached
    // holds by construction.
    if (index_->RankOf(a) < index_->RankOf(b)) {
      keep = a;
      detached = b;
    } else {
      keep = b;
      detached = a;
    }
  } else if (b_leaf) {
    keep = a;
    detached = b;
  } else if (a_leaf) {
    keep = b;
    detached = a;
  } else {
    return false;
  }
  // The paper's argument needs the surviving endpoint to outrank the
  // detached one (then no label anywhere uses `detached` as hub). A frozen
  // degree ordering does not guarantee this after updates, so check and
  // fall back to the general path otherwise.
  if (index_->RankOf(keep) > index_->RankOf(detached)) return false;
  // Stale labels retained by IncSPC can use `detached` as hub even though
  // a minimal index never would; they would answer queries against the
  // soon-isolated vertex. Take the fast path only when provably none
  // exist; the general path's removal scan cleans them otherwise.
  if (index_->HubOccurrences(index_->RankOf(detached)) != 0) return false;

  graph_->RemoveEdge(a, b);
  stats->removed += index_->ClearToSelfLabel(detached);
  stats->used_isolated_vertex_opt = true;
  stats->applied = true;
  return true;
}

UpdateStats DecSpc::RemoveEdge(Vertex a, Vertex b) {
  UpdateStats stats;
  if (a == b || !graph_->IsValidVertex(a) || !graph_->IsValidVertex(b) ||
      !graph_->HasEdge(a, b)) {
    return stats;
  }
  if (TryIsolatedVertexOpt(a, b, &stats)) return stats;
  stats.applied = true;

  // L_ab: common hubs of a and b (Condition A membership tests).
  {
    const LabelSet& la = index_->Labels(a);
    const LabelSet& lb = index_->Labels(b);
    size_t i = 0;
    size_t j = 0;
    while (i < la.size() && j < lb.size()) {
      if (la[i].hub < lb[j].hub) {
        ++i;
      } else if (la[i].hub > lb[j].hub) {
        ++j;
      } else {
        lab_mark_[la[i].hub] = 1;
        lab_touched_.push_back(la[i].hub);
        ++i;
        ++j;
      }
    }
  }

  // Phase 1 (Algorithm 5), run on the pre-deletion graph and index.
  std::vector<Vertex> sr_a;
  std::vector<Vertex> r_a;
  std::vector<Vertex> sr_b;
  std::vector<Vertex> r_b;
  SrrSearch(a, b, &sr_a, &r_a, &stats);
  SrrSearch(b, a, &sr_b, &r_b, &stats);

  // Table 5 reporting convention: sr_a holds the larger SR side.
  if (sr_b.size() > sr_a.size()) {
    stats.sr_a = sr_b.size();
    stats.sr_b = sr_a.size();
    stats.r_a = r_b.size();
    stats.r_b = r_a.size();
  } else {
    stats.sr_a = sr_a.size();
    stats.sr_b = sr_b.size();
    stats.r_a = r_a.size();
    stats.r_b = r_b.size();
  }

  for (const Vertex v : sr_a) {
    side_of_[v] = kSideA;
    side_touched_.push_back(v);
  }
  for (const Vertex v : r_a) {
    side_of_[v] = kSideA;
    side_touched_.push_back(v);
  }
  for (const Vertex v : sr_b) {
    side_of_[v] = kSideB;
    side_touched_.push_back(v);
  }
  for (const Vertex v : r_b) {
    side_of_[v] = kSideB;
    side_touched_.push_back(v);
  }

  graph_->RemoveEdge(a, b);

  // SR = sort(SR_a u SR_b) by descending rank priority (ascending rank
  // value); each hub updates the opposite side (Lemma 3.14).
  std::vector<Vertex> sr_all;
  sr_all.reserve(sr_a.size() + sr_b.size());
  sr_all.insert(sr_all.end(), sr_a.begin(), sr_a.end());
  sr_all.insert(sr_all.end(), sr_b.begin(), sr_b.end());
  std::sort(sr_all.begin(), sr_all.end(), [&](Vertex x, Vertex y) {
    return index_->RankOf(x) < index_->RankOf(y);
  });
  stats.affected_hubs = sr_all.size();

  // Opposite-side vertex lists for the deferred removal scan.
  std::vector<Vertex> all_a;
  all_a.reserve(sr_a.size() + r_a.size());
  all_a.insert(all_a.end(), sr_a.begin(), sr_a.end());
  all_a.insert(all_a.end(), r_a.begin(), r_a.end());
  std::vector<Vertex> all_b;
  all_b.reserve(sr_b.size() + r_b.size());
  all_b.insert(all_b.end(), sr_b.begin(), sr_b.end());
  all_b.insert(all_b.end(), r_b.begin(), r_b.end());

  for (const Vertex hv : sr_all) {
    if (side_of_[hv] == kSideA) {
      DecUpdate(hv, kSideB, all_b, &stats);
    } else {
      DecUpdate(hv, kSideA, all_a, &stats);
    }
  }

  for (const Vertex v : side_touched_) side_of_[v] = kSideNone;
  side_touched_.clear();
  for (const Rank r : lab_touched_) lab_mark_[r] = 0;
  lab_touched_.clear();
  return stats;
}

void DecSpc::SrrSearch(Vertex from, Vertex towards, std::vector<Vertex>* sr,
                       std::vector<Vertex>* r, UpdateStats* stats) {
  cache_.Load(index_->Labels(towards));
  dist_[from] = 0;
  count_[from] = 1;
  queue_.clear();
  queue_.push_back(from);
  touched_.clear();
  touched_.push_back(from);

  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    ++stats->visited_vertices;
    // Prune vertices with no shortest path through (a, b): their distance
    // to the far endpoint is not one more than to the near endpoint.
    const SpcResult far = cache_.Query(index_->Labels(v));
    if (far.dist == kInfDistance || dist_[v] + 1 != far.dist) continue;

    // Condition A: v is a common hub of a and b. Condition B: every
    // shortest path from v to `towards` crosses the edge, i.e.
    // spc(v, from) == spc(v, towards).
    if (lab_mark_[index_->RankOf(v)] != 0 || count_[v] == far.count) {
      sr->push_back(v);
    } else {
      r->push_back(v);
    }

    for (const Vertex w : graph_->Neighbors(v)) {
      if (dist_[w] == kInfDistance) {
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

void DecSpc::DecUpdate(Vertex hv, uint8_t opposite_side,
                       const std::vector<Vertex>& opposite_vertices,
                       UpdateStats* stats) {
  const Rank h = index_->RankOf(hv);
  cache_.Load(index_->Labels(hv));
  const VertexOrdering& order = index_->ordering();

  dist_[hv] = 0;
  count_[hv] = 1;
  queue_.clear();
  queue_.push_back(hv);
  touched_.clear();
  touched_.push_back(hv);
  updated_touched_.clear();

  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    ++stats->visited_vertices;
    if (v != hv) {
      // PreQUERY: only hubs strictly outranking h participate; if they
      // already certify a shorter distance, no label (h,.,.) can be
      // needed at or beyond v.
      if (cache_.Covers(index_->Labels(v), dist_[v], h)) continue;

      if (side_of_[v] == opposite_side) {
        if (LabelEntry* existing = index_->FindLabel(v, h)) {
          if (existing->dist != dist_[v]) {
            existing->dist = dist_[v];
            existing->count = count_[v];
            ++stats->renew_dist;
          } else if (existing->count != count_[v]) {
            existing->count = count_[v];
            ++stats->renew_count;
          }
        } else {
          index_->InsertLabel(v, LabelEntry{h, dist_[v], count_[v]});
          ++stats->inserted;
        }
        updated_[v] = 1;
        updated_touched_.push_back(v);
      }
    }

    for (const Vertex w : graph_->Neighbors(v)) {
      if (dist_[w] == kInfDistance) {
        if (h > order.rank_of[w]) continue;  // ranking pruning
        dist_[w] = dist_[v] + 1;
        count_[w] = count_[v];
        queue_.push_back(w);
        touched_.push_back(w);
      } else if (dist_[w] == dist_[v] + 1) {
        count_[w] += count_[v];
      }
    }
  }

  // Deferred removal (Algorithm 6 lines 23-26): a label the BFS did not
  // re-certify has sigma = 0 (dominated or disconnected) and must go.
  //
  // Deviation from the paper: Algorithm 6 runs this scan only when h is a
  // common hub of a and b, which suffices for labels that were valid
  // before this deletion. But IncSPC deliberately retains outdated labels
  // (Lemma 3.1), and a stale label whose hub h is *not* a common hub can
  // turn from a harmless overestimate into a wrong answer once the pair's
  // distance grows past it (e.g. disconnection). Whenever that can happen
  // h is in SR (all its shortest paths to the far side crossed the edge,
  // i.e. Condition B) and the owner is in the opposite SR u R, so scanning
  // unconditionally for every SR hub removes exactly the dead labels.
  for (const Vertex u : opposite_vertices) {
    if (updated_[u] == 0 && index_->RemoveLabel(u, h)) {
      ++stats->removed;
    }
  }

  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
  for (const Vertex v : updated_touched_) updated_[v] = 0;
}

}  // namespace dspc
