#include "dspc/core/weighted_spc.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "dspc/core/merge_kernel.h"

namespace dspc {

namespace {

using HeapEntry = std::pair<Distance, Vertex>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

/// Sorted vector of hub ranks common to both label sets.
std::vector<Rank> CommonHubs(const LabelSet& x, const LabelSet& y) {
  std::vector<Rank> common;
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i].hub < y[j].hub) {
      ++i;
    } else if (x[i].hub > y[j].hub) {
      ++j;
    } else {
      common.push_back(x[i].hub);
      ++i;
      ++j;
    }
  }
  return common;
}

}  // namespace

DynamicWeightedSpcIndex::DynamicWeightedSpcIndex(
    WeightedGraph graph, const OrderingOptions& ordering)
    : graph_(std::move(graph)),
      ordering_(BuildOrdering(graph_, ordering)),
      ordering_options_(ordering),
      cache_(graph_.NumVertices()),
      dist_(graph_.NumVertices(), kInfDistance),
      count_(graph_.NumVertices(), 0),
      side_of_(graph_.NumVertices(), kSideNone),
      updated_(graph_.NumVertices(), 0) {
  Build();
}

void DynamicWeightedSpcIndex::Build() {
  const size_t n = graph_.NumVertices();
  labels_.assign(n, {});
  for (Vertex v = 0; v < n; ++v) {
    labels_[v].push_back(LabelEntry{ordering_.rank_of[v], 0, 1});
  }
  for (Rank h = 0; h < n; ++h) {
    if (graph_.Degree(ordering_.vertex_of[h]) > 0) PushFromHub(h);
  }
}

void DynamicWeightedSpcIndex::PushFromHub(Rank h) {
  const Vertex hv = ordering_.vertex_of[h];
  cache_.Load(labels_[hv]);

  dist_[hv] = 0;
  count_[hv] = 1;
  touched_.clear();
  touched_.push_back(hv);
  MinHeap heap;
  heap.push({0, hv});

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist_[v]) continue;  // stale entry
    if (v != hv) {
      // Counts are final at settle time: every predecessor on a shortest
      // path has strictly smaller distance (positive weights).
      const SpcResult covered = cache_.Query(labels_[v]);
      if (covered.dist < dist_[v]) continue;  // strict pruning
      InsertLabelInto(labels_[v], LabelEntry{h, dist_[v], count_[v]});
    }
    for (const WeightedNeighbor& nb : graph_.Neighbors(v)) {
      if (h > ordering_.rank_of[nb.to]) continue;  // rank restriction
      const Distance nd = d + nb.w;
      if (nd < dist_[nb.to]) {
        if (dist_[nb.to] == kInfDistance) touched_.push_back(nb.to);
        dist_[nb.to] = nd;
        count_[nb.to] = count_[v];
        heap.push({nd, nb.to});
      } else if (nd == dist_[nb.to]) {
        count_[nb.to] += count_[v];
      }
    }
  }
  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
}

SpcResult DynamicWeightedSpcIndex::Query(Vertex s, Vertex t) const {
  SpcResult result;
  const LabelSet& ls = labels_[s];
  const LabelSet& lt = labels_[t];
  MergeWideScalar(ls.data(), ls.data() + ls.size(), lt.data(),
                  lt.data() + lt.size(), &result);
  return result;
}

UpdateStats DynamicWeightedSpcIndex::InsertEdge(Vertex a, Vertex b, Weight w) {
  UpdateStats stats;
  if (!graph_.AddEdge(a, b, w)) return stats;
  stats.applied = true;
  IncrementalPass(a, b, w, &stats);
  return stats;
}

UpdateStats DynamicWeightedSpcIndex::DecreaseWeight(Vertex a, Vertex b,
                                                    Weight w) {
  UpdateStats stats;
  const Weight old = graph_.EdgeWeight(a, b);
  if (old == 0 || w == 0 || w >= old) return stats;  // absent or not a decrease
  graph_.SetWeight(a, b, w);
  stats.applied = true;
  IncrementalPass(a, b, w, &stats);
  return stats;
}

void DynamicWeightedSpcIndex::IncrementalPass(Vertex a, Vertex b,
                                              Weight new_weight,
                                              UpdateStats* stats) {
  const Rank rank_a = ordering_.rank_of[a];
  const Rank rank_b = ordering_.rank_of[b];

  std::vector<Rank> aff;
  {
    const LabelSet& la = labels_[a];
    const LabelSet& lb = labels_[b];
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
  stats->affected_hubs = aff.size();

  for (const Rank h : aff) {
    if (h <= rank_b) {
      if (const LabelEntry* seed = FindLabelIn(labels_[a], h)) {
        IncUpdate(h, b, seed->dist + new_weight, seed->count, stats);
      }
    }
    if (h <= rank_a) {
      if (const LabelEntry* seed = FindLabelIn(labels_[b], h)) {
        IncUpdate(h, a, seed->dist + new_weight, seed->count, stats);
      }
    }
  }
}

void DynamicWeightedSpcIndex::IncUpdate(Rank h, Vertex seed,
                                        Distance seed_dist,
                                        PathCount seed_count,
                                        UpdateStats* stats) {
  const Vertex hv = ordering_.vertex_of[h];
  cache_.Load(labels_[hv]);

  dist_[seed] = seed_dist;
  count_[seed] = seed_count;
  touched_.clear();
  touched_.push_back(seed);
  MinHeap heap;
  heap.push({seed_dist, seed});

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist_[v]) continue;
    ++stats->visited_vertices;
    // Relaxed pruning: equality still renews counts (weighted analog of
    // Lemma 3.4).
    const SpcResult covered = cache_.Query(labels_[v]);
    if (covered.dist < dist_[v]) continue;

    if (LabelEntry* existing = FindLabelIn(labels_[v], h)) {
      if (existing->dist == dist_[v]) {
        existing->count += count_[v];
        ++stats->renew_count;
      } else {
        existing->dist = dist_[v];
        existing->count = count_[v];
        ++stats->renew_dist;
      }
    } else {
      InsertLabelInto(labels_[v], LabelEntry{h, dist_[v], count_[v]});
      ++stats->inserted;
    }

    for (const WeightedNeighbor& nb : graph_.Neighbors(v)) {
      if (h > ordering_.rank_of[nb.to]) continue;
      const Distance nd = d + nb.w;
      if (nd < dist_[nb.to]) {
        if (dist_[nb.to] == kInfDistance) touched_.push_back(nb.to);
        dist_[nb.to] = nd;
        count_[nb.to] = count_[v];
        heap.push({nd, nb.to});
      } else if (nd == dist_[nb.to]) {
        count_[nb.to] += count_[v];
      }
    }
  }
  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
}

template <typename MutateFn>
UpdateStats DynamicWeightedSpcIndex::DecrementalPass(Vertex a, Vertex b,
                                                     Weight w_old,
                                                     MutateFn mutate) {
  UpdateStats stats;
  stats.applied = true;

  std::vector<Vertex> sr_a;
  std::vector<Vertex> r_a;
  std::vector<Vertex> sr_b;
  std::vector<Vertex> r_b;
  SrrSearch(a, b, w_old, &sr_a, &r_a, &stats);
  SrrSearch(b, a, w_old, &sr_b, &r_b, &stats);

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

  mutate();

  std::vector<Vertex> sr_all;
  sr_all.reserve(sr_a.size() + sr_b.size());
  sr_all.insert(sr_all.end(), sr_a.begin(), sr_a.end());
  sr_all.insert(sr_all.end(), sr_b.begin(), sr_b.end());
  std::sort(sr_all.begin(), sr_all.end(), [&](Vertex x, Vertex y) {
    return ordering_.rank_of[x] < ordering_.rank_of[y];
  });
  stats.affected_hubs = sr_all.size();

  std::vector<Vertex> all_a;
  all_a.insert(all_a.end(), sr_a.begin(), sr_a.end());
  all_a.insert(all_a.end(), r_a.begin(), r_a.end());
  std::vector<Vertex> all_b;
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
  return stats;
}

UpdateStats DynamicWeightedSpcIndex::RemoveEdge(Vertex a, Vertex b) {
  const Weight w = graph_.EdgeWeight(a, b);
  if (w == 0) return UpdateStats{};
  return DecrementalPass(a, b, w, [&] { graph_.RemoveEdge(a, b); });
}

UpdateStats DynamicWeightedSpcIndex::IncreaseWeight(Vertex a, Vertex b,
                                                    Weight w) {
  const Weight old = graph_.EdgeWeight(a, b);
  if (old == 0 || w <= old) return UpdateStats{};
  return DecrementalPass(a, b, old, [&] { graph_.SetWeight(a, b, w); });
}

void DynamicWeightedSpcIndex::SrrSearch(Vertex from, Vertex towards, Weight w,
                                        std::vector<Vertex>* sr,
                                        std::vector<Vertex>* r,
                                        UpdateStats* stats) {
  cache_.Load(labels_[towards]);
  const std::vector<Rank> common = CommonHubs(labels_[from], labels_[towards]);

  dist_[from] = 0;
  count_[from] = 1;
  touched_.clear();
  touched_.push_back(from);
  MinHeap heap;
  heap.push({0, from});

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist_[v]) continue;
    ++stats->visited_vertices;
    // Affected-vertex condition with weights: a shortest path from v
    // through the edge exists iff sd(v, near) + w == sd(v, far).
    const SpcResult far = cache_.Query(labels_[v]);
    if (far.dist == kInfDistance || dist_[v] + w != far.dist) continue;

    const bool cond_a =
        std::binary_search(common.begin(), common.end(), ordering_.rank_of[v]);
    if (cond_a || count_[v] == far.count) {
      sr->push_back(v);
    } else {
      r->push_back(v);
    }

    for (const WeightedNeighbor& nb : graph_.Neighbors(v)) {
      const Distance nd = d + nb.w;
      if (nd < dist_[nb.to]) {
        if (dist_[nb.to] == kInfDistance) touched_.push_back(nb.to);
        dist_[nb.to] = nd;
        count_[nb.to] = count_[v];
        heap.push({nd, nb.to});
      } else if (nd == dist_[nb.to]) {
        count_[nb.to] += count_[v];
      }
    }
  }
  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
}

void DynamicWeightedSpcIndex::DecUpdate(
    Vertex hv, uint8_t opposite_side,
    const std::vector<Vertex>& opposite_vertices, UpdateStats* stats) {
  const Rank h = ordering_.rank_of[hv];
  cache_.Load(labels_[hv]);

  dist_[hv] = 0;
  count_[hv] = 1;
  touched_.clear();
  touched_.push_back(hv);
  updated_touched_.clear();
  MinHeap heap;
  heap.push({0, hv});

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist_[v]) continue;
    ++stats->visited_vertices;
    if (v != hv) {
      const SpcResult pre = cache_.PreQuery(labels_[v], h);
      if (pre.dist < dist_[v]) continue;
      if (side_of_[v] == opposite_side) {
        if (LabelEntry* existing = FindLabelIn(labels_[v], h)) {
          if (existing->dist != dist_[v]) {
            existing->dist = dist_[v];
            existing->count = count_[v];
            ++stats->renew_dist;
          } else if (existing->count != count_[v]) {
            existing->count = count_[v];
            ++stats->renew_count;
          }
        } else {
          InsertLabelInto(labels_[v], LabelEntry{h, dist_[v], count_[v]});
          ++stats->inserted;
        }
        updated_[v] = 1;
        updated_touched_.push_back(v);
      }
    }
    for (const WeightedNeighbor& nb : graph_.Neighbors(v)) {
      if (h > ordering_.rank_of[nb.to]) continue;
      const Distance nd = d + nb.w;
      if (nd < dist_[nb.to]) {
        if (dist_[nb.to] == kInfDistance) touched_.push_back(nb.to);
        dist_[nb.to] = nd;
        count_[nb.to] = count_[v];
        heap.push({nd, nb.to});
      } else if (nd == dist_[nb.to]) {
        count_[nb.to] += count_[v];
      }
    }
  }

  // Unconditional deferred removal — see dec_spc.cc for why this must not
  // be gated on common-hub membership.
  for (const Vertex u : opposite_vertices) {
    if (updated_[u] == 0 && RemoveLabelFrom(labels_[u], h)) {
      ++stats->removed;
    }
  }

  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
  for (const Vertex v : updated_touched_) updated_[v] = 0;
}

Vertex DynamicWeightedSpcIndex::AddVertex() {
  const Vertex v = graph_.AddVertex();
  ordering_.Append();
  labels_.push_back({LabelEntry{ordering_.rank_of[v], 0, 1}});
  const size_t n = graph_.NumVertices();
  cache_ = HubCache(n);
  dist_.assign(n, kInfDistance);
  count_.assign(n, 0);
  side_of_.assign(n, kSideNone);
  updated_.assign(n, 0);
  return v;
}

void DynamicWeightedSpcIndex::Rebuild() {
  ordering_ = BuildOrdering(graph_, ordering_options_);
  Build();
}

Status DynamicWeightedSpcIndex::ValidateStructure() const {
  if (!ordering_.IsValid()) {
    return Status::Corruption("ordering is not a permutation");
  }
  for (Vertex v = 0; v < labels_.size(); ++v) {
    const Rank rv = ordering_.rank_of[v];
    const LabelSet& set = labels_[v];
    bool self_seen = false;
    for (size_t i = 0; i < set.size(); ++i) {
      if (i > 0 && set[i - 1].hub >= set[i].hub) {
        return Status::Corruption("labels unsorted at v" + std::to_string(v));
      }
      if (set[i].hub > rv) {
        return Status::Corruption("hub outranked by owner at v" +
                                  std::to_string(v));
      }
      if (set[i].hub == rv) {
        if (set[i].dist != 0 || set[i].count != 1) {
          return Status::Corruption("bad self label at v" + std::to_string(v));
        }
        self_seen = true;
      }
      if (set[i].count == 0) {
        return Status::Corruption("zero-count label at v" + std::to_string(v));
      }
    }
    if (!self_seen) {
      return Status::Corruption("missing self label at v" + std::to_string(v));
    }
  }
  return Status::OK();
}

IndexSizeStats DynamicWeightedSpcIndex::SizeStats() const {
  IndexSizeStats stats;
  stats.num_vertices = labels_.size();
  for (const LabelSet& set : labels_) {
    stats.total_entries += set.size();
    stats.max_label_size = std::max(stats.max_label_size, set.size());
  }
  stats.avg_label_size =
      labels_.empty()
          ? 0.0
          : static_cast<double>(stats.total_entries) / labels_.size();
  stats.wide_bytes = stats.total_entries * sizeof(LabelEntry);
  stats.packed_bytes = stats.total_entries * sizeof(uint64_t);
  return stats;
}

}  // namespace dspc
