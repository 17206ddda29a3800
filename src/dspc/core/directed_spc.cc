#include "dspc/core/directed_spc.h"

#include <algorithm>

#include "dspc/core/merge_kernel.h"

namespace dspc {

namespace {

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

DynamicDirectedSpcIndex::DynamicDirectedSpcIndex(
    Digraph graph, const OrderingOptions& ordering)
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

void DynamicDirectedSpcIndex::Build() {
  const size_t n = graph_.NumVertices();
  in_labels_.assign(n, {});
  out_labels_.assign(n, {});
  for (Vertex v = 0; v < n; ++v) {
    const LabelEntry self{ordering_.rank_of[v], 0, 1};
    in_labels_[v].push_back(self);
    out_labels_[v].push_back(self);
  }
  for (Rank h = 0; h < n; ++h) {
    const Vertex hv = ordering_.vertex_of[h];
    if (graph_.OutDegree(hv) > 0) PushFromHub(h, Direction::kForward);
    if (graph_.InDegree(hv) > 0) PushFromHub(h, Direction::kReverse);
  }
}

void DynamicDirectedSpcIndex::PushFromHub(Rank h, Direction dir) {
  const Vertex hv = ordering_.vertex_of[h];
  cache_.Load(SourceLabels(dir)[hv]);
  std::vector<LabelSet>& target = TargetLabels(dir);

  dist_[hv] = 0;
  count_[hv] = 1;
  queue_.clear();
  queue_.push_back(hv);
  touched_.clear();
  touched_.push_back(hv);

  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    if (v != hv) {
      if (cache_.Covers(target[v], dist_[v])) continue;
      InsertLabelInto(target[v], LabelEntry{h, dist_[v], count_[v]});
    }
    for (const Vertex w : Successors(v, dir)) {
      if (ordering_.rank_of[w] <= h) continue;
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

SpcResult DynamicDirectedSpcIndex::ScanQuery(const LabelSet& out_s,
                                             const LabelSet& in_t) {
  SpcResult result;
  MergeWideScalar(out_s.data(), out_s.data() + out_s.size(), in_t.data(),
                  in_t.data() + in_t.size(), &result);
  return result;
}

SpcResult DynamicDirectedSpcIndex::Query(Vertex s, Vertex t) const {
  return ScanQuery(out_labels_[s], in_labels_[t]);
}

UpdateStats DynamicDirectedSpcIndex::InsertArc(Vertex a, Vertex b) {
  UpdateStats stats;
  if (!graph_.AddArc(a, b)) return stats;
  stats.applied = true;

  const Rank rank_a = ordering_.rank_of[a];
  const Rank rank_b = ordering_.rank_of[b];

  // AFF: hubs of L_in(a) renew in-labels forward from b (covering new
  // paths h -> .. -> a -> b -> ..); hubs of L_out(b) renew out-labels in
  // reverse from a (covering .. -> a -> b -> .. -> h). Merged processing
  // in descending rank order keeps higher labels correct first.
  struct AffEntry {
    Rank hub;
    bool from_in_a;
    bool from_out_b;
  };
  std::vector<AffEntry> aff;
  {
    const LabelSet& ia = in_labels_[a];
    const LabelSet& ob = out_labels_[b];
    size_t i = 0;
    size_t j = 0;
    while (i < ia.size() || j < ob.size()) {
      if (j >= ob.size() || (i < ia.size() && ia[i].hub < ob[j].hub)) {
        aff.push_back({ia[i++].hub, true, false});
      } else if (i >= ia.size() || ob[j].hub < ia[i].hub) {
        aff.push_back({ob[j++].hub, false, true});
      } else {
        aff.push_back({ia[i].hub, true, true});
        ++i;
        ++j;
      }
    }
  }
  stats.affected_hubs = aff.size();

  for (const AffEntry& e : aff) {
    if (e.from_in_a && e.hub <= rank_b) {
      const LabelEntry* seed = FindLabelIn(in_labels_[a], e.hub);
      if (seed != nullptr) {
        IncUpdate(e.hub, b, seed->dist + 1, seed->count, Direction::kForward,
                  &stats);
      }
    }
    if (e.from_out_b && e.hub <= rank_a) {
      const LabelEntry* seed = FindLabelIn(out_labels_[b], e.hub);
      if (seed != nullptr) {
        IncUpdate(e.hub, a, seed->dist + 1, seed->count, Direction::kReverse,
                  &stats);
      }
    }
  }
  return stats;
}

void DynamicDirectedSpcIndex::IncUpdate(Rank h, Vertex seed,
                                        Distance seed_dist,
                                        PathCount seed_count, Direction dir,
                                        UpdateStats* stats) {
  const Vertex hv = ordering_.vertex_of[h];
  cache_.Load(SourceLabels(dir)[hv]);
  std::vector<LabelSet>& target = TargetLabels(dir);

  dist_[seed] = seed_dist;
  count_[seed] = seed_count;
  queue_.clear();
  queue_.push_back(seed);
  touched_.clear();
  touched_.push_back(seed);

  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    ++stats->visited_vertices;
    if (cache_.Covers(target[v], dist_[v])) continue;

    if (LabelEntry* existing = FindLabelIn(target[v], h)) {
      if (existing->dist == dist_[v]) {
        existing->count += count_[v];
        ++stats->renew_count;
      } else {
        existing->dist = dist_[v];
        existing->count = count_[v];
        ++stats->renew_dist;
      }
    } else {
      InsertLabelInto(target[v], LabelEntry{h, dist_[v], count_[v]});
      ++stats->inserted;
    }

    for (const Vertex w : Successors(v, dir)) {
      if (dist_[w] == kInfDistance) {
        if (h > ordering_.rank_of[w]) continue;
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

UpdateStats DynamicDirectedSpcIndex::RemoveArc(Vertex a, Vertex b) {
  UpdateStats stats;
  if (a >= graph_.NumVertices() || b >= graph_.NumVertices() ||
      !graph_.HasArc(a, b)) {
    return stats;
  }
  stats.applied = true;

  // Phase 1 on the pre-deletion graph: upstream side from a (reverse),
  // downstream side from b (forward).
  std::vector<Vertex> sr_a;
  std::vector<Vertex> r_a;
  std::vector<Vertex> sr_b;
  std::vector<Vertex> r_b;
  SrrSearch(a, b, Direction::kReverse, &sr_a, &r_a, &stats);
  SrrSearch(b, a, Direction::kForward, &sr_b, &r_b, &stats);

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

  auto mark = [&](const std::vector<Vertex>& vs, uint8_t bit) {
    for (const Vertex v : vs) {
      if (side_of_[v] == kSideNone) side_touched_.push_back(v);
      side_of_[v] = static_cast<uint8_t>(side_of_[v] | bit);
    }
  };
  mark(sr_a, kSideA | kSrA);
  mark(r_a, kSideA);
  mark(sr_b, kSideB | kSrB);
  mark(r_b, kSideB);

  graph_.RemoveArc(a, b);

  // Merged SR hub list, deduplicated (a vertex can be in SR_a *and* SR_b
  // on a directed cycle), in descending rank order.
  std::vector<Vertex> sr_all;
  sr_all.reserve(sr_a.size() + sr_b.size());
  sr_all.insert(sr_all.end(), sr_a.begin(), sr_a.end());
  sr_all.insert(sr_all.end(), sr_b.begin(), sr_b.end());
  std::sort(sr_all.begin(), sr_all.end(), [&](Vertex x, Vertex y) {
    return ordering_.rank_of[x] < ordering_.rank_of[y];
  });
  sr_all.erase(std::unique(sr_all.begin(), sr_all.end()), sr_all.end());
  stats.affected_hubs = sr_all.size();

  std::vector<Vertex> all_a;
  all_a.insert(all_a.end(), sr_a.begin(), sr_a.end());
  all_a.insert(all_a.end(), r_a.begin(), r_a.end());
  std::vector<Vertex> all_b;
  all_b.insert(all_b.end(), sr_b.begin(), sr_b.end());
  all_b.insert(all_b.end(), r_b.begin(), r_b.end());

  for (const Vertex hv : sr_all) {
    if ((side_of_[hv] & kSrA) != 0) {
      // Upstream hub: its outgoing coverage crossed the arc; re-push
      // forward, touching in-labels of downstream-affected vertices.
      DecUpdate(hv, Direction::kForward, kSideB, all_b, &stats);
    }
    if ((side_of_[hv] & kSrB) != 0) {
      DecUpdate(hv, Direction::kReverse, kSideA, all_a, &stats);
    }
  }

  for (const Vertex v : side_touched_) side_of_[v] = kSideNone;
  side_touched_.clear();
  return stats;
}

void DynamicDirectedSpcIndex::SrrSearch(Vertex from, Vertex towards,
                                        Direction dir, std::vector<Vertex>* sr,
                                        std::vector<Vertex>* r,
                                        UpdateStats* stats) {
  // Reverse search from a: classify v by sd(v,a)+1 = sd(v,b), far query
  // spc(v, b) = L_out(v) x L_in(b), Condition A membership in the common
  // *in*-hubs of a and b. Forward search from b mirrors everything.
  const Vertex a_like = from;
  const Vertex b_like = towards;
  std::vector<Rank> common;
  if (dir == Direction::kReverse) {
    cache_.Load(in_labels_[b_like]);
    common = CommonHubs(in_labels_[a_like], in_labels_[b_like]);
  } else {
    cache_.Load(out_labels_[b_like]);
    common = CommonHubs(out_labels_[a_like], out_labels_[b_like]);
  }

  dist_[from] = 0;
  count_[from] = 1;
  queue_.clear();
  queue_.push_back(from);
  touched_.clear();
  touched_.push_back(from);

  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    ++stats->visited_vertices;
    const SpcResult far =
        dir == Direction::kReverse
            ? cache_.Query(out_labels_[v])   // spc(v, b)
            : cache_.Query(in_labels_[v]);   // spc(a, v)
    if (far.dist == kInfDistance || dist_[v] + 1 != far.dist) continue;

    const bool cond_a =
        std::binary_search(common.begin(), common.end(), ordering_.rank_of[v]);
    if (cond_a || count_[v] == far.count) {
      sr->push_back(v);
    } else {
      r->push_back(v);
    }

    for (const Vertex w : Successors(v, dir)) {
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

void DynamicDirectedSpcIndex::DecUpdate(
    Vertex hv, Direction dir, uint8_t opposite_side_bit,
    const std::vector<Vertex>& opposite_vertices, UpdateStats* stats) {
  const Rank h = ordering_.rank_of[hv];
  cache_.Load(SourceLabels(dir)[hv]);
  std::vector<LabelSet>& target = TargetLabels(dir);

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
      if (cache_.Covers(target[v], dist_[v], h)) continue;
      if ((side_of_[v] & opposite_side_bit) != 0) {
        if (LabelEntry* existing = FindLabelIn(target[v], h)) {
          if (existing->dist != dist_[v]) {
            existing->dist = dist_[v];
            existing->count = count_[v];
            ++stats->renew_dist;
          } else if (existing->count != count_[v]) {
            existing->count = count_[v];
            ++stats->renew_count;
          }
        } else {
          InsertLabelInto(target[v], LabelEntry{h, dist_[v], count_[v]});
          ++stats->inserted;
        }
        updated_[v] = 1;
        updated_touched_.push_back(v);
      }
    }
    for (const Vertex w : Successors(v, dir)) {
      if (dist_[w] == kInfDistance) {
        if (h > ordering_.rank_of[w]) continue;
        dist_[w] = dist_[v] + 1;
        count_[w] = count_[v];
        queue_.push_back(w);
        touched_.push_back(w);
      } else if (dist_[w] == dist_[v] + 1) {
        count_[w] += count_[v];
      }
    }
  }

  // Unconditional deferred removal — same stale-label reasoning as the
  // undirected DecSPC (see dec_spc.cc). The hub itself can sit in its own
  // opposite list (directed cycle through the arc); its self label is
  // permanent, so skip it.
  for (const Vertex u : opposite_vertices) {
    if (u == hv) continue;
    if (updated_[u] == 0 && RemoveLabelFrom(target[u], h)) {
      ++stats->removed;
    }
  }

  for (const Vertex v : touched_) {
    dist_[v] = kInfDistance;
    count_[v] = 0;
  }
  for (const Vertex v : updated_touched_) updated_[v] = 0;
}

Vertex DynamicDirectedSpcIndex::AddVertex() {
  const Vertex v = graph_.AddVertex();
  ordering_.Append();
  const LabelEntry self{ordering_.rank_of[v], 0, 1};
  in_labels_.push_back({self});
  out_labels_.push_back({self});
  const size_t n = graph_.NumVertices();
  cache_ = HubCache(n);
  dist_.assign(n, kInfDistance);
  count_.assign(n, 0);
  side_of_.assign(n, kSideNone);
  updated_.assign(n, 0);
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
  ordering_ = BuildOrdering(graph_, ordering_options_);
  Build();
}

Status DynamicDirectedSpcIndex::ValidateStructure() const {
  if (!ordering_.IsValid()) {
    return Status::Corruption("ordering is not a permutation");
  }
  auto check_family = [&](const std::vector<LabelSet>& family,
                          const char* name) -> Status {
    for (Vertex v = 0; v < family.size(); ++v) {
      const Rank rv = ordering_.rank_of[v];
      bool self_seen = false;
      const LabelSet& set = family[v];
      for (size_t i = 0; i < set.size(); ++i) {
        if (i > 0 && set[i - 1].hub >= set[i].hub) {
          return Status::Corruption(std::string(name) + " labels unsorted at v" +
                                    std::to_string(v));
        }
        if (set[i].hub > rv) {
          return Status::Corruption(std::string(name) +
                                    " hub outranked by owner at v" +
                                    std::to_string(v));
        }
        if (set[i].hub == rv) {
          if (set[i].dist != 0 || set[i].count != 1) {
            return Status::Corruption(std::string(name) + " bad self label");
          }
          self_seen = true;
        }
        if (set[i].count == 0) {
          return Status::Corruption(std::string(name) + " zero-count label");
        }
      }
      if (!self_seen) {
        return Status::Corruption(std::string(name) + " missing self label");
      }
    }
    return Status::OK();
  };
  Status s = check_family(in_labels_, "in");
  if (!s.ok()) return s;
  return check_family(out_labels_, "out");
}

IndexSizeStats DynamicDirectedSpcIndex::SizeStats() const {
  IndexSizeStats stats;
  stats.num_vertices = in_labels_.size();
  for (const auto* family : {&in_labels_, &out_labels_}) {
    for (const LabelSet& set : *family) {
      stats.total_entries += set.size();
      stats.max_label_size = std::max(stats.max_label_size, set.size());
    }
  }
  stats.avg_label_size =
      stats.num_vertices == 0
          ? 0.0
          : static_cast<double>(stats.total_entries) / (2.0 * stats.num_vertices);
  stats.wide_bytes = stats.total_entries * sizeof(LabelEntry);
  stats.packed_bytes = stats.total_entries * sizeof(uint64_t);
  return stats;
}

}  // namespace dspc
