#include "dspc/core/spc_index.h"

#include <algorithm>
#include <utility>

#include "dspc/common/label_codec.h"
#include "dspc/core/merge_kernel.h"

namespace dspc {

namespace {

/// Binary-search order of a label set sorted by hub rank.
bool HubBelow(const LabelEntry& e, Rank hub) { return e.hub < hub; }

}  // namespace

SpcResult QueryLabels(const LabelSet& ls, const LabelSet& lt) {
  SpcResult result;
  MergeWideScalar(ls.data(), ls.data() + ls.size(), lt.data(),
                  lt.data() + lt.size(), &result);
  return result;
}

SpcIndex::SpcIndex(VertexOrdering ordering) : ordering_(std::move(ordering)) {
  labels_.resize(ordering_.size());
  hub_occurrences_.assign(ordering_.size(), 0);
  touched_flag_.assign(ordering_.size(), 0);
  for (Vertex v = 0; v < labels_.size(); ++v) {
    labels_[v].push_back(LabelEntry{ordering_.rank_of[v], 0, 1});
  }
}

SpcIndex::SpcIndex(VertexOrdering ordering, std::vector<LabelSet> labels)
    : ordering_(std::move(ordering)), labels_(std::move(labels)) {
  hub_occurrences_.assign(ordering_.size(), 0);
  touched_flag_.assign(ordering_.size(), 0);
  for (Vertex v = 0; v < labels_.size(); ++v) {
    for (const LabelEntry& e : labels_[v]) {
      if (e.hub != ordering_.rank_of[v]) ++hub_occurrences_[e.hub];
    }
  }
}

void SpcIndex::ClearTouched() {
  for (const Vertex v : touched_) touched_flag_[v] = 0;
  touched_.clear();
}

SpcResult SpcIndex::Query(Vertex s, Vertex t) const {
  return QueryLabels(labels_[s], labels_[t]);
}

SpcResult SpcIndex::PreQuery(Vertex s, Vertex t) const {
  SpcResult result;
  const Rank limit = ordering_.rank_of[s];
  const LabelSet& ls = labels_[s];
  const LabelSet& lt = labels_[t];
  // Hubs ascend, so cutting both sets at the limit keeps exactly the
  // matches below it (see WideLowerBound).
  const LabelEntry* s_end =
      WideLowerBound(ls.data(), ls.data() + ls.size(), limit);
  const LabelEntry* t_end =
      WideLowerBound(lt.data(), lt.data() + lt.size(), limit);
  MergeWideScalar(ls.data(), s_end, lt.data(), t_end, &result);
  return result;
}

Vertex SpcIndex::AddVertex() {
  ordering_.Append();
  const auto v = static_cast<Vertex>(labels_.size());
  labels_.emplace_back();
  labels_.back().push_back(LabelEntry{ordering_.rank_of[v], 0, 1});
  hub_occurrences_.push_back(0);
  touched_flag_.push_back(0);
  MarkTouched(v);
  return v;
}

LabelEntry* SpcIndex::FindLabel(Vertex v, Rank hub) {
  // Conservative touch: the maintenance algorithms use the mutable
  // overload to update dist/count in place, so the pointer handout is the
  // last point where the write is observable.
  MarkTouched(v);
  return const_cast<LabelEntry*>(std::as_const(*this).FindLabel(v, hub));
}

const LabelEntry* SpcIndex::FindLabel(Vertex v, Rank hub) const {
  const LabelSet& set = labels_[v];
  const auto it = std::lower_bound(set.begin(), set.end(), hub, HubBelow);
  return it != set.end() && it->hub == hub ? &*it : nullptr;
}

void SpcIndex::InsertLabel(Vertex v, const LabelEntry& entry) {
  MarkTouched(v);
  LabelSet& set = labels_[v];
  set.insert(std::lower_bound(set.begin(), set.end(), entry.hub, HubBelow),
             entry);
  if (entry.hub != ordering_.rank_of[v]) ++hub_occurrences_[entry.hub];
}

bool SpcIndex::RemoveLabel(Vertex v, Rank hub) {
  LabelSet& set = labels_[v];
  const auto it = std::lower_bound(set.begin(), set.end(), hub, HubBelow);
  if (it == set.end() || it->hub != hub) return false;
  set.erase(it);
  MarkTouched(v);
  if (hub != ordering_.rank_of[v]) --hub_occurrences_[hub];
  return true;
}

size_t SpcIndex::ClearToSelfLabel(Vertex v) {
  MarkTouched(v);
  LabelSet& set = labels_[v];
  const size_t removed = set.size() - 1;
  const Rank self = ordering_.rank_of[v];
  for (const LabelEntry& e : set) {
    if (e.hub != self) --hub_occurrences_[e.hub];
  }
  set.clear();
  set.push_back(LabelEntry{self, 0, 1});
  return removed;
}

IndexSizeStats SpcIndex::SizeStats() const {
  IndexSizeStats stats;
  stats.num_vertices = labels_.size();
  for (const LabelSet& set : labels_) {
    stats.total_entries += set.size();
    stats.max_label_size = std::max(stats.max_label_size, set.size());
    for (const LabelEntry& e : set) {
      if (!FitsFlatInline(e.hub, e.dist, e.count)) ++stats.overflow_entries;
    }
  }
  stats.avg_label_size =
      labels_.empty()
          ? 0.0
          : static_cast<double>(stats.total_entries) / labels_.size();
  stats.wide_bytes = stats.total_entries * sizeof(LabelEntry);
  stats.packed_bytes = stats.total_entries * sizeof(uint64_t) +
                       stats.overflow_entries * sizeof(LabelEntry);
  return stats;
}

Status SpcIndex::ValidateStructure() const {
  if (!ordering_.IsValid()) {
    return Status::Corruption("ordering is not a permutation");
  }
  if (ordering_.size() != labels_.size()) {
    return Status::Corruption("ordering/labels size mismatch");
  }
  for (Vertex v = 0; v < labels_.size(); ++v) {
    const Rank rv = ordering_.rank_of[v];
    const LabelSet& set = labels_[v];
    bool self_seen = false;
    for (size_t i = 0; i < set.size(); ++i) {
      if (i > 0 && set[i - 1].hub >= set[i].hub) {
        return Status::Corruption("labels of v" + std::to_string(v) +
                                  " not strictly sorted by hub rank");
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

// --- HubCache --------------------------------------------------------------

HubCache::HubCache(size_t n)
    : dist_(n, kInfDistance), count_(n, 0) {}

SpcResult HubCache::Query(const LabelSet& labels) const {
  SpcResult result;
  for (const LabelEntry& e : labels) {
    const Distance dh = dist_[e.hub];
    if (dh == kInfDistance) continue;
    AccumulateMatch(dh, count_[e.hub], e.dist, e.count, &result);
  }
  return result;
}

void HubCache::Clear() {
  for (const Rank r : touched_) {
    dist_[r] = kInfDistance;
    count_[r] = 0;
  }
  touched_.clear();
}

}  // namespace dspc
