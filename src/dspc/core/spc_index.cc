#include "dspc/core/spc_index.h"

#include <algorithm>

#include "dspc/common/binary_io.h"
#include "dspc/common/label_codec.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/merge_kernel.h"

namespace dspc {

LabelEntry* FindLabelIn(LabelSet& set, Rank hub) {
  auto it = std::lower_bound(
      set.begin(), set.end(), hub,
      [](const LabelEntry& e, Rank r) { return e.hub < r; });
  if (it != set.end() && it->hub == hub) return &*it;
  return nullptr;
}

const LabelEntry* FindLabelIn(const LabelSet& set, Rank hub) {
  return FindLabelIn(const_cast<LabelSet&>(set), hub);
}

void InsertLabelInto(LabelSet& set, const LabelEntry& entry) {
  auto it = std::lower_bound(
      set.begin(), set.end(), entry.hub,
      [](const LabelEntry& e, Rank r) { return e.hub < r; });
  set.insert(it, entry);
}

bool RemoveLabelFrom(LabelSet& set, Rank hub) {
  auto it = std::lower_bound(
      set.begin(), set.end(), hub,
      [](const LabelEntry& e, Rank r) { return e.hub < r; });
  if (it == set.end() || it->hub != hub) return false;
  set.erase(it);
  return true;
}

SpcIndex::SpcIndex(VertexOrdering ordering) : ordering_(std::move(ordering)) {
  labels_.resize(ordering_.size());
  hub_occurrences_.assign(ordering_.size(), 0);
  touched_flag_.assign(ordering_.size(), 0);
  for (Vertex v = 0; v < labels_.size(); ++v) {
    labels_[v].push_back(LabelEntry{ordering_.rank_of[v], 0, 1});
  }
}

void SpcIndex::ClearTouched() {
  for (const Vertex v : touched_) touched_flag_[v] = 0;
  touched_.clear();
}

SpcResult SpcIndex::Query(Vertex s, Vertex t) const {
  SpcResult result;
  const LabelSet& ls = labels_[s];
  const LabelSet& lt = labels_[t];
  MergeWideScalar(ls.data(), ls.data() + ls.size(), lt.data(),
                  lt.data() + lt.size(), &result);
  return result;
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
  return FindLabelIn(labels_[v], hub);
}

const LabelEntry* SpcIndex::FindLabel(Vertex v, Rank hub) const {
  return FindLabelIn(labels_[v], hub);
}

void SpcIndex::InsertLabel(Vertex v, const LabelEntry& entry) {
  MarkTouched(v);
  InsertLabelInto(labels_[v], entry);
  if (entry.hub != ordering_.rank_of[v]) ++hub_occurrences_[entry.hub];
}

bool SpcIndex::RemoveLabel(Vertex v, Rank hub) {
  if (!RemoveLabelFrom(labels_[v], hub)) return false;
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

Status SpcIndex::Save(const std::string& path) const {
  BinaryWriter w;
  w.PutU32(kSpcIndexMagic);
  w.PutU32(kSpcIndexFormatV1);
  w.PutU64(labels_.size());
  for (Vertex v = 0; v < labels_.size(); ++v) {
    w.PutU32(ordering_.rank_of[v]);
  }
  for (const LabelSet& set : labels_) {
    w.PutU64(set.size());
    for (const LabelEntry& e : set) {
      // Entries that fit the paper's 64-bit packing are stored packed; a
      // flag byte selects the wide form otherwise.
      if (FitsPacked(e.hub, e.dist, e.count)) {
        w.PutU8(0);
        w.PutU64(PackLabel(e.hub, e.dist, e.count));
      } else {
        w.PutU8(1);
        w.PutU32(e.hub);
        w.PutU32(e.dist);
        w.PutU64(e.count);
      }
    }
  }
  return w.WriteToFile(path);
}

Status SpcIndex::Load(const std::string& path, SpcIndex* out) {
  BinaryReader r({});
  Status s = BinaryReader::ReadFromFile(path, &r);
  if (!s.ok()) return s;
  if (r.GetU32() != kSpcIndexMagic) {
    return Status::Corruption("bad index magic");
  }
  const uint32_t version = r.GetU32();
  if (version == kSpcIndexFormatV1) return LoadFromReader(&r, out);
  if (version == kSpcIndexFormatV2) {
    // v2 is the flat arena image; parse it and unpack into a mutable index.
    FlatSpcIndex flat;
    s = FlatSpcIndex::LoadFromReader(&r, &flat);
    if (!s.ok()) return s;
    *out = flat.Unpack();
    return Status::OK();
  }
  return Status::Corruption("bad index version");
}

Status SpcIndex::LoadFromReader(BinaryReader* reader, SpcIndex* out) {
  BinaryReader& r = *reader;
  const uint64_t n = r.GetU64();
  if (n > r.remaining() / sizeof(Rank)) {
    return Status::Corruption("bad vertex count");
  }
  SpcIndex index;
  index.ordering_.rank_of.resize(n);
  index.ordering_.vertex_of.assign(n, 0);
  for (uint64_t v = 0; v < n; ++v) {
    index.ordering_.rank_of[v] = r.GetU32();
  }
  if (!r.status().ok()) return r.status();
  for (uint64_t v = 0; v < n; ++v) {
    const Rank rank = index.ordering_.rank_of[v];
    if (rank >= n) return Status::Corruption("rank out of range");
    index.ordering_.vertex_of[rank] = static_cast<Vertex>(v);
  }
  index.labels_.resize(n);
  index.touched_flag_.assign(n, 0);
  for (uint64_t v = 0; v < n; ++v) {
    const uint64_t count = r.GetU64();
    if (count > r.remaining()) return Status::Corruption("bad label count");
    LabelSet& set = index.labels_[v];
    set.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      const uint8_t tag = r.GetU8();
      if (tag == 0) {
        const PackedLabelFields f = UnpackLabel(r.GetU64());
        set.push_back(LabelEntry{f.hub, f.dist, f.count});
      } else if (tag == 1) {
        LabelEntry e;
        e.hub = r.GetU32();
        e.dist = r.GetU32();
        e.count = r.GetU64();
        set.push_back(e);
      } else {
        return Status::Corruption("bad entry tag");
      }
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in index file");
  index.hub_occurrences_.assign(n, 0);
  for (uint64_t v = 0; v < n; ++v) {
    for (const LabelEntry& e : index.labels_[v]) {
      if (e.hub >= n) return Status::Corruption("hub rank out of range");
      if (e.hub != index.ordering_.rank_of[v]) {
        ++index.hub_occurrences_[e.hub];
      }
    }
  }
  const Status s = index.ValidateStructure();
  if (!s.ok()) return s;
  *out = std::move(index);
  return Status::OK();
}

// --- HubCache --------------------------------------------------------------

HubCache::HubCache(size_t n)
    : dist_(n, kInfDistance), count_(n, 0) {}

void HubCache::Load(const LabelSet& labels) {
  Clear();
  for (const LabelEntry& e : labels) {
    dist_[e.hub] = e.dist;
    count_[e.hub] = e.count;
    touched_.push_back(e.hub);
  }
}

SpcResult HubCache::Query(const LabelSet& labels) const {
  SpcResult result;
  for (const LabelEntry& e : labels) {
    const Distance dh = dist_[e.hub];
    if (dh == kInfDistance) continue;
    AccumulateMatch(dh, count_[e.hub], e.dist, e.count, &result);
  }
  return result;
}

SpcResult HubCache::PreQuery(const LabelSet& labels, Rank below_rank) const {
  SpcResult result;
  for (const LabelEntry& e : labels) {
    if (e.hub >= below_rank) break;  // labels sorted ascending by rank
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
