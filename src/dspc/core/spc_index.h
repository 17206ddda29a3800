// SPC-Index: 2-hop hub labeling for shortest path counting (paper §2.2,
// originally Zhang & Yu, SIGMOD'20).
//
// Every vertex v owns a label set L(v) of triples (h, sd(h,v), sigma_{h,v})
// where sigma_{h,v} = spc(h^, v) is the number of shortest h-v paths on
// which h is the highest-ranked vertex. The labeling obeys Exact Shortest
// Paths Covering (ESPC): for any pair (s,t),
//     H = argmin_{h in L(s) cap L(t)} sd(h,s) + sd(h,t)        (Eq. 1)
//     spc(s,t) = sum_{h in H} sigma_{h,s} * sigma_{h,t}        (Eq. 2)
//
// Representation notes (see DESIGN.md):
//  - hubs are stored as *ranks* under the frozen vertex ordering, so rank
//    comparisons replace order lookups and label sets stay sorted by rank;
//  - label sets are sorted ascending by hub rank (highest-ranked hub
//    first), making SpcQUERY a linear merge-scan;
//  - counts are uint64_t, exact modulo 2^64.

#ifndef DSPC_CORE_SPC_INDEX_H_
#define DSPC_CORE_SPC_INDEX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/graph/ordering.h"

namespace dspc {

/// A vertex's label set, sorted ascending by hub rank.
using LabelSet = std::vector<LabelEntry>;

/// Sorted-label-set primitives shared by the undirected, directed, and
/// weighted index variants. All are O(log |set|) search (+ O(|set|) shift
/// for insert/remove).
LabelEntry* FindLabelIn(LabelSet& set, Rank hub);
const LabelEntry* FindLabelIn(const LabelSet& set, Rank hub);
void InsertLabelInto(LabelSet& set, const LabelEntry& entry);
bool RemoveLabelFrom(LabelSet& set, Rank hub);

/// Size/shape statistics for an index (Table 4 reporting).
struct IndexSizeStats {
  size_t num_vertices = 0;
  size_t total_entries = 0;
  size_t max_label_size = 0;
  double avg_label_size = 0.0;
  /// Bytes of the in-memory 16-byte-entry representation.
  size_t wide_bytes = 0;
  /// Entries that exceed the packed 25/10/29-bit budgets and need the
  /// flat arena's wide side table.
  size_t overflow_entries = 0;
  /// Bytes under the paper's packed 64-bit encoding (Section 4.1): one
  /// word per entry plus a wide side-table record per overflow entry —
  /// the exact resident cost of the FlatSpcIndex entry storage.
  size_t packed_bytes = 0;
};

/// The SPC-Index. Hot paths (Query) never fail; mutating helpers are used
/// by the construction/maintenance algorithms in hp_spc / inc_spc / dec_spc.
class SpcIndex {
 public:
  SpcIndex() = default;

  /// Creates an index whose every vertex carries only its self label
  /// (rank(v), 0, 1); construction algorithms fill in the rest.
  explicit SpcIndex(VertexOrdering ordering);

  /// Adopts finished label sets, labels[v] = L(v) sorted by hub with its
  /// self label, as the builders and FlatSpcIndex::Unpack produce them.
  /// Recomputes the hub occurrence counts; the touched set starts empty.
  SpcIndex(VertexOrdering ordering, std::vector<LabelSet> labels);

  /// Number of vertices covered.
  size_t NumVertices() const { return labels_.size(); }

  /// The frozen ordering this index was built under.
  const VertexOrdering& ordering() const { return ordering_; }

  /// Rank of vertex v under the frozen ordering.
  Rank RankOf(Vertex v) const { return ordering_.rank_of[v]; }

  /// Vertex holding rank r.
  Vertex VertexOf(Rank r) const { return ordering_.vertex_of[r]; }

  /// Label set of v (sorted ascending by hub rank).
  const LabelSet& Labels(Vertex v) const { return labels_[v]; }

  /// Contiguous view of the label sets of vertices [begin, end) — the
  /// zero-copy input for per-shard snapshot packing (DESIGN.md §8).
  std::span<const LabelSet> LabelRange(Vertex begin, Vertex end) const {
    return {labels_.data() + begin, labels_.data() + end};
  }

  /// Deep copy of the label sets of vertices [begin, end) — the delta
  /// copy-on-read primitive: the snapshot worker copies only the ranges
  /// of dirty shards instead of the whole index.
  std::vector<LabelSet> CopyLabelRange(Vertex begin, Vertex end) const {
    return {labels_.begin() + begin, labels_.begin() + end};
  }

  /// SpcQUERY (Algorithm 1): shortest distance and path count between s
  /// and t by merge-scanning L(s) and L(t). Disconnected: {inf, 0}.
  SpcResult Query(Vertex s, Vertex t) const;

  /// PreQUERY (paper §3.2.2): like Query but only hubs ranked strictly
  /// higher than `s` participate. Used by DecUPDATE's pruning.
  SpcResult PreQuery(Vertex s, Vertex t) const;

  /// Appends a new lowest-ranked vertex with its self label; used for
  /// vertex insertion on dynamic graphs (paper §3).
  Vertex AddVertex();

  // --- mutation API for the maintenance algorithms -----------------------

  /// Pointer to the entry with hub rank `hub` in L(v), or nullptr.
  LabelEntry* FindLabel(Vertex v, Rank hub);
  const LabelEntry* FindLabel(Vertex v, Rank hub) const;

  /// Inserts a label entry, keeping L(v) sorted. Precondition: no entry
  /// with that hub exists.
  void InsertLabel(Vertex v, const LabelEntry& entry);

  /// Removes the entry with hub rank `hub` from L(v); returns false if
  /// absent.
  bool RemoveLabel(Vertex v, Rank hub);

  /// Drops all labels of v except its self label (isolated-vertex
  /// optimization, paper §3.2.3). Returns how many entries were removed.
  size_t ClearToSelfLabel(Vertex v);

  /// Number of label sets other than the hub's own that currently contain
  /// an entry with hub rank `r`. DecSPC's isolated-vertex fast path is
  /// sound only when this is 0 for the detached vertex (stale labels kept
  /// by IncSPC may otherwise survive, see dec_spc.cc).
  size_t HubOccurrences(Rank r) const { return hub_occurrences_[r]; }

  // --- mutation tracking (delta snapshots, DESIGN.md §8) -----------------

  /// Vertices whose label sets may have changed since the last
  /// ClearTouched(), deduplicated, in no particular order. Conservative:
  /// handing out a mutable FindLabel pointer counts as a touch whether or
  /// not the caller writes through it.
  const std::vector<Vertex>& TouchedVertices() const { return touched_; }

  /// Resets the touched set (the facade drains it after every update).
  void ClearTouched();

  // --- diagnostics -------------------------------------------------------

  /// Size statistics (Table 4).
  IndexSizeStats SizeStats() const;

  /// Structural invariants: labels sorted by hub rank without duplicates,
  /// hubs outrank or equal their owner, self label (rank(v),0,1) present,
  /// ordering is a valid permutation. Returns OK or a Corruption message
  /// naming the first violation.
  Status ValidateStructure() const;

  friend bool operator==(const SpcIndex& a, const SpcIndex& b) {
    return a.ordering_.rank_of == b.ordering_.rank_of &&
           a.labels_ == b.labels_;
  }

 private:
  /// Records v in the touched set (idempotent per ClearTouched window).
  void MarkTouched(Vertex v) {
    if (!touched_flag_[v]) {
      touched_flag_[v] = 1;
      touched_.push_back(v);
    }
  }

  VertexOrdering ordering_;
  std::vector<LabelSet> labels_;
  /// hub_occurrences_[r]: count of non-self entries with hub rank r across
  /// all label sets. Maintained by InsertLabel/RemoveLabel/ClearToSelfLabel.
  std::vector<size_t> hub_occurrences_;
  /// Touched-vertex set: dense dedup flag per vertex plus the compact
  /// list, so marking is O(1) and clearing is O(|touched|).
  std::vector<uint8_t> touched_flag_;
  std::vector<Vertex> touched_;
};

/// Rank-indexed scratch view of one label set, shared by every
/// construction/maintenance BFS in the undirected, directed, and weighted
/// variants: load L(h) once, then each per-vertex test costs at most
/// O(|L(v)|) — the O(l) the paper's complexity theorems assume. The arrays
/// are n-sized but reset via a touched list, so Load+Clear cost O(|L(h)|).
/// Every pruning test is Covers; Query is for the searches that need the
/// count as well (DecSPC's SrrSEARCH).
///
/// Load and Covers take label sets of any entry type with `hub` and
/// `dist` fields, sorted ascending by hub: LabelSet, and the HP-SPC
/// builders' 8-byte (hub, dist) column (hp_spc.h).
class HubCache {
 public:
  explicit HubCache(size_t n);

  /// Loads every entry of `labels`, and its count if the entry type has
  /// one (Query needs counts, so it wants a LabelSet load). Replaces any
  /// previous load.
  template <typename Entry>
  void Load(const std::vector<Entry>& labels) {
    Clear();
    for (const Entry& e : labels) {
      dist_[e.hub] = e.dist;
      if constexpr (requires { e.count; }) count_[e.hub] = e.count;
      touched_.push_back(e.hub);
    }
  }

  /// SpcQUERY between the loaded label set and `labels` (Eq. 1 and 2).
  SpcResult Query(const LabelSet& labels) const;

  /// The prune test: true iff some common hub ranked strictly higher than
  /// `below_rank` (rank(h) for PreQUERY, the default for SpcQUERY)
  /// certifies a distance below `bound` — the SpcQUERY/PreQUERY distance
  /// compared with `bound`, but it never reads a count. It tests blocks of
  /// 8 entries without branches, OR-reduces each block and stops at the
  /// first block with a hit; the entries left, fewer than 8 or in the
  /// block that crosses `below_rank`, are tested one at a time.
  template <typename Entry>
  bool Covers(const std::vector<Entry>& labels, Distance bound,
              Rank below_rank = kInvalidRank) const {
    const Entry* p = labels.data();
    const Entry* const end = p + labels.size();
    // Hubs ascend, so a block whose last hub is above the cut lies wholly
    // above it. Cutting block by block, not by a binary search up front,
    // reads nothing beyond the block that holds the cut: DecSPC's cut is
    // often a top hub, near the front of every set.
    for (; end - p >= 8 && p[7].hub < below_rank; p += 8) {
      bool hit = false;
      for (int k = 0; k < 8; ++k) hit |= Certifies(p[k], bound);
      if (hit) return true;
    }
    for (; p != end && p->hub < below_rank; ++p) {
      if (Certifies(*p, bound)) return true;
    }
    return false;
  }

  /// Distance recorded for hub rank r (kInfDistance if absent).
  Distance DistOf(Rank r) const { return dist_[r]; }

  /// Resets to the empty state.
  void Clear();

 private:
  /// True iff `e`'s hub is loaded and the path through it is shorter than
  /// `bound`. Evaluates both sides (no branch): the same uint32 sum
  /// AccumulateMatch forms, so the minimum is below `bound` exactly when
  /// some term is; with an unloaded hub the wrapped sum is masked off.
  template <typename Entry>
  bool Certifies(const Entry& e, Distance bound) const {
    const Distance dh = dist_[e.hub];
    return (dh != kInfDistance) & (dh + e.dist < bound);
  }

  std::vector<Distance> dist_;
  std::vector<PathCount> count_;
  std::vector<Rank> touched_;
};

}  // namespace dspc

#endif  // DSPC_CORE_SPC_INDEX_H_
