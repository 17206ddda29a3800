// FlatSpcIndex: a read-optimized, immutable snapshot of an SpcIndex
// (DESIGN.md §5, §8).
//
// SpcQUERY is a memory-bound merge-scan, so the serving representation is
// a contiguous CSR-style arena: offsets[v]..offsets[v+1] delimits the
// label set of v inside one packed 64-bit entry array (paper §4.1:
// 25-bit hub / 10-bit dist / 29-bit count). The hub rank sits in the top
// bits of each word, so the merge compares hubs with one shift and the
// arena stays sorted by construction. Entries whose distance or count
// exceed the packed budgets live out-of-line in a rare wide side table;
// the arena word keeps the hub inline and points at the side-table slot
// (see label_codec.h for the word formats). Graphs with more than 2^25
// vertices cannot keep hubs inline, so the snapshot falls back to a
// contiguous arena of wide 16-byte entries — still CSR, just unpacked.
//
// On top of each arena sits a dense top-rank directory: per vertex, a
// bitmap over the hub ranks below kDenseRanks plus per-word prefix
// popcounts. On heavy-tailed graphs the overwhelming share of label
// entries reference top-ranked hubs (>90% below rank 512 on the bench
// suite), so the merge-scan's long, serially-dependent two-pointer walk
// collapses into word-parallel bitmap ANDs; each surviving bit is mapped
// to its arena slot with a prefix popcount (dense entries are a prefix of
// the rank-sorted label set). Only the short low-rank tail still merges.
//
// Sharding (DESIGN.md §8): the snapshot is split into vertex-range
// shards, each an independently built arena held by shared_ptr and
// tagged with the generation of the index copy it reflects. Shard widths
// are powers of two, so routing a query endpoint to its shard is one
// shift. A query reads both endpoints' label runs, which may live in two
// different shards — the merge cores take one resolved side per
// endpoint. Sharding exists for maintenance, not for queries: a delta
// rebuild (Rebuild) repacks only the shards whose vertices' label sets
// changed and adopts every clean shard from the previous snapshot at the
// cost of one shared_ptr copy, converting rebuild cost from O(total
// entries) to O(entries in touched shards); dirty shards repack in
// parallel over an optional ThreadPool.
//
// The flat snapshot is the serving half of the mutable-build / immutable-
// serve split: HP-SPC / IncSPC / DecSPC mutate the SpcIndex, queries run
// against the snapshot. All query methods are const and touch no shared
// mutable state, so any number of threads may query one snapshot
// concurrently; QueryManyParallel exploits exactly that.

#ifndef DSPC_CORE_FLAT_SPC_INDEX_H_
#define DSPC_CORE_FLAT_SPC_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dspc/common/status.h"
#include "dspc/common/types.h"
#include "dspc/core/spc_index.h"
#include "dspc/graph/ordering.h"

namespace dspc {

class ThreadPool;

/// A query pair, as consumed by the batched drivers.
using VertexPair = std::pair<Vertex, Vertex>;

/// An arena array that either owns its storage (a std::vector built by
/// the packers) or is a read-only view over externally owned memory (a
/// mapped arena file or a checkpoint payload, persist/snapshot_arena.h).
/// The hot query path reads through a cached {pointer, size} pair either
/// way, so view shards and owning shards run the exact same code at the
/// exact same cost. Mutating methods are only legal in owning mode; whoever
/// installs a view is responsible for keeping the bytes alive (Shard
/// carries a shared_ptr backing handle for exactly that).
template <typename T>
class ArenaVec {
 public:
  ArenaVec() = default;
  ArenaVec(const ArenaVec&) = delete;
  ArenaVec& operator=(const ArenaVec&) = delete;
  // Member-wise move is correct in both modes: moving the vector
  // transfers its buffer, so a data_ that pointed into it still does.
  ArenaVec(ArenaVec&&) noexcept = default;
  ArenaVec& operator=(ArenaVec&&) noexcept = default;

  /// A non-owning view over [data, data + n). The caller guarantees the
  /// bytes outlive this ArenaVec.
  static ArenaVec View(const T* data, size_t n) {
    ArenaVec v;
    v.data_ = data;
    v.size_ = n;
    return v;
  }

  // --- read side (both modes; the query hot path) ------------------------
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  // --- write side (owning mode only) -------------------------------------
  T* data() { return own_.data(); }
  T& operator[](size_t i) { return own_[i]; }
  void assign(size_t n, const T& v) { own_.assign(n, v); Refresh(); }
  void resize(size_t n) { own_.resize(n); Refresh(); }
  void reserve(size_t n) { own_.reserve(n); }
  void push_back(const T& v) { own_.push_back(v); Refresh(); }
  template <typename It>
  void append(It first, It last) {
    own_.insert(own_.end(), first, last);
    Refresh();
  }

 private:
  void Refresh() {
    data_ = own_.data();
    size_ = own_.size();
  }

  std::vector<T> own_;
  const T* data_ = nullptr;
  size_t size_ = 0;
};

class FlatSpcIndex {
 public:
  /// The shard layout for n vertices at a requested shard count: widths
  /// are rounded up to a power of two so ShardOf is a shift, which may
  /// merge the request down (e.g. 16 shards over 4100 vertices become 9
  /// shards of 512). Shard i covers [i << shift, min(n, (i+1) << shift)).
  struct ShardLayout {
    unsigned shift = 0;
    size_t count = 0;

    Vertex BeginOf(size_t shard) const {
      return static_cast<Vertex>(shard << shift);
    }
    Vertex EndOf(size_t shard, size_t n) const {
      const size_t end = (shard + 1) << shift;
      return static_cast<Vertex>(end < n ? end : n);
    }
  };
  static ShardLayout ComputeShardLayout(size_t num_vertices,
                                        size_t requested_shards);

  /// Label sets for one shard's vertex range, copied out of the mutable
  /// index under its shared lock (SpcIndex::CopyLabelRange).
  struct ShardLabels {
    size_t shard = 0;
    std::vector<LabelSet> labels;  ///< one set per vertex of the range
  };

  /// A delta copy of the mutable index: the generation it reflects, the
  /// layout it assumes, and label copies for exactly the dirty shards.
  /// `full` marks a from-scratch copy (every shard present, `ordering`
  /// set) — required whenever the previous snapshot's layout_stamp does
  /// not match, i.e. the ordering, vertex count, or shard count changed.
  struct IndexDelta {
    uint64_t generation = 0;
    uint64_t layout_stamp = 0;
    size_t num_vertices = 0;
    size_t num_shards = 1;
    bool full = false;
    VertexOrdering ordering;  ///< set iff full
    std::vector<ShardLabels> dirty;
  };

  FlatSpcIndex() = default;

  /// Builds the snapshot from a mutable index in O(total entries),
  /// sharded into ~`num_shards` vertex ranges (see ComputeShardLayout);
  /// shards pack in parallel when `pool` is given.
  explicit FlatSpcIndex(const SpcIndex& index, size_t num_shards = 1,
                        ThreadPool* pool = nullptr);

  /// The delta rebuild: packs the shards named in `delta` (in parallel
  /// over `pool` when given) and adopts every other shard from `prev` by
  /// shared_ptr — O(entries in dirty shards), not O(total entries). When
  /// `delta.full` or `prev` is null, builds everything from the delta
  /// (which must then cover all shards). With no dirty shards the result
  /// shares every arena (and its per-shard generation) with `prev`; only
  /// the publisher's composite generation moves.
  static FlatSpcIndex Rebuild(const FlatSpcIndex* prev, IndexDelta delta,
                              ThreadPool* pool = nullptr);

  /// Number of vertices covered.
  size_t NumVertices() const { return num_vertices_; }

  /// Total label entries across all shards.
  size_t TotalEntries() const;

  /// Entries stored in the wide side tables (packed mode only).
  size_t OverflowEntries() const;

  /// True when entries are wide 16-byte records instead of packed words
  /// (only for graphs whose ranks exceed the 25-bit hub budget, or —
  /// theoretically — when a shard's side table outgrows its 29-bit slot
  /// field).
  bool wide_mode() const { return wide_mode_; }

  /// Bytes of all arenas (offsets + entries + side tables + directories
  /// + rank array) — the resident cost of the snapshot.
  size_t ArenaBytes() const;

  /// Rank of vertex v under the snapshot's frozen ordering.
  Rank RankOf(Vertex v) const { return ordering_->rank_of[v]; }

  /// The frozen ordering the snapshot was built under. Shared across
  /// snapshot generations (adoption copies the pointer, not the arrays).
  const VertexOrdering& ordering() const { return *ordering_; }

  // --- shard observability (DESIGN.md §8) --------------------------------

  /// Number of vertex-range shards (0 only for an empty index).
  size_t NumShards() const { return shards_.size(); }

  /// Shard holding vertex v.
  size_t ShardOf(Vertex v) const { return v >> shard_shift_; }

  /// Vertex range [ShardBegin, ShardEnd) of shard i.
  Vertex ShardBegin(size_t shard) const { return shards_[shard]->begin; }
  Vertex ShardEnd(size_t shard) const { return shards_[shard]->end; }

  /// Generation of the index copy shard i was last packed from. An
  /// adopted shard keeps the generation of the rebuild that packed it,
  /// which is the pivot of the dirty-shard protocol: a shard is dirty
  /// iff some vertex in its range changed after that generation.
  uint64_t ShardGeneration(size_t shard) const {
    return shards_[shard]->generation;
  }

  /// Identity of (ordering, vertex count, shard layout) as stamped by the
  /// producer; Rebuild only adopts shards when the stamps match.
  uint64_t LayoutStamp() const { return layout_stamp_; }

  /// Label entries in shard i.
  size_t ShardEntries(size_t shard) const;

  /// True iff shard i's arena is the same object in both snapshots —
  /// i.e. one was adopted from the other (test/bench observability).
  bool SharesShardWith(const FlatSpcIndex& other, size_t shard) const {
    return shard < shards_.size() && shard < other.shards_.size() &&
           shards_[shard] == other.shards_[shard];
  }

  // --- queries -----------------------------------------------------------

  /// SpcQUERY (Algorithm 1) over the packed arenas. Results are identical
  /// to SpcIndex::Query on the source index.
  SpcResult Query(Vertex s, Vertex t) const;

  /// PreQUERY (paper §3.2.2): only hubs ranked strictly higher than s
  /// participate. Identical to SpcIndex::PreQuery.
  SpcResult PreQuery(Vertex s, Vertex t) const;

  /// Answers every pair into `out` (size pairs.size()), single-threaded.
  /// The batched loop amortizes bounds setup and keeps the arenas hot.
  void QueryMany(std::span<const VertexPair> pairs, SpcResult* out) const;
  std::vector<SpcResult> QueryMany(std::span<const VertexPair> pairs) const;

  /// Thread-parallel batch driver: splits `pairs` into contiguous chunks
  /// of size pairs/threads (at least kMinPairsPerThread each, so
  /// parallelism overhead amortizes) and fans them out over a
  /// common/ThreadPool — the caller's persistent `pool` when one is
  /// passed (the serving path: DynamicSpcIndex/SpcService reuse their
  /// lazily-spawned query pool so no serving batch ever spawns threads),
  /// or a pool built for this one call when `pool` is null (standalone
  /// snapshot use in tools and benches). threads = 0 picks hardware
  /// concurrency, capped. Safe because the snapshot is immutable. The
  /// out-buffer overload performs no allocation on the query path.
  void QueryManyParallel(std::span<const VertexPair> pairs, SpcResult* out,
                         unsigned threads = 0, ThreadPool* pool = nullptr) const;
  std::vector<SpcResult> QueryManyParallel(std::span<const VertexPair> pairs,
                                           unsigned threads = 0,
                                           ThreadPool* pool = nullptr) const;

  /// Rebuilds a mutable SpcIndex equivalent to this snapshot.
  SpcIndex Unpack() const;

  /// Raw arena sections over memory the snapshot does not own.
  /// FromArenaView builds a single-shard snapshot as a *view* over them
  /// (the on-disk image's read path, persist/snapshot_arena.h), and
  /// ShardArenaView exposes one shard's arrays to the image encoder. All
  /// pointers must stay valid for as long as `backing` is alive; the
  /// constructed snapshot holds `backing` through its shard, so in-flight
  /// queries keep the bytes alive even after the index itself is
  /// replaced. Label words (entries / overflow / wide_entries) and
  /// offsets are served directly from the viewed bytes — no per-query
  /// copy or decode buffer; only the rank array is copied once at
  /// adoption (the ordering is shared repo-wide as owned vectors) and the
  /// dense directory is derived.
  struct ArenaView {
    size_t num_vertices = 0;
    bool wide = false;
    uint64_t generation = 0;
    const Rank* rank_of = nullptr;      ///< [num_vertices]
    /// [num_vertices + 1] CSR offsets, counted from the view's first
    /// vertex; overflow-reference slots index `overflow`.
    const uint64_t* offsets = nullptr;
    const uint64_t* entries = nullptr;  ///< [offsets[n]] (packed mode)
    const LabelEntry* overflow = nullptr;  ///< [overflow_count] (packed)
    uint64_t overflow_count = 0;
    const LabelEntry* wide_entries = nullptr;  ///< [offsets[n]] (wide mode)
    std::shared_ptr<const void> backing;  ///< keep-alive for the bytes
  };

  /// Builds a single-shard snapshot whose arenas are views into
  /// `view.backing`'s memory. ValidateArena checks the structure before
  /// any query can touch the bytes; the caller must already have
  /// bounds-checked the section sizes against the region (the image
  /// validator's CRC/layout checks).
  static StatusOr<FlatSpcIndex> FromArenaView(ArenaView view);

  /// Shard i's arrays as a view: offsets and overflow slots local to the
  /// shard, rank_of starting at ShardBegin(i), `backing` empty. Valid
  /// while this snapshot lives.
  ArenaView ShardArenaView(size_t shard) const;

  /// Minimum pairs per worker before QueryManyParallel adds a thread.
  static constexpr size_t kMinPairsPerThread = 2048;

  /// The parallelism QueryManyParallel will actually use for a batch of
  /// `pairs` under a `threads` request, before any pool-size clamp:
  /// resolves threads = 0 to hardware concurrency, applies the
  /// kMaxQueryThreads cap and the kMinPairsPerThread floor. <= 1 means
  /// the batch runs serially. DynamicSpcIndex::PoolForBatch asks this
  /// same predicate, so the "should we spawn/fetch a pool" decision can
  /// never drift from the driver's actual behavior.
  static unsigned PlannedParallelism(size_t pairs, unsigned threads);

 private:
  /// One vertex-range arena, immutable once built and shared across
  /// snapshot generations by shared_ptr. All CSR offsets are local to
  /// the shard (offsets[v - begin]). Each array either owns its storage
  /// (packed by the builders) or views externally owned memory (the
  /// image read path; `backing` then keeps the mapping or payload alive
  /// for the shard's lifetime, so pinned queries can outlive an index
  /// swap).
  struct Shard {
    Vertex begin = 0;
    Vertex end = 0;
    uint64_t generation = 0;
    /// offsets[lv]..offsets[lv+1] delimit local vertex lv's entries.
    ArenaVec<uint64_t> offsets;
    /// Packed arena words, sorted ascending by hub within each vertex.
    ArenaVec<uint64_t> entries;
    /// Wide side table for packed-mode overflow entries (slots local).
    ArenaVec<LabelEntry> overflow;
    /// Dense top-rank directory (packed mode): kDenseWords bitmap words
    /// per local vertex. Always owned — derived state, never mapped.
    ArenaVec<uint64_t> hub_bits;
    /// word_base[lv*kDenseWords + w]: dense entries of lv in bitmap words
    /// [0, w) — the prefix-popcount base for positional lookup.
    ArenaVec<uint16_t> word_base;
    /// Wide arena (wide mode only), same local CSR layout as entries.
    ArenaVec<LabelEntry> wide_entries;
    /// Keep-alive for view-mode arrays (e.g. a persist::MappedRegion).
    std::shared_ptr<const void> backing;

    size_t NumEntries() const {
      return offsets.empty() ? 0 : static_cast<size_t>(offsets.back());
    }
    size_t Bytes() const;
  };

  /// A query endpoint resolved against its shard: arena base, this
  /// vertex's run, its dense directory row, and the shard's side table.
  struct PackedSide {
    const uint64_t* arena;
    const LabelEntry* overflow;
    const uint64_t* bits;
    const uint16_t* base;
    uint64_t lo, hi;        ///< arena run [lo, hi) of the vertex
    uint64_t dense_end;     ///< arena index one past the last dense entry
  };
  PackedSide ResolvePacked(Vertex v) const;

  /// Merge-scan cores; kLimited enables the PreQUERY rank cutoff without
  /// taxing the plain Query loop.
  template <bool kLimited>
  static SpcResult QueryPacked(const PackedSide& a, const PackedSide& b,
                               Rank limit);
  template <bool kLimited>
  SpcResult QueryWide(Vertex s, Vertex t, Rank limit) const;

  /// Cheap structural checks over untrusted arenas (FromArenaView).
  Status ValidateArena() const;

  /// Hub ranks covered by the dense directory (must be a multiple of 64).
  static constexpr Rank kDenseRanks = 512;
  static constexpr size_t kDenseWords = kDenseRanks / 64;
  static constexpr unsigned kMaxQueryThreads = 16;

  /// Packs the label sets of [begin, begin + labels.size()) into one
  /// shard. In packed mode returns nullptr if the shard's overflow side
  /// table would outgrow the 29-bit slot field (the caller then falls
  /// back to a wide build).
  static std::shared_ptr<const Shard> PackShard(
      Vertex begin, uint64_t generation, std::span<const LabelSet> labels,
      bool wide);

  /// Recovers the label sets of one shard (the materialization step of
  /// the rare packed->wide fallback).
  static std::vector<LabelSet> UnpackShardLabels(const Shard& shard,
                                                 bool wide);

  /// Packs every shard from `labels_of(begin, end)` under the current
  /// layout, falling back to wide mode if any shard demands it.
  template <typename LabelsOf>
  void PackAllShards(const LabelsOf& labels_of, uint64_t generation,
                     ThreadPool* pool);

  /// Sets shard_shift_ and sizes shards_ for the current num_vertices_.
  void InitLayout(size_t requested_shards);

  /// Rebuilds hub_bits/word_base of a packed shard from offsets/entries.
  static void BuildDenseDirectory(Shard* shard);

  /// Decodes arena slot `i` of a shard back into a LabelEntry — the one
  /// place that knows both entry representations (Unpack, validation,
  /// and the wide-rebuild materialization all decode through here).
  static LabelEntry EntryAt(const Shard& shard, bool wide, uint64_t i);

  size_t num_vertices_ = 0;
  bool wide_mode_ = false;
  uint64_t layout_stamp_ = 0;
  unsigned shard_shift_ = 0;
  /// Shared, not copied, across snapshot generations: adoption and delta
  /// rebuilds alias the previous snapshot's ordering.
  std::shared_ptr<const VertexOrdering> ordering_ =
      std::make_shared<VertexOrdering>();
  std::vector<std::shared_ptr<const Shard>> shards_;
};

}  // namespace dspc

#endif  // DSPC_CORE_FLAT_SPC_INDEX_H_
