#include "dspc/core/flat_spc_index.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <thread>

#include "dspc/common/label_codec.h"
#include "dspc/common/thread_pool.h"
#include "dspc/core/merge_kernel.h"

namespace dspc {

namespace {

/// Runs fn(i) for i in [0, n), on the pool when one is given.
void RunShardJobs(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

FlatSpcIndex::ShardLayout FlatSpcIndex::ComputeShardLayout(
    size_t num_vertices, size_t requested_shards) {
  ShardLayout layout;
  if (num_vertices == 0) return layout;
  requested_shards = std::clamp<size_t>(requested_shards, 1, num_vertices);
  const size_t width =
      (num_vertices + requested_shards - 1) / requested_shards;
  layout.shift = static_cast<unsigned>(std::countr_zero(std::bit_ceil(width)));
  layout.count = (num_vertices + (size_t{1} << layout.shift) - 1) >>
                 layout.shift;
  return layout;
}

void FlatSpcIndex::InitLayout(size_t requested_shards) {
  const ShardLayout layout =
      ComputeShardLayout(num_vertices_, requested_shards);
  shard_shift_ = layout.shift;
  shards_.assign(layout.count, nullptr);
}

std::shared_ptr<const FlatSpcIndex::Shard> FlatSpcIndex::PackShard(
    Vertex begin, uint64_t generation, std::span<const LabelSet> labels,
    bool wide) {
  auto shard = std::make_shared<Shard>();
  shard->begin = begin;
  shard->end = static_cast<Vertex>(begin + labels.size());
  shard->generation = generation;
  shard->offsets.assign(labels.size() + 1, 0);

  size_t total = 0;
  size_t overflow = 0;
  for (const LabelSet& set : labels) {
    total += set.size();
    if (!wide) {
      for (const LabelEntry& e : set) {
        if (!FitsFlatInline(e.hub, e.dist, e.count)) ++overflow;
      }
    }
  }

  if (wide) {
    shard->wide_entries.reserve(total);
    for (size_t lv = 0; lv < labels.size(); ++lv) {
      const LabelSet& set = labels[lv];
      shard->wide_entries.append(set.begin(), set.end());
      shard->offsets[lv + 1] = shard->wide_entries.size();
    }
    return shard;
  }

  // Overflow slots are shard-local, so the 29-bit slot field bounds the
  // side table per shard; blowing it demands the wide fallback.
  if (overflow > kPackedCountMax) return nullptr;

  shard->entries.reserve(total);
  shard->overflow.reserve(overflow);
  for (size_t lv = 0; lv < labels.size(); ++lv) {
    for (const LabelEntry& e : labels[lv]) {
      if (FitsFlatInline(e.hub, e.dist, e.count)) {
        shard->entries.push_back(PackLabel(e.hub, e.dist, e.count));
      } else {
        shard->entries.push_back(
            PackFlatOverflowRef(e.hub, shard->overflow.size()));
        shard->overflow.push_back(e);
      }
    }
    shard->offsets[lv + 1] = shard->entries.size();
  }
  BuildDenseDirectory(shard.get());
  return shard;
}

std::vector<LabelSet> FlatSpcIndex::UnpackShardLabels(const Shard& shard,
                                                      bool wide) {
  const size_t width = shard.end - shard.begin;
  std::vector<LabelSet> labels(width);
  for (size_t lv = 0; lv < width; ++lv) {
    LabelSet& set = labels[lv];
    set.reserve(shard.offsets[lv + 1] - shard.offsets[lv]);
    for (uint64_t i = shard.offsets[lv]; i < shard.offsets[lv + 1]; ++i) {
      set.push_back(EntryAt(shard, wide, i));
    }
  }
  return labels;
}

template <typename LabelsOf>
void FlatSpcIndex::PackAllShards(const LabelsOf& labels_of,
                                 uint64_t generation, ThreadPool* pool) {
  const size_t n = num_vertices_;
  auto pack_pass = [&](bool wide) {
    std::atomic<bool> ok{true};
    RunShardJobs(pool, shards_.size(), [&](size_t i) {
      const Vertex begin = static_cast<Vertex>(i << shard_shift_);
      const Vertex end = static_cast<Vertex>(
          std::min<size_t>(n, (i + 1) << shard_shift_));
      shards_[i] = PackShard(begin, generation, labels_of(begin, end), wide);
      if (shards_[i] == nullptr) ok.store(false, std::memory_order_relaxed);
    });
    return ok.load(std::memory_order_relaxed);
  };
  if (!pack_pass(wide_mode_)) {
    // A shard outgrew the packed side-table budget: rebuild everything
    // wide (cold path; requires >2^29 overflow entries in one shard).
    wide_mode_ = true;
    pack_pass(true);
  }
}

FlatSpcIndex::FlatSpcIndex(const SpcIndex& index, size_t num_shards,
                           ThreadPool* pool) {
  num_vertices_ = index.NumVertices();
  ordering_ = std::make_shared<VertexOrdering>(index.ordering());
  InitLayout(num_shards);
  // Hubs must fit their 25-bit field for the packed merge to compare
  // ranks; otherwise every shard uses the wide contiguous arena.
  wide_mode_ = num_vertices_ > 0 && ordering_->size() - 1 > kPackedHubMax;
  PackAllShards(
      [&](Vertex begin, Vertex end) { return index.LabelRange(begin, end); },
      /*generation=*/0, pool);
}

FlatSpcIndex FlatSpcIndex::Rebuild(const FlatSpcIndex* prev, IndexDelta delta,
                                   ThreadPool* pool) {
  FlatSpcIndex out;
  if (prev == nullptr || delta.full) {
    // From-scratch build: the delta carries the ordering and every shard.
    out.num_vertices_ = delta.num_vertices;
    out.layout_stamp_ = delta.layout_stamp;
    out.ordering_ =
        std::make_shared<VertexOrdering>(std::move(delta.ordering));
    out.InitLayout(delta.num_shards);
    out.wide_mode_ =
        out.num_vertices_ > 0 && out.ordering_->size() - 1 > kPackedHubMax;
    std::vector<const std::vector<LabelSet>*> by_shard(out.shards_.size(),
                                                       nullptr);
    // Like .at() below, a malformed producer must fail loudly instead of
    // corrupting memory; the facade provably covers every shard.
    for (const ShardLabels& d : delta.dirty) by_shard.at(d.shard) = &d.labels;
    for (const auto* labels : by_shard) {
      if (labels == nullptr) {
        throw std::logic_error("full IndexDelta must cover every shard");
      }
    }
    out.PackAllShards(
        [&](Vertex begin, Vertex) -> std::span<const LabelSet> {
          return *by_shard[begin >> out.shard_shift_];
        },
        delta.generation, pool);
    return out;
  }

  // Delta rebuild: adopt every clean shard from prev (a shared_ptr copy),
  // repack exactly the dirty ones. Layout stamps must match or the caller
  // should have sent a full delta.
  out.num_vertices_ = prev->num_vertices_;
  out.layout_stamp_ = prev->layout_stamp_;
  out.shard_shift_ = prev->shard_shift_;
  out.wide_mode_ = prev->wide_mode_;
  out.ordering_ = prev->ordering_;
  out.shards_ = prev->shards_;
  if (delta.dirty.empty()) return out;

  std::vector<std::shared_ptr<const Shard>> packed(delta.dirty.size());
  std::atomic<bool> ok{true};
  RunShardJobs(pool, delta.dirty.size(), [&](size_t k) {
    const ShardLabels& d = delta.dirty[k];
    packed[k] = PackShard(static_cast<Vertex>(d.shard << out.shard_shift_),
                          delta.generation, d.labels, out.wide_mode_);
    if (packed[k] == nullptr) ok.store(false, std::memory_order_relaxed);
  });
  if (ok.load(std::memory_order_relaxed)) {
    for (size_t k = 0; k < packed.size(); ++k) {
      out.shards_.at(delta.dirty[k].shard) = std::move(packed[k]);
    }
    return out;
  }

  // Packed->wide fallback: materialize the clean shards' labels from
  // prev (the dirty ones come straight from the delta), and rebuild
  // everything wide.
  std::vector<std::vector<LabelSet>> all(out.shards_.size());
  for (ShardLabels& d : delta.dirty) all[d.shard] = std::move(d.labels);
  for (size_t i = 0; i < out.shards_.size(); ++i) {
    // Shards are never empty and every vertex has a self label, so an
    // empty slot here means "not in the delta": take it from prev.
    if (all[i].empty()) {
      all[i] = UnpackShardLabels(*prev->shards_[i], prev->wide_mode_);
    }
  }
  out.wide_mode_ = true;
  out.PackAllShards(
      [&](Vertex begin, Vertex) -> std::span<const LabelSet> {
        return all[begin >> out.shard_shift_];
      },
      delta.generation, pool);
  return out;
}

size_t FlatSpcIndex::TotalEntries() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->NumEntries();
  return total;
}

size_t FlatSpcIndex::OverflowEntries() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->overflow.size();
  return total;
}

size_t FlatSpcIndex::PlaneRows() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->dist_planes.size() / kPlaneWords;
  }
  return total;
}

size_t FlatSpcIndex::ShardEntries(size_t shard) const {
  return shards_[shard]->NumEntries();
}

size_t FlatSpcIndex::Shard::Bytes() const {
  return offsets.size() * sizeof(uint64_t) +
         entries.size() * sizeof(uint64_t) +
         overflow.size() * sizeof(LabelEntry) +
         wide_entries.size() * sizeof(LabelEntry) +
         hub_bits.size() * sizeof(uint64_t) +
         word_base.size() * sizeof(uint16_t) +
         dist_planes.size() * sizeof(uint64_t) +
         plane_row.size() * sizeof(uint32_t);
}

size_t FlatSpcIndex::ArenaBytes() const {
  size_t total = ordering_->rank_of.size() * sizeof(Rank);
  for (const auto& shard : shards_) total += shard->Bytes();
  return total;
}

void FlatSpcIndex::BuildDenseDirectory(Shard* shard) {
  // Read through a const ref: offsets/entries/overflow may be mmap views,
  // where only the const ArenaVec accessors see the data (the mutating
  // overloads address the owning vector, empty in view mode).
  const Shard& sh = *shard;
  const size_t width = sh.end - sh.begin;
  // Rows with at least kPlaneMinDense dense entries (a prefix of the
  // rank-sorted run) get their own plane row; the rest read kZeroPlaneRow.
  shard->plane_row.assign(width, 0);
  size_t planed = 0;
  for (size_t lv = 0; lv < width; ++lv) {
    const uint64_t* run = sh.entries.data() + sh.offsets[lv];
    const uint64_t* end = sh.entries.data() + sh.offsets[lv + 1];
    if (static_cast<size_t>(PackedLowerBound(run, end, kDenseRanks) - run) >=
        kPlaneMinDense) {
      shard->plane_row[lv] = static_cast<uint32_t>(++planed);
    }
  }
  shard->hub_bits.assign(width * kDenseWords, 0);
  shard->word_base.assign(width * kDenseWords, 0);
  shard->dist_planes.assign(planed * kPlaneWords, 0);
  uint64_t unused_planes[kPlaneWords];
  for (size_t lv = 0; lv < width; ++lv) {
    uint64_t* bits = shard->hub_bits.data() + lv * kDenseWords;
    const uint32_t row = sh.plane_row[lv];
    uint64_t* planes = row == 0 ? unused_planes
                                : shard->dist_planes.data() +
                                      (row - 1) * kPlaneWords;
    // Hubs ascend, so each bitmap word is built in registers and stored
    // once when the run moves past it.
    size_t w = 0;
    uint64_t present = 0, low = 0, high = 0;
    for (uint64_t i = sh.offsets[lv]; i < sh.offsets[lv + 1]; ++i) {
      const uint64_t word = sh.entries[i];
      const Rank h = FlatHub(word);
      if (h >= kDenseRanks) break;  // sorted ascending: the rest is tail
      if (h / 64 != w) {
        bits[w] = present;
        planes[w] = low;
        planes[kDenseWords + w] = high;
        present = low = high = 0;
        w = h / 64;
      }
      Distance dist;
      PathCount count;
      DecodeFlatWord(word, sh.overflow.data(), &dist, &count);
      // The self entry (dist 0) and dist >= 4 get code 0: decoded exactly.
      const uint64_t code = dist <= 3 ? dist : 0;
      present |= 1ULL << (h % 64);
      low |= (code & 1) << (h % 64);
      high |= (code >> 1) << (h % 64);
    }
    bits[w] = present;
    planes[w] = low;
    planes[kDenseWords + w] = high;
    uint16_t* base = shard->word_base.data() + lv * kDenseWords;
    uint16_t acc = 0;
    for (size_t k = 0; k < kDenseWords; ++k) {
      base[k] = acc;
      acc = static_cast<uint16_t>(acc + std::popcount(bits[k]));
    }
  }
}

LabelEntry FlatSpcIndex::EntryAt(const Shard& shard, bool wide, uint64_t i) {
  if (wide) return shard.wide_entries[i];
  const uint64_t word = shard.entries[i];
  LabelEntry e;
  e.hub = FlatHub(word);
  DecodeFlatWord(word, shard.overflow.data(), &e.dist, &e.count);
  return e;
}

inline FlatSpcIndex::PackedSide FlatSpcIndex::ResolvePacked(Vertex v) const {
  const Shard& sh = *shards_[v >> shard_shift_];
  const size_t lv = v - sh.begin;
  PackedSide side;
  side.arena = sh.entries.data();
  side.overflow = sh.overflow.data();
  side.bits = sh.hub_bits.data() + lv * kDenseWords;
  const uint32_t row = sh.plane_row[lv];
  side.planes = row == 0 ? kZeroPlaneRow
                         : sh.dist_planes.data() + (row - 1) * kPlaneWords;
  side.base = sh.word_base.data() + lv * kDenseWords;
  side.lo = sh.offsets[lv];
  side.hi = sh.offsets[lv + 1];
  side.dense_end = side.lo + side.base[kDenseWords - 1] +
                   static_cast<uint64_t>(
                       std::popcount(side.bits[kDenseWords - 1]));
  return side;
}

template <bool kLimited>
SpcResult FlatSpcIndex::QueryPacked(const PackedSide& A, const PackedSide& B,
                                    Rank limit) {
  SpcResult result;

  // Dense part: the common top-ranked hubs fall out of word-parallel
  // bitmap ANDs; each decoded bit maps to its arena slot by prefix
  // popcount, so there is no serially-dependent two-pointer walk over
  // the (large) dense share of both label sets. The two sides may live
  // in different shards — every lookup below is side-relative. A rank
  // limit (PreQUERY) is one more mask per word.
  //
  // Step 1 reads only the directory rows. With code c_x(h) in {1,2,3}
  // the exact distance, levels[s - 2] collects the common hubs coded on
  // both sides whose sum c_a + c_b is s. Step 2 decodes the hubs of the
  // smallest non-empty level plus every common hub coded 0 (self entry,
  // distance >= 4, or a row on the zero plane row) on either side. A
  // skipped hub's sum is strictly above the accumulated level's, so it
  // can neither be the minimum nor add to its count.
  constexpr size_t kLevels = 5;  // exact sums 2..6
  // levels[kLevels] stays empty: the pick when no coded level has a hub.
  uint64_t levels[kLevels + 1][kDenseWords];
  uint64_t uncoded[kDenseWords];
  uint64_t nonempty = 1ULL << kLevels;  // bit k: levels[k] has a hub
  for (size_t w = 0; w < kDenseWords; ++w) {
    uint64_t lim = ~0ULL;
    if constexpr (kLimited) {
      const Rank lo = static_cast<Rank>(w * 64);
      lim = limit >= lo + 64 ? ~0ULL
            : limit <= lo    ? 0
                             : (1ULL << (limit - lo)) - 1;
    }
    const uint64_t la = A.planes[w] & lim;
    const uint64_t ha = A.planes[kDenseWords + w] & lim;
    const uint64_t lb = B.planes[w];
    const uint64_t hb = B.planes[kDenseWords + w];
    const uint64_t a1 = la & ~ha, a2 = ha & ~la, a3 = la & ha;
    const uint64_t b1 = lb & ~hb, b2 = hb & ~lb, b3 = lb & hb;
    levels[0][w] = a1 & b1;
    levels[1][w] = (a1 & b2) | (a2 & b1);
    levels[2][w] = (a1 & b3) | (a2 & b2) | (a3 & b1);
    levels[3][w] = (a2 & b3) | (a3 & b2);
    levels[4][w] = a3 & b3;
    levels[kLevels][w] = 0;
    for (size_t k = 0; k < kLevels; ++k) {
      nonempty |= static_cast<uint64_t>(levels[k][w] != 0) << k;
    }
    uncoded[w] = A.bits[w] & B.bits[w] & lim & ~((la | ha) & (lb | hb));
  }
  const uint64_t* best = levels[std::countr_zero(nonempty)];
  for (size_t w = 0; w < kDenseWords; ++w) {
    uint64_t decode = uncoded[w] | best[w];
    const uint64_t bits_a = A.bits[w];
    const uint64_t bits_b = B.bits[w];
    const uint64_t base_a = A.lo + A.base[w];
    const uint64_t base_b = B.lo + B.base[w];
    while (decode != 0) {
      const int bit = std::countr_zero(decode);
      decode &= decode - 1;
      const uint64_t below = (1ULL << bit) - 1;
      const uint64_t ia = base_a + std::popcount(bits_a & below);
      const uint64_t ib = base_b + std::popcount(bits_b & below);
      AccumulatePackedMatch(A.arena[ia], A.overflow, B.arena[ib], B.overflow,
                            &result);
    }
  }
  if constexpr (kLimited) {
    if (limit < kDenseRanks) return result;  // tail hubs all >= limit
  }

  // Tail part: the two-pointer merge (core/merge_kernel.h) over the short
  // low-rank remainder. A rank limit is applied by truncating both ranges
  // at the first >=limit word: hubs ascend, so every match below the
  // limit precedes the truncation point on both sides and the unlimited
  // merge finds exactly the match set the historical in-loop break did.
  const uint64_t* a = A.arena + A.dense_end;
  const uint64_t* ae = A.arena + A.hi;
  const uint64_t* b = B.arena + B.dense_end;
  const uint64_t* be = B.arena + B.hi;
  if constexpr (kLimited) {
    ae = PackedLowerBound(a, ae, limit);
    be = PackedLowerBound(b, be, limit);
  }
  MergePackedTail(a, ae, A.overflow, b, be, B.overflow, &result);
  return result;
}

template <bool kLimited>
SpcResult FlatSpcIndex::QueryWide(Vertex s, Vertex t, Rank limit) const {
  SpcResult result;
  const Shard& sa = *shards_[s >> shard_shift_];
  const Shard& sb = *shards_[t >> shard_shift_];
  const size_t ls = s - sa.begin;
  const size_t lt = t - sb.begin;
  const LabelEntry* a = sa.wide_entries.data() + sa.offsets[ls];
  const LabelEntry* ae = sa.wide_entries.data() + sa.offsets[ls + 1];
  const LabelEntry* b = sb.wide_entries.data() + sb.offsets[lt];
  const LabelEntry* be = sb.wide_entries.data() + sb.offsets[lt + 1];
  if constexpr (kLimited) {
    // Truncate-at-limit is equivalent to the in-loop break; see the
    // packed tail above.
    ae = WideLowerBound(a, ae, limit);
    be = WideLowerBound(b, be, limit);
  }
  MergeWideScalar(a, ae, b, be, &result);
  return result;
}

SpcResult FlatSpcIndex::Query(Vertex s, Vertex t) const {
  if (wide_mode_) return QueryWide<false>(s, t, 0);
  return QueryPacked<false>(ResolvePacked(s), ResolvePacked(t), 0);
}

SpcResult FlatSpcIndex::PreQuery(Vertex s, Vertex t) const {
  const Rank limit = ordering_->rank_of[s];
  if (wide_mode_) return QueryWide<true>(s, t, limit);
  return QueryPacked<true>(ResolvePacked(s), ResolvePacked(t), limit);
}

void FlatSpcIndex::QueryMany(std::span<const VertexPair> pairs,
                             SpcResult* out) const {
  if (wide_mode_) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      out[i] = QueryWide<false>(pairs[i].first, pairs[i].second, 0);
    }
    return;
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    out[i] = QueryPacked<false>(ResolvePacked(pairs[i].first),
                                ResolvePacked(pairs[i].second), 0);
  }
}

std::vector<SpcResult> FlatSpcIndex::QueryMany(
    std::span<const VertexPair> pairs) const {
  std::vector<SpcResult> results(pairs.size());
  QueryMany(pairs, results.data());
  return results;
}

unsigned FlatSpcIndex::PlannedParallelism(size_t pairs, unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  threads = std::min(threads, kMaxQueryThreads);
  // Coarse contiguous chunks — pairs/threads each, never smaller than
  // kMinPairsPerThread — so parallelism overhead amortizes and each
  // worker's arena touches stay local; finer granularity loses to the
  // single-thread batched loop.
  const size_t max_useful = pairs / kMinPairsPerThread;
  return static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(threads, max_useful)));
}

void FlatSpcIndex::QueryManyParallel(std::span<const VertexPair> pairs,
                                     SpcResult* out, unsigned threads,
                                     ThreadPool* pool) const {
  threads = PlannedParallelism(pairs.size(), threads);
  // A caller-provided pool caps the parallelism it can actually deliver;
  // honoring the smaller bound keeps chunk sizes matched to real workers.
  if (pool != nullptr) threads = std::min(threads, pool->size());
  if (threads <= 1) {
    QueryMany(pairs, out);
    return;
  }
  const size_t chunk = (pairs.size() + threads - 1) / threads;
  const auto run_chunk = [this, pairs, chunk, out](size_t w) {
    const size_t begin = std::min(pairs.size(), w * chunk);
    const size_t end = std::min(pairs.size(), begin + chunk);
    if (begin == end) return;
    QueryMany(pairs.subspan(begin, end - begin), out + begin);
  };
  if (pool != nullptr) {
    // The serving path: the facade's lazily-spawned pool is parked between
    // batches, so a batch costs two notifications instead of thread
    // creation. The pool serializes concurrent regions internally.
    pool->ParallelFor(threads, run_chunk);
    return;
  }
  // Standalone snapshots (tools, benches) pay a one-call pool; the caller
  // participates in the region, so `threads` is the total parallelism.
  ThreadPool local(threads);
  local.ParallelFor(threads, run_chunk);
}

std::vector<SpcResult> FlatSpcIndex::QueryManyParallel(
    std::span<const VertexPair> pairs, unsigned threads,
    ThreadPool* pool) const {
  std::vector<SpcResult> results(pairs.size());
  QueryManyParallel(pairs, results.data(), threads, pool);
  return results;
}

SpcIndex FlatSpcIndex::Unpack() const {
  // Shards cover [0, n) in order; each stores sorted sets, self included.
  std::vector<LabelSet> labels;
  labels.reserve(num_vertices_);
  for (const auto& shard_ptr : shards_) {
    for (LabelSet& set : UnpackShardLabels(*shard_ptr, wide_mode_)) {
      labels.push_back(std::move(set));
    }
  }
  return SpcIndex(*ordering_, std::move(labels));
}

Status FlatSpcIndex::ValidateArena() const {
  const size_t n = num_vertices_;
  if (!ordering_->IsValid() || ordering_->size() != n) {
    return Status::Corruption("flat index ordering is not a permutation");
  }
  const ShardLayout layout{shard_shift_, shards_.size()};
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard* sh = shards_[i].get();
    if (sh == nullptr) return Status::Corruption("flat index missing shard");
    if (sh->begin != layout.BeginOf(i) || sh->end != layout.EndOf(i, n)) {
      return Status::Corruption("flat index shard range mismatch");
    }
    const size_t width = sh->end - sh->begin;
    if (sh->offsets.size() != width + 1 || sh->offsets[0] != 0) {
      return Status::Corruption("flat index offsets malformed");
    }
    for (size_t lv = 0; lv < width; ++lv) {
      if (sh->offsets[lv] > sh->offsets[lv + 1]) {
        return Status::Corruption("flat index offsets not monotone");
      }
    }
    const size_t stored =
        wide_mode_ ? sh->wide_entries.size() : sh->entries.size();
    if (sh->offsets[width] != stored) {
      return Status::Corruption("flat index offsets/entries mismatch");
    }
    for (Vertex v = sh->begin; v < sh->end; ++v) {
      const Rank rv = ordering_->rank_of[v];
      const size_t lv = v - sh->begin;
      Rank prev = kInvalidRank;
      bool self_seen = false;
      for (uint64_t e_i = sh->offsets[lv]; e_i < sh->offsets[lv + 1]; ++e_i) {
        if (!wide_mode_) {
          // Range-check the raw word before EntryAt chases the slot.
          const uint64_t word = sh->entries[e_i];
          if (IsFlatOverflowRef(word) &&
              FlatOverflowSlot(word) >= sh->overflow.size()) {
            return Status::Corruption("flat index overflow slot out of range");
          }
        }
        const LabelEntry e = EntryAt(*sh, wide_mode_, e_i);
        if (prev != kInvalidRank && e.hub <= prev) {
          return Status::Corruption("flat index hubs not strictly ascending");
        }
        prev = e.hub;
        if (e.hub > rv) {
          return Status::Corruption("flat index hub outranked by owner");
        }
        if (e.hub == rv) {
          if (e.dist != 0 || e.count != 1) {
            return Status::Corruption("flat index bad self label");
          }
          self_seen = true;
        }
        if (e.count == 0) {
          return Status::Corruption("flat index zero-count label");
        }
      }
      if (!self_seen) {
        return Status::Corruption("flat index missing self label");
      }
    }
  }
  return Status::OK();
}

StatusOr<FlatSpcIndex> FlatSpcIndex::FromArenaView(ArenaView view) {
  FlatSpcIndex flat;
  const size_t n = view.num_vertices;
  flat.num_vertices_ = n;
  flat.wide_mode_ = view.wide;
  flat.InitLayout(1);
  if (n == 0) return flat;

  // The ordering is the one arena section adopted by copy, not by view:
  // it is shared repo-wide as owned vectors (and vertex_of is derived
  // from rank_of anyway). One O(n) pass per adoption, zero per query.
  auto ordering = std::make_shared<VertexOrdering>();
  ordering->rank_of.assign(view.rank_of, view.rank_of + n);
  ordering->vertex_of.assign(n, 0);
  for (size_t v = 0; v < n; ++v) {
    const Rank rank = ordering->rank_of[v];
    if (rank >= n) return Status::Corruption("arena rank out of range");
    ordering->vertex_of[rank] = static_cast<Vertex>(v);
  }
  flat.ordering_ = std::move(ordering);

  // Label words and offsets are views straight into the image bytes —
  // the zero-copy contract of the mmap serving tier. The shard holds the
  // backing region, so any pin of this snapshot (and thus any in-flight
  // query) keeps the bytes alive after a newer generation is adopted.
  auto shard = std::make_shared<Shard>();
  shard->begin = 0;
  shard->end = static_cast<Vertex>(n);
  shard->generation = view.generation;
  shard->offsets = ArenaVec<uint64_t>::View(view.offsets, n + 1);
  const uint64_t total = view.offsets[n];
  if (view.wide) {
    shard->wide_entries = ArenaVec<LabelEntry>::View(view.wide_entries, total);
  } else {
    shard->entries = ArenaVec<uint64_t>::View(view.entries, total);
    shard->overflow =
        ArenaVec<LabelEntry>::View(view.overflow, view.overflow_count);
  }
  shard->backing = std::move(view.backing);
  flat.shards_[0] = shard;
  // The bytes are untrusted until ValidateArena accepts them, and the
  // dense directory (derived, owned state) is only built over validated
  // offsets/entries.
  if (Status s = flat.ValidateArena(); !s.ok()) return s;
  if (!flat.wide_mode_) BuildDenseDirectory(shard.get());
  return flat;
}

FlatSpcIndex::ArenaView FlatSpcIndex::ShardArenaView(size_t shard) const {
  const Shard& sh = *shards_[shard];
  ArenaView view;
  view.num_vertices = sh.end - sh.begin;
  view.wide = wide_mode_;
  view.generation = sh.generation;
  view.rank_of = ordering_->rank_of.data() + sh.begin;
  view.offsets = sh.offsets.data();
  view.entries = sh.entries.data();
  view.overflow = sh.overflow.data();
  view.overflow_count = sh.overflow.size();
  view.wide_entries = sh.wide_entries.data();
  return view;
}

}  // namespace dspc
