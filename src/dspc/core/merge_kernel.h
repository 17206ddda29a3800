// The label-merge path: every hub-label intersection (DESIGN.md §15).
//
// A DSPC query is an intersection of two hub-sorted label sets: the
// minimum of d(s,h) + d(h,t) over common hubs h, with the count products
// summed at that minimum. AccumulateMatch below is that step, defined
// once; every intersection in core/ — the packed and wide merges, the
// flat query's dense bitmap part, HubCache::Query — feeds its matches
// through it. The pruning tests inside HP-SPC, IncSPC and DecSPC need only
// whether that minimum is below a bound; HubCache::Covers answers that
// without counts and stops at the first covering hub.
//
// Because the accumulate is order-independent (the minimum of sums and a
// modular uint64 sum of products over the min-achievers), any traversal
// order over the same match set gives bit-identical {dist, count}; the
// flat query relies on that when it answers the dense part by bitmap and
// only the tail by merge.
//
// Both merges are the classic two-pointer loop: MergePackedTail over
// packed flat-arena words (hub in the top 25 bits, see label_codec.h) and
// MergeWideScalar over 16-byte LabelEntry ranges (the mutable indexes and
// the >2^25-vertex wide flat mode). tests/merge_kernel_test.cc checks both
// against an all-pairs reference.

#ifndef DSPC_CORE_MERGE_KERNEL_H_
#define DSPC_CORE_MERGE_KERNEL_H_

#include <cstdint>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/label_codec.h"
#include "dspc/common/types.h"

namespace dspc {

/// The one accumulate step of a hub-label intersection: folds a common
/// hub with d(s,h) = `da`, sigma = `ca` and d(h,t) = `db`, sigma = `cb`
/// into `result`.
inline void AccumulateMatch(Distance da, PathCount ca, Distance db,
                            PathCount cb, SpcResult* result) {
  const Distance d = da + db;
  if (d < result->dist) {
    result->dist = d;
    result->count = ca * cb;
  } else if (d == result->dist) {
    result->count += ca * cb;
  }
}

/// AccumulateMatch over two packed arena words with equal hubs, each
/// decoded against its own side's overflow table.
inline void AccumulatePackedMatch(uint64_t wa, const LabelEntry* a_overflow,
                                  uint64_t wb, const LabelEntry* b_overflow,
                                  SpcResult* result) {
  Distance da;
  Distance db;
  PathCount ca;
  PathCount cb;
  DecodeFlatWord(wa, a_overflow, &da, &ca);
  DecodeFlatWord(wb, b_overflow, &db, &cb);
  AccumulateMatch(da, ca, db, cb, result);
}

// --- merges -----------------------------------------------------------------

/// Intersects two hub-ascending half-open ranges of flat arena words
/// [a, ae) and [b, be) into *result (which the caller seeds — typically
/// with the dense-directory part); overflow-reference words are chased
/// through the per-side overflow tables. Preconditions: hubs strictly
/// ascending within each range (the arena validator enforces this), and
/// any rank limit already applied by truncating the ranges with
/// PackedLowerBound.
void MergePackedTail(const uint64_t* a, const uint64_t* ae,
                     const LabelEntry* a_overflow, const uint64_t* b,
                     const uint64_t* be, const LabelEntry* b_overflow,
                     SpcResult* result);

/// Intersects two hub-ascending LabelEntry ranges into *result.
void MergeWideScalar(const LabelEntry* a, const LabelEntry* ae,
                     const LabelEntry* b, const LabelEntry* be,
                     SpcResult* result);

/// First word in [first, last) whose hub rank is >= limit. Rank-limited
/// queries (PreQuery) truncate both ranges here and then run the
/// unlimited merge: because hubs ascend, every match below the limit
/// precedes the first >=limit word on both sides, so truncation finds
/// exactly the match set the historical in-loop `hub >= limit` break did.
const uint64_t* PackedLowerBound(const uint64_t* first, const uint64_t* last,
                                 Rank limit);
const LabelEntry* WideLowerBound(const LabelEntry* first,
                                 const LabelEntry* last, Rank limit);

// --- report field -----------------------------------------------------------

/// The packed merge has one implementation. This enum and the two
/// functions below exist only so a benchmark report can keep its
/// `merge_kernel_tier` field; they select nothing.
enum class MergeKernelTier : unsigned char { kScalar = 0 };

/// Always kScalar.
MergeKernelTier ActiveMergeKernelTier();

/// "scalar".
const char* MergeKernelTierName(MergeKernelTier tier);

}  // namespace dspc

#endif  // DSPC_CORE_MERGE_KERNEL_H_
