// The label-merge path: every hub-label intersection (DESIGN.md §15).
//
// A DSPC query is an intersection of two hub-sorted label sets: the
// minimum of d(s,h) + d(h,t) over common hubs h, with the count products
// summed at that minimum. AccumulateMatch below is that step, defined
// once; every intersection in core/ — the packed and wide kernels, the
// flat query's dense bitmap part, HubCache::Query — feeds its matches
// through it. The pruning tests inside HP-SPC, IncSPC and DecSPC need only
// whether that minimum is below a bound; HubCache::Covers answers that
// without counts and stops at the first covering hub.
//
// Because the accumulation is order-independent (the minimum of sums and
// a modular uint64 sum of products over the min-achievers), ANY traversal
// order over the same match set produces bit-identical {dist, count}.
// That freedom is what the vector tier exploits, and what the
// differential harness (tests/merge_kernel_test.cc) verifies.
//
// Packed flat-arena words (hub in the top 25 bits, see label_codec.h) are
// merged by one of two tiers, selected once per process:
//   kScalar  the classic two-pointer merge, the reference tier
//   kAvx2    broadcast-window with eight b hubs as 32-bit vector lanes
//            (vpcmpeqd + movemask per a hub), compiled with a
//            target("avx2") attribute so the baseline -march=x86-64-v2
//            build still runs everywhere, and only dispatched when
//            __builtin_cpu_supports("avx2")
// The AVX2 tier falls back to per-element galloping (exponential +
// binary search) when one side is lopsidedly longer, to the scalar loop
// below a minimum tail length, and to the scalar loop for the sub-window
// remainder. 16-byte LabelEntry ranges (the mutable indexes and the
// >2^25-vertex wide flat mode) have one kernel, MergeWideScalar.
//
// Pinning the tier:
//   env  DSPC_FORCE_SCALAR_KERNEL=1   scalar everywhere; the operator's
//        kill switch, and the CI build-and-test job re-runs the kernel,
//        flat/sharded index and fuzz suites under it
//   code SetMergeKernelTier(...) / ResetMergeKernelTier()

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

/// Kernel tiers, ordered: a numerically larger tier is never selected
/// unless the host supports it.
enum class MergeKernelTier : unsigned char {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable tier name ("scalar" / "avx2").
const char* MergeKernelTierName(MergeKernelTier tier);

/// True iff this host can execute `tier`. kScalar is always supported;
/// kAvx2 requires a runtime CPUID check on x86-64.
bool MergeKernelTierSupported(MergeKernelTier tier);

/// The highest tier this host supports.
MergeKernelTier MaxMergeKernelTier();

/// The tier queries currently dispatch to, after the env kill switch and
/// any programmatic pin.
MergeKernelTier ActiveMergeKernelTier();

/// Pins the dispatch tier. Returns false (and changes nothing) if the
/// tier is unsupported on this host or DSPC_FORCE_SCALAR_KERNEL is set
/// and `tier` is not kScalar — the env pin always wins.
bool SetMergeKernelTier(MergeKernelTier tier);

/// Drops any programmatic pin; dispatch reverts to env/auto selection.
void ResetMergeKernelTier();

// --- kernels ----------------------------------------------------------------
//
// Packed kernels intersect two hub-ascending half-open ranges of flat
// arena words [a, ae) and [b, be); overflow-reference words are chased
// through the per-side overflow tables. Matches accumulate into *result
// (which the caller seeds — typically with the dense-directory part).
// Preconditions: hubs strictly ascending within each range (the arena
// validator enforces this), and any rank limit already applied by
// truncating the ranges with PackedLowerBound (see below for why that is
// equivalent to the historical in-loop limit break).

void MergePackedTailScalar(const uint64_t* a, const uint64_t* ae,
                           const LabelEntry* a_overflow, const uint64_t* b,
                           const uint64_t* be, const LabelEntry* b_overflow,
                           SpcResult* result);
void MergePackedTailAvx2(const uint64_t* a, const uint64_t* ae,
                         const LabelEntry* a_overflow, const uint64_t* b,
                         const uint64_t* be, const LabelEntry* b_overflow,
                         SpcResult* result);

/// Intersects two hub-ascending LabelEntry ranges into *result.
void MergeWideScalar(const LabelEntry* a, const LabelEntry* ae,
                     const LabelEntry* b, const LabelEntry* be,
                     SpcResult* result);

/// The packed kernel of `tier`, so the harness and the bench can force a
/// tier per call without touching the process-wide dispatch state.
using PackedMergeFn = void (*)(const uint64_t*, const uint64_t*,
                               const LabelEntry*, const uint64_t*,
                               const uint64_t*, const LabelEntry*, SpcResult*);
PackedMergeFn PackedMergeForTier(MergeKernelTier tier);

/// First word in [first, last) whose hub rank is >= limit. Rank-limited
/// queries (PreQuery) truncate both ranges here and then run the
/// unlimited kernel: because hubs ascend, every match below the limit
/// precedes the first >=limit word on both sides, so truncation finds
/// exactly the match set the historical in-loop `hub >= limit` break did.
const uint64_t* PackedLowerBound(const uint64_t* first, const uint64_t* last,
                                 Rank limit);
const LabelEntry* WideLowerBound(const LabelEntry* first,
                                 const LabelEntry* last, Rank limit);

/// Out-of-line dispatcher (tier switch + kernel call).
void MergePackedTailDispatch(const uint64_t* a, const uint64_t* ae,
                             const LabelEntry* a_overflow, const uint64_t* b,
                             const uint64_t* be, const LabelEntry* b_overflow,
                             SpcResult* result);

/// Hot entry point: empty-range fast path inline, then the dispatcher.
inline void MergePackedTail(const uint64_t* a, const uint64_t* ae,
                            const LabelEntry* a_overflow, const uint64_t* b,
                            const uint64_t* be, const LabelEntry* b_overflow,
                            SpcResult* result) {
  if (a == ae || b == be) return;
  MergePackedTailDispatch(a, ae, a_overflow, b, be, b_overflow, result);
}

}  // namespace dspc

#endif  // DSPC_CORE_MERGE_KERNEL_H_
