// The two-pointer label merges (see merge_kernel.h and DESIGN.md §15).

#include "dspc/core/merge_kernel.h"

#include <algorithm>

namespace dspc {

void MergePackedTail(const uint64_t* a, const uint64_t* ae,
                     const LabelEntry* a_overflow, const uint64_t* b,
                     const uint64_t* be, const LabelEntry* b_overflow,
                     SpcResult* result) {
  while (a != ae && b != be) {
    const uint64_t wa = *a;
    const uint64_t wb = *b;
    const uint64_t ha = wa >> kFlatHubShift;
    const uint64_t hb = wb >> kFlatHubShift;
    if (ha == hb) {
      AccumulatePackedMatch(wa, a_overflow, wb, b_overflow, result);
      ++a;
      ++b;
    } else {
      a += ha < hb;
      b += hb < ha;
    }
  }
}

void MergeWideScalar(const LabelEntry* a, const LabelEntry* ae,
                     const LabelEntry* b, const LabelEntry* be,
                     SpcResult* result) {
  while (a != ae && b != be) {
    if (a->hub == b->hub) {
      AccumulateMatch(a->dist, a->count, b->dist, b->count, result);
      ++a;
      ++b;
    } else if (a->hub < b->hub) {
      ++a;
    } else {
      ++b;
    }
  }
}

const uint64_t* PackedLowerBound(const uint64_t* first, const uint64_t* last,
                                 Rank limit) {
  return std::partition_point(first, last, [limit](uint64_t w) {
    return FlatHub(w) < limit;
  });
}

const LabelEntry* WideLowerBound(const LabelEntry* first,
                                 const LabelEntry* last, Rank limit) {
  return std::partition_point(
      first, last, [limit](const LabelEntry& e) { return e.hub < limit; });
}

MergeKernelTier ActiveMergeKernelTier() { return MergeKernelTier::kScalar; }

const char* MergeKernelTierName(MergeKernelTier /*tier*/) { return "scalar"; }

}  // namespace dspc
