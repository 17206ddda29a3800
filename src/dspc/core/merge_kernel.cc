// Merge-kernel tiers + dispatch (see merge_kernel.h and DESIGN.md §15).
//
// Correctness of the AVX2 tier rests on two facts about the input: hubs
// are strictly ascending within each range (arena validator), and the
// accumulate is order-independent. The tier uses a broadcast-window
// shape: b is consumed in fixed windows whose packed hubs are compared,
// all at once, against one broadcast a hub at a time. The inner loop
// consumes every a word with hub <= the window's last hub, so when a
// window retires the current a hub (and every later one, by ascent)
// exceeds every hub in it — no future a can match a retired window.
// Conversely an a word is consumed only after being compared against the
// whole window that covers its hub range, and hubs in later windows are
// all larger — so no match is ever skipped. Strict ascent means at most
// one window lane matches, so a single find-first-set recovers the
// partner word.

#include "dspc/core/merge_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define DSPC_X86_KERNELS 1
#include <immintrin.h>
#else
#define DSPC_X86_KERNELS 0
#endif

namespace dspc {
namespace {

// Ratio beyond which the AVX2 tier switches from block intersection to
// per-element galloping of the short side into the long side.
constexpr size_t kLopsidedRatioShift = 5;  // 32x

// Below this many words per side the window setup (hub packing, the
// AVX2 transition) costs more than it saves; run the scalar merge.
constexpr size_t kMinVectorTail = 16;

// Gallops each hub of the short side [s, se) through the long side
// [l, le): exponential probe, then binary search in the bracketed window.
// Because short-side hubs ascend, the long-side cursor only moves forward.
void MergePackedLopsided(const uint64_t* s, const uint64_t* se,
                         const LabelEntry* s_overflow, const uint64_t* l,
                         const uint64_t* le, const LabelEntry* l_overflow,
                         bool short_is_a, SpcResult* result) {
  for (; s != se && l != le; ++s) {
    const uint64_t h = *s >> kFlatHubShift;
    size_t lo = 0;
    size_t step = 1;
    const size_t n = static_cast<size_t>(le - l);
    while (lo + step < n && (l[lo + step] >> kFlatHubShift) < h) {
      lo += step;
      step <<= 1;
    }
    const size_t hi = std::min(n, lo + step + 1);
    const uint64_t* pos = std::partition_point(
        l + lo, l + hi,
        [h](uint64_t w) { return (w >> kFlatHubShift) < h; });
    if (pos != le && (*pos >> kFlatHubShift) == h) {
      if (short_is_a) {
        AccumulatePackedMatch(*s, s_overflow, *pos, l_overflow, result);
      } else {
        AccumulatePackedMatch(*pos, l_overflow, *s, s_overflow, result);
      }
      ++pos;
    }
    l = pos;
  }
}

}  // namespace

void MergePackedTailScalar(const uint64_t* a, const uint64_t* ae,
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

#if DSPC_X86_KERNELS

// Eight consecutive packed words' hubs as eight 32-bit lanes, in order.
// srli leaves each hub in the low half of its 64-bit lane; shuffle_ps
// picks the even 32-bit lanes of both vectors ([h0 h1 h4 h5 | h2 h3 h6
// h7] in vpermd-lane numbering); the final permute restores order.
__attribute__((target("avx2"))) inline __m256i PackEightHubs(
    const uint64_t* p) {
  const __m256i w0 = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), kFlatHubShift);
  const __m256i w1 = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4)),
      kFlatHubShift);
  const __m256 even = _mm256_shuffle_ps(_mm256_castsi256_ps(w0),
                                        _mm256_castsi256_ps(w1),
                                        _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_permutevar8x32_epi32(_mm256_castps_si256(even),
                                     _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
}

__attribute__((target("avx2"))) void MergePackedTailAvx2(
    const uint64_t* a, const uint64_t* ae, const LabelEntry* a_overflow,
    const uint64_t* b, const uint64_t* be, const LabelEntry* b_overflow,
    SpcResult* result) {
  const size_t na = static_cast<size_t>(ae - a);
  const size_t nb = static_cast<size_t>(be - b);
  if (std::min(na, nb) < kMinVectorTail) {
    MergePackedTailScalar(a, ae, a_overflow, b, be, b_overflow, result);
    return;
  }
  if ((na >> kLopsidedRatioShift) > nb) {
    MergePackedLopsided(b, be, b_overflow, a, ae, a_overflow,
                        /*short_is_a=*/false, result);
    return;
  }
  if ((nb >> kLopsidedRatioShift) > na) {
    MergePackedLopsided(a, ae, a_overflow, b, be, b_overflow,
                        /*short_is_a=*/true, result);
    return;
  }
  if (na > nb) {
    // Commutative accumulate: the longer side becomes the window.
    MergePackedTailAvx2(b, be, b_overflow, a, ae, a_overflow, result);
    return;
  }
  while (a != ae && be - b >= 8) {
    _mm_prefetch(reinterpret_cast<const char*>(b + 32), _MM_HINT_T0);
    const __m256i window = PackEightHubs(b);
    const uint64_t b_last = b[7] >> kFlatHubShift;
    while (a != ae) {
      const uint64_t wa = *a;
      const uint64_t ha = wa >> kFlatHubShift;
      if (ha > b_last) break;
      const __m256i key = _mm256_set1_epi32(static_cast<int>(ha));
      const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(window, key))));
      if (m != 0) [[unlikely]] {
        // Strict hub ascent: at most one lane matches.
        AccumulatePackedMatch(wa, a_overflow, b[std::countr_zero(m)],
                              b_overflow, result);
      }
      ++a;
    }
    b += 8;
  }
  MergePackedTailScalar(a, ae, a_overflow, b, be, b_overflow, result);
}

#else  // !DSPC_X86_KERNELS

// Non-x86 hosts never dispatch kAvx2 (MergeKernelTierSupported returns
// false); the symbol exists so the harness links and can fall through.
void MergePackedTailAvx2(const uint64_t* a, const uint64_t* ae,
                         const LabelEntry* a_overflow, const uint64_t* b,
                         const uint64_t* be, const LabelEntry* b_overflow,
                         SpcResult* result) {
  MergePackedTailScalar(a, ae, a_overflow, b, be, b_overflow, result);
}

#endif  // DSPC_X86_KERNELS

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

// --- tier selection + dispatch ---------------------------------------------

namespace {

// -1 = no programmatic pin; otherwise a MergeKernelTier value.
std::atomic<int> g_tier_override{-1};

bool EnvForcesScalar() {
  static const bool forced = [] {
    const char* v = std::getenv("DSPC_FORCE_SCALAR_KERNEL");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
  }();
  return forced;
}

bool HostHasAvx2() {
#if DSPC_X86_KERNELS
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

// Env-resolved tier, computed once (getenv is not free on the hot path).
MergeKernelTier EnvTier() {
  static const MergeKernelTier tier =
      EnvForcesScalar() ? MergeKernelTier::kScalar : MaxMergeKernelTier();
  return tier;
}

}  // namespace

const char* MergeKernelTierName(MergeKernelTier tier) {
  switch (tier) {
    case MergeKernelTier::kScalar:
      return "scalar";
    case MergeKernelTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool MergeKernelTierSupported(MergeKernelTier tier) {
  switch (tier) {
    case MergeKernelTier::kScalar:
      return true;
    case MergeKernelTier::kAvx2:
      return HostHasAvx2();
  }
  return false;  // out-of-range value
}

MergeKernelTier MaxMergeKernelTier() {
  return HostHasAvx2() ? MergeKernelTier::kAvx2 : MergeKernelTier::kScalar;
}

MergeKernelTier ActiveMergeKernelTier() {
  const int pinned = g_tier_override.load(std::memory_order_relaxed);
  if (pinned >= 0) return static_cast<MergeKernelTier>(pinned);
  return EnvTier();
}

bool SetMergeKernelTier(MergeKernelTier tier) {
  if (!MergeKernelTierSupported(tier)) return false;
  if (EnvForcesScalar() && tier != MergeKernelTier::kScalar) return false;
  g_tier_override.store(static_cast<int>(tier), std::memory_order_relaxed);
  return true;
}

void ResetMergeKernelTier() {
  g_tier_override.store(-1, std::memory_order_relaxed);
}

PackedMergeFn PackedMergeForTier(MergeKernelTier tier) {
  switch (tier) {
    case MergeKernelTier::kScalar:
      return &MergePackedTailScalar;
    case MergeKernelTier::kAvx2:
      return &MergePackedTailAvx2;
  }
  return &MergePackedTailScalar;
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

void MergePackedTailDispatch(const uint64_t* a, const uint64_t* ae,
                             const LabelEntry* a_overflow, const uint64_t* b,
                             const uint64_t* be, const LabelEntry* b_overflow,
                             SpcResult* result) {
  PackedMergeForTier(ActiveMergeKernelTier())(a, ae, a_overflow, b, be,
                                              b_overflow, result);
}

}  // namespace dspc
